#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at minimum input size.

    python3 perfbench/smoke.py

For every workload it checks that
  * a timed and a traced run print every metric `BENCHMARK.json` names,
    each with its unit, and the last line carries exactly those metrics;
  * the deterministic counts of two traced runs of one seed are equal,
    and so are the inputs the seed generates;
  * a deliberately wrong label trips the correctness gate.
It also checks that `layer_map.json` maps every per-layer metric, and
that the command fails, without a result line, in a directory holding
only `BENCHMARK.json` and the benchmark's files.
Exits 1 at the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

SEED = 7


def fail(message: str):
    raise SystemExit(f"smoke: FAILED: {message}")


def declared(kind: str) -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_min(workload: str, trace: bool, labels: dict = None):
    lines = []
    result = run.run(workload, SEED, 0, trace, size="min", labels=labels,
                     emit=lines.append)
    return result, lines


def check_printed(workload: str, result: dict, lines: list, expected: dict):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail(f"{workload}: result metrics {sorted(got)} differ from {sorted(expected)}")
    printed = {line.split()[0]: line.split()[2] for line in lines
               if not line.startswith("#") and len(line.split()) >= 3}
    for name, unit in expected.items():
        if printed.get(name) != unit:
            fail(f"{workload}: {name} not printed with unit {unit}")
    if not result["correct"] or result["failed"]:
        fail(f"{workload}: correct labels failed the gate: {lines}")


def wrong_labels(workload: str) -> dict:
    """The workload's real labels with the first scenario's label inverted."""
    with run.work_dir("labels-") as work:
        labels = dict(run.setup(workload, SEED, work, size="min").labels)
    first = sorted(labels)[0]
    labels[first] = [] if labels[first] else ["Reentrancy"]
    return labels


def check_bare_directory():
    with run.work_dir("bare-") as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py",
                               "--workload", "corpus", "--seed", "1", "--seconds", "1",
                               "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail("the benchmark ran without the program's sources")


def check_inputs_repeat(workload: str):
    """The same seed must give byte-identical generated inputs."""
    if workload not in ("wide-state", "switch-only"):
        return
    contents = []
    for _ in range(2):
        with run.work_dir("inputs-") as work:
            run.inputs.generate(workload, run.ROOT / "corpus", work, SEED)
            contents.append({p.name: p.read_bytes() for p in work.iterdir()})
    if contents[0] != contents[1]:
        fail(f"{workload}: one seed generated two different inputs")


def check_layer_map(per_layer: dict):
    spec = json.loads((run.HERE / "layer_map.json").read_text("utf-8"))
    mapped = [m for layer in spec["layers"].values() for m in layer["metrics"]]
    if sorted(mapped) != sorted(per_layer):
        fail(f"layer_map.json lists {sorted(set(mapped) ^ set(per_layer))} "
             f"differently from BENCHMARK.json")


def main() -> int:
    end_to_end, per_layer = declared("end_to_end"), declared("per_layer")
    check_layer_map(per_layer)
    run.load_program()
    import layers
    for workload in run.inputs.WORKLOADS:
        check_inputs_repeat(workload)
        result, lines = run_min(workload, trace=False)
        check_printed(workload, result, lines, end_to_end)

        traced = []
        for _ in range(2):
            result, lines = run_min(workload, trace=True)
            check_printed(workload, result, lines, per_layer)
            traced.append(result["metrics"])
        for name in layers.DETERMINISTIC:
            if traced[0][name]["value"] != traced[1][name]["value"]:
                fail(f"{workload}: {name} differs between two traced runs: "
                     f"{traced[0][name]['value']} != {traced[1][name]['value']}")

        result, lines = run_min(workload, trace=False, labels=wrong_labels(workload))
        if result["correct"] or result["failed"] < 1:
            fail(f"{workload}: a wrong label passed the correctness gate")
        print(f"smoke: {workload}: ok", flush=True)
    check_bare_directory()
    print("smoke: bare directory: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
