#!/usr/bin/env python3
"""Time to verdict of mtsc, end to end and, in a separate traced run, per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
`src/`, the shipped scenarios are read from `corpus/`. Generated inputs,
reports and span files go to `.perfbench-work/` (removed at exit) and
`.perfbench-out/` inside the checkout.

Each workload runs as a closed loop with one client: the next scenario
starts only after the previous verdict. One round runs every scenario of
the workload once, in an order drawn from the seed; rounds repeat, and
no scenario starts once `--seconds` have passed (the first round always
completes). `corpus-jobs` is the exception: one round is a single
`mtsc bench` call, whose process pool runs `nproc` workers.

Time to verdict is measured in units of a reference task: a fixed
pure-Python task of the benchmark's own (`reference_s`) is timed between
consecutive scenarios, and each scenario's wall time is divided by the
mean of the reference times just before and just after it. A shared
host (measured on 2 vCPUs, Python 3.11) slowed every process on it by up
to 2x for seconds to minutes at a time; that moved raw seconds between
runs by more than any useful bound, but it moves the program and the
reference task alike, so the ratio stays put. The ratio assumes the
program does its work inside the `mtsc` call, in this process, as it does
today. The raw seconds (median, tail, throughput, CPU time) and the
reference task's own time are printed as `#` lines beside them.
`setup_s` is the median wall time of fresh processes that only import the
program, generate the workload's inputs and load its labels; they run
between rounds, outside the measured time.

Every verdict is checked: the exit code, the categories against the
label, and the report bytes against the same scenario's first round. A
failure is reported, makes `correct` false and the exit code 1.

With `--trace 0` the last line carries the end-to-end metrics; with
`--trace 1` one untraced round is followed by traced rounds, and the last
line carries the per-layer metrics (see `layers.py`).
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

SUFFIX = inputs.SUFFIX
CATEGORIES = ("Reentrancy", "GaslessSend", "ExceptionDisorder")
SETUP_REPEATS = 9  # set-up probes, run between rounds so they meet the host's phases
TAIL_BEYOND = 10   # the tail is the highest sample with this many samples above it

# "ref" is one reference-task time: see `reference_s`.
END_TO_END = (
    ("setup_s", "s"),
    ("verdict_ref.p50", "ref"),
    ("verdict_ref.tail", "ref"),
    ("verdict_ref.mean", "ref"),
    ("peak_rss_mb", "MB"),
)

# The reference task's data: account-like records, as the program's
# world state holds them, in a working set of a few MB like the program's.
REFERENCE_STATE = {f"holder_{i:04d}": {"balance": i, "nonce": 0,
                                       "storage": {f"slot{j}": i * j for j in range(8)}}
                   for i in range(1500)}


def reference_s() -> float:
    """Wall time of a fixed pure-Python task, about 15 ms: an arithmetic
    loop, a deep copy of account-like records, and building, sorting and
    serialising a dict. A host slowdown from a busy neighbour hits
    allocation- and cache-heavy work harder than plain arithmetic, so the
    task mixes them as the program does. The cyclic GC is off meanwhile,
    so the task never collects garbage the program left behind."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        total = 0
        for i in range(30_000):
            total += i * i
        copy.deepcopy(REFERENCE_STATE)
        table = {f"key{i}": i for i in range(4000)}
        sorted(table, reverse=True)
        json.dumps(table)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def load_program():
    """Import `mtsc.cli` from the checkout's `src/`; exit 1 when it is absent."""
    if not (ROOT / "src" / "mtsc" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {ROOT / 'src'}")
    if not (ROOT / "corpus" / "labels.json").is_file():
        raise SystemExit(f"perfbench: no corpus under {ROOT / 'corpus'}")
    sys.path.insert(0, str(ROOT / "src"))
    import mtsc.cli
    return mtsc.cli


@dataclass
class Context:
    """One workload's inputs and the correctness state of its rounds."""
    cli: object
    workload: str
    directory: Path
    labels_path: Path
    labels: dict
    flags: list
    out: Path
    rng: random.Random
    main: object = None
    attempted: int = 0
    failures: list = field(default_factory=list)
    first_bytes: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)   # scenario id -> categories seen
    references: list = field(default_factory=list)  # reference_s() between calls

    @property
    def pooled(self) -> bool:
        return self.workload == "corpus-jobs"

    def call(self, argv):
        """Run `mtsc` in-process; (exit code, error text or None)."""
        self.out.unlink(missing_ok=True)
        try:
            return self.main(argv), None
        except (Exception, SystemExit) as exc:  # a crash is a failed scenario
            return None, f"raised {exc!r}"

    def fail(self, sid, problem):
        self.failures.append(f"{sid}: {problem}")

    def check_report(self, key, rc, err, expected_rc):
        """Report bytes of a finished call, or None after recording why it failed."""
        if err is not None:
            return self.fail(key, err)
        if rc != expected_rc:
            return self.fail(key, f"exit code {rc}, expected {expected_rc}")
        try:
            data = self.out.read_bytes()
        except OSError as exc:
            return self.fail(key, f"no report: {exc}")
        if data != self.first_bytes.setdefault(key, data):
            return self.fail(key, "report bytes differ from the first round")
        return data

    def check_categories(self, sid, categories):
        self.verdicts[sid] = sorted(categories)
        if sorted(categories) != sorted(self.labels[sid]):
            self.fail(sid, f"categories {sorted(categories)} differ from the label "
                           f"{sorted(self.labels[sid])}")

    def timed_call(self, argv):
        """`call` between two reference timings; (exit code, error, sample),
        the sample being (wall seconds, CPU seconds, wall in reference-task
        times)."""
        if not self.references:
            self.references.append(reference_s())
        before = self.references[-1]
        cpu0, start = cpu_seconds(), perf_counter()
        rc, err = self.call(argv)
        wall, cpu = perf_counter() - start, cpu_seconds() - cpu0
        self.references.append(reference_s())
        return rc, err, (wall, cpu, wall / ((before + self.references[-1]) / 2))

    def round(self, deadline: float = None) -> list:
        """Run one round; return one time-to-verdict sample per scenario run.

        No scenario starts after `deadline` (a `perf_counter` value)."""
        if self.pooled:
            return self._bench_round()
        order = sorted(self.labels)
        self.rng.shuffle(order)
        samples = []
        for sid in order:
            if deadline is not None and perf_counter() >= deadline:
                break
            argv = ["check", str(self.directory / (sid + SUFFIX)), "--format", "json",
                    "--out", str(self.out)] + self.flags
            rc, err, sample = self.timed_call(argv)
            samples.append(sample)
            self.attempted += 1
            data = self.check_report(sid, rc, err, 1 if self.labels[sid] else 0)
            if data is not None:
                verdicts = json.loads(data)["verdicts"]
                self.check_categories(sid, [c for v in verdicts for c in v["categories"]])
        return samples

    def _bench_round(self) -> list:
        # every verdict of a `mtsc bench` call arrives when the call returns
        argv = ["bench", str(self.directory), str(self.labels_path), "--format", "json",
                "--out", str(self.out)] + self.flags
        rc, err, sample = self.timed_call(argv)
        self.attempted += len(self.labels)
        data = self.check_report("bench", rc, err, 0)
        if data is not None:
            seen = {v["scenario"]: v["categories"] for v in json.loads(data)["verdicts"]}
            for sid in sorted(self.labels):
                if sid not in seen:
                    self.fail(sid, "no verdict in the bench report")
                else:
                    self.check_categories(sid, seen[sid])
        else:  # the call failed, and with it every scenario it held
            self.failures.extend(f"{sid}: (bench call failed)"
                                 for sid in sorted(self.labels)[1:])
        return [sample] * len(self.labels)

    def digest(self) -> str:
        h = hashlib.sha256()
        for key in sorted(self.first_bytes):
            h.update(key.encode() + b"\0" + self.first_bytes[key])
        return h.hexdigest()[:16]


def setup(workload: str, seed: int, work: Path, size: str = "full",
          labels: dict = None) -> Context:
    """Import the program, generate the workload's inputs, load its labels.

    `labels` replaces the labels the benchmark checks against (the smoke
    test passes a wrong one); the program always gets the generated file.
    """
    cli = load_program()
    corpus = ROOT / "corpus"
    if workload in ("corpus", "corpus-jobs"):
        directory = corpus
        own_labels = json.loads((corpus / "labels.json").read_text("utf-8"))
    else:
        directory = work / "inputs"
        own_labels = inputs.generate(workload, corpus, directory, seed, size)
    return Context(cli=cli, workload=workload, directory=directory,
                   labels_path=directory / "labels.json",
                   labels=labels if labels is not None else own_labels,
                   flags=list(inputs.WORKLOADS[workload]["flags"]),
                   out=work / "report.json",
                   rng=random.Random(f"order:{workload}:{seed}"),
                   main=cli.main)


def run_rounds(ctx: Context, seconds: float, after_round=None):
    """Rounds for `seconds`, the first one whole; [(wall, samples)].

    The last round stops at the deadline, so it may be partial. Time spent
    in `after_round` moves the deadline back: it is not measured."""
    rounds = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or not rounds:
        t0 = perf_counter()
        samples = ctx.round(deadline if rounds else None)
        if samples:
            rounds.append((perf_counter() - t0, samples))
        if after_round is not None:
            t0 = perf_counter()
            after_round()
            deadline += perf_counter() - t0
    return rounds


def whole_rounds(ctx: Context, rounds) -> list:
    """Wall times of the rounds that ran every scenario (not cut by the deadline)."""
    return [wall for wall, samples in rounds if len(samples) == len(ctx.labels)]


def tail(samples):
    """(value, percentile, count): the highest sample with TAIL_BEYOND above it."""
    ordered = sorted(samples)
    n = len(ordered)
    k = max(0, n - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / n, n


def scores(ctx: Context):
    """Per-category TPR and FDR of the verdicts seen, against the labels."""
    tp = fp = fn = 0
    for sid, label in ctx.labels.items():
        got = ctx.verdicts.get(sid, [])
        for cat in CATEGORIES:
            tp += cat in got and cat in label
            fp += cat in got and cat not in label
            fn += cat in label and cat not in got
    tpr = tp / (tp + fn) if tp + fn else None
    fdr = fp / (tp + fp) if tp + fp else 0.0
    return tpr, fdr


def setup_probe_s(workload: str, seed: int, size: str) -> float:
    """Wall time of a fresh process that only sets the workload up."""
    start = perf_counter()
    # no timeout: with one, `wait` polls in sleeps of up to 50 ms
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                    "--workload", workload, "--seed", str(seed), "--size", size],
                   cwd=ROOT, check=True)
    return perf_counter() - start


def peak_rss_mb(ctx: Context) -> float:
    """Peak RSS of this process, plus the pool's workers on `corpus-jobs`.

    Only the largest waited-for child's peak is known, so the workers are
    counted as that peak times the pool size.
    """
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if ctx.pooled:
        rss += (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
                * (os.cpu_count() or 1))
    return rss / 1024.0


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its waited-for children."""
    return sum(u.ru_utime + u.ru_stime for u in (resource.getrusage(resource.RUSAGE_SELF),
                                               resource.getrusage(resource.RUSAGE_CHILDREN)))


def timed_run(ctx: Context, seconds: float, probe) -> dict:
    """Measure for `seconds`; `probe()` times one set-up, SETUP_REPEATS of
    them run between rounds (any left over after the last one)."""
    setups = []

    def probe_between_rounds():
        if len(setups) < SETUP_REPEATS:
            setups.append(probe())

    rounds = run_rounds(ctx, seconds, probe_between_rounds)
    while len(setups) < SETUP_REPEATS:
        setups.append(probe())
    samples = [s for _, batch in rounds for s in batch]
    walls = [wall for wall, _, _ in samples]
    relative = [rel for _, _, rel in samples]
    rel_tail, pct, n = tail(relative)
    return {
        "metrics": {
            "setup_s": statistics.median(setups),
            "verdict_ref.p50": statistics.median(relative),
            "verdict_ref.tail": rel_tail,
            "verdict_ref.mean": statistics.fmean(relative),
            "peak_rss_mb": peak_rss_mb(ctx),
        },
        "raw": {
            "verdict_s.p50": statistics.median(walls),
            "verdict_s.tail": tail(walls)[0],
            "scenarios_per_s": len(samples) / sum(walls),
            "cpu_per_scenario_s": statistics.fmean(cpu for _, cpu, _ in samples),
            "round_s.p50": statistics.median(whole_rounds(ctx, rounds)),
            "reference_s.p50": statistics.median(ctx.references),
        },
        "meta": {"rounds": len(rounds), "verdicts": len(samples),
                 "round_s": [round(wall, 4) for wall, _ in rounds],
                 "tail": {"percentile": round(pct, 2), "samples": n,
                          "beyond": min(TAIL_BEYOND, n - 1)}},
    }


def traced_run(ctx: Context, seconds: float, work: Path, seed: int) -> dict:
    import layers
    from tracer import Tracer

    untraced_s, _ = run_rounds(ctx, 0)[0]
    tracer = Tracer()
    dump_dir = work / "worker-traces"
    dump_dir.mkdir()
    layers.install(tracer, dump_dir)
    try:
        ctx.main = tracer.span("cli.main", ctx.cli.main)
        rounds = run_rounds(ctx, seconds, lambda: tracer.merge_dumps(dump_dir))
    finally:
        tracer.unpatch()
        ctx.main = ctx.cli.main
    verdicts = sum(len(samples) for _, samples in rounds)
    overhead = statistics.median(whole_rounds(ctx, rounds)) - untraced_s
    spans_path = OUT / f"spans-{ctx.workload}-seed{seed}.tsv.gz"
    tracer.write_spans(spans_path)
    return {
        "metrics": layers.metrics(tracer, verdicts, overhead, untraced_s),
        "meta": {"rounds": len(rounds), "verdicts": verdicts,
                 "untraced_round_s": untraced_s, "spans": len(tracer.spans),
                 "spans_file": str(spans_path.relative_to(ROOT))},
    }


def units(trace: bool) -> dict:
    if trace:
        import layers
        return {name: unit for name, unit, _ in layers.PER_LAYER}
    return dict(END_TO_END)


@contextlib.contextmanager
def work_dir(prefix: str):
    """A fresh directory under WORK, removed with WORK (if empty) on exit."""
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is still using it


def host_speed_ms() -> float:
    """Best of 3 reference-task times: flags a slow host in the meta."""
    return round(min(reference_s() for _ in range(3)) * 1000, 3)


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
        labels: dict = None, emit=print) -> dict:
    """Set up, measure and check one workload; emit the report lines; return
    the result object that the last line carries."""
    load_start, speed_start = os.getloadavg(), host_speed_ms()
    with work_dir(f"{workload}-") as work:
        ctx = setup(workload, seed, work, size, labels)
        if trace:
            measured = traced_run(ctx, seconds, work, seed)
        else:
            measured = timed_run(ctx, seconds,
                                 lambda: setup_probe_s(workload, seed, size))
    values = measured["metrics"]
    tpr, fdr = scores(ctx)
    failed = len(ctx.failures)
    meta = {
        "workload": workload, "why": inputs.WORKLOADS[workload]["why"], "seed": seed,
        "seconds": seconds, "trace": int(trace), "size": size,
        "engine_flags": ctx.flags, "jobs": os.cpu_count() if ctx.pooled else 1,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "reference_ms_start": speed_start, "reference_ms_end": host_speed_ms(),
        "report_digest": ctx.digest(),
        "tpr": "n/a" if tpr is None else f"{tpr * 100:.2f}%", "fdr": f"{fdr * 100:.2f}%",
        "failed_ratio": failed / ctx.attempted,
        **measured["meta"],
    }
    for problem in ctx.failures[:20]:
        emit(f"# FAILED {problem}")
    emit(f"# {workload}: {ctx.attempted} verdicts attempted, {failed} failed "
         f"(failed_ratio {meta['failed_ratio']:.4f}), TPR {meta['tpr']} FDR {meta['fdr']}, "
         f"report digest {meta['report_digest']}")
    unit_of = units(trace)
    for name, unit in unit_of.items():
        extra = ""
        if name == "verdict_ref.tail":
            t = meta["tail"]
            extra = f"  (p{t['percentile']} of {t['samples']} samples, {t['beyond']} beyond)"
        emit(f"{name:<34} {values[name]:>14.6g} {unit}{extra}")
    for name, value in measured.get("raw", {}).items():
        emit(f"# raw {name:<30} {value:>14.6g} {'1/s' if name == 'scenarios_per_s' else 's'}")
    emit("# meta " + json.dumps(meta, sort_keys=True))
    return {"correct": failed == 0, "attempted": ctx.attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in unit_of.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "min"), default="full",
                        help="'min' is the smoke test's minimum input size")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        with work_dir("probe-") as work:
            setup(args.workload, args.seed, work, args.size)
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
