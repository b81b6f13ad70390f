"""Seeded inputs for the benchmark's workloads.

The program under test only ever sees the files written here: scenario
JSON, the MiniSol sources they name, and a labels file. The seed decides
every generated value, so the same seed always yields byte-identical
inputs.

Widening a scenario adds "holder" accounts to its world state. A holder
whose target contract has a payable one-address deposit function
(`deposit`, `fund` or `credit`) funds a position through it in setup, so
the contract's storage grows with the holder count; otherwise the holder
is a plain funded EOA. A widened scenario inherits its base scenario's
label: holders never interact with the target transaction, so the
vulnerability categories must not change.
"""

from __future__ import annotations

import json
import random
import re
import shutil
from pathlib import Path

# Why each workload exists, and the engine flags it runs with.
WORKLOADS = {
    "corpus": {
        "why": "the paper's evaluation: the 8 labelled scenarios through `mtsc check`, "
               "where memoised inputs and a gas certificate cut executions",
        "flags": [],
    },
    "wide-state": {
        "why": "every corpus scenario plus 200 funded holders: snapshot and rollback "
               "cost scales with accounts x storage",
        "flags": ["--n", "100"],
    },
    "switch-only": {
        "why": "the --mr triage path: MR2.x only, no estimator or sweeps; environment "
               "build and deep CAR recursion dominate",
        "flags": ["--mr", "MR2.1,MR2.2,MR2.3"],
    },
    "corpus-jobs": {
        "why": "the corpus through `mtsc bench` and its process pool, the slowest "
               "worker setting the wall time",
        "flags": [],
    },
}

DEPOSIT_FUNCTIONS = ("deposit", "fund", "credit")
SUFFIX = ".scenario.json"

WIDE_HOLDERS = 200           # holders added to every corpus scenario on wide-state
# switch-only: every corpus scenario once per holder level, plus a small
# seeded jitter. Fixed levels keep the batch's total cost nearly the same
# for every seed, so seeds vary the inputs and not the amount of work.
SWITCH_LEVELS = (0, 100, 200, 300)
SWITCH_JITTER = 8


def corpus_scenarios(corpus: Path) -> list:
    """(scenario id, parsed JSON) for every shipped scenario, sorted by id."""
    out = []
    for path in sorted(corpus.glob("*" + SUFFIX)):
        out.append((path.name[: -len(SUFFIX)], json.loads(path.read_text("utf-8"))))
    return out


def deposit_function(corpus: Path, scenario: dict):
    """Name of the target contract's payable `fn name(x: addr)` deposit, or None."""
    callee = scenario["target"]["callee"]
    for rel in scenario["sources"]:
        text = (corpus / rel).read_text("utf-8")
        block = re.search(r"contract\s+" + re.escape(callee) + r"\s*\{(.*?)\n\}",
                          text, re.S)
        if block is None:
            continue
        for name in DEPOSIT_FUNCTIONS:
            if re.search(r"fn\s+" + name + r"\s*\(\s*\w+\s*:\s*addr\s*\)\s*payable",
                         block.group(1)):
                return name
    return None


def widen(corpus: Path, scenario: dict, holders: int, rng: random.Random) -> dict:
    """Copy of `scenario` with `holders` extra seeded accounts in its setup."""
    out = json.loads(json.dumps(scenario))
    callee = out["target"]["callee"]
    function = deposit_function(corpus, scenario)
    setup = out.setdefault("setup", [])
    for i in range(holders):
        role = f"holder_{i:03d}"
        stake = rng.randrange(1_000, 1_000_000)
        out["balances"][role] = stake + rng.randrange(0, 1_000)
        if function is not None:
            setup.append({"actor": role, "callee": callee, "function": function,
                          "args": [role], "value": stake})
    return out


def write_set(corpus: Path, dest: Path, workload: str, seed: int,
              scenarios: dict, labels: dict):
    """Write generated scenarios, the sources they name, their labels and a
    manifest recording why the workload exists and what each scenario inherits."""
    dest.mkdir(parents=True, exist_ok=True)
    for source in sorted(corpus.glob("*.msol")):
        shutil.copyfile(source, dest / source.name)
    for sid, obj in scenarios.items():
        (dest / (sid + SUFFIX)).write_text(json.dumps(obj, indent=1, sort_keys=True),
                                           "utf-8")
    (dest / "labels.json").write_text(json.dumps(labels, indent=1, sort_keys=True),
                                      "utf-8")
    manifest = {"workload": workload, "seed": seed, **WORKLOADS[workload],
                "scenarios": {sid: {"base": sid.split("__")[0],
                                    "holders": sum(role.startswith("holder_")
                                                   for role in obj["balances"]),
                                    "inherited_label": labels[sid]}
                              for sid, obj in scenarios.items()}}
    (dest / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True),
                                        "utf-8")


def generate(workload: str, corpus: Path, dest: Path, seed: int,
             size: str = "full") -> dict:
    """Write the inputs of a generated workload under `dest`; return its labels.

    `size="min"` keeps one holder per widened scenario and one generated
    scenario per corpus scenario, for the smoke test.
    """
    rng = random.Random(f"{workload}:{seed}")
    base_labels = json.loads((corpus / "labels.json").read_text("utf-8"))
    scenarios, labels = {}, {}
    for sid, obj in corpus_scenarios(corpus):
        if workload == "wide-state":
            holders = WIDE_HOLDERS if size == "full" else 1
            new_id = f"{sid}__h{holders}"
            scenarios[new_id] = widen(corpus, obj, holders, rng)
            labels[new_id] = base_labels[sid]
        elif workload == "switch-only":
            levels = SWITCH_LEVELS if size == "full" else SWITCH_LEVELS[:1]
            for j, level in enumerate(levels):
                holders = level + rng.randrange(SWITCH_JITTER)
                new_id = f"{sid}__c{j}_h{holders}"
                scenarios[new_id] = widen(corpus, obj, holders, rng)
                labels[new_id] = base_labels[sid]
        else:
            raise ValueError(f"workload {workload!r} has no generated inputs")
    write_set(corpus, dest, workload, seed, scenarios, labels)
    return labels
