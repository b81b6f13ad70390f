"""End-to-end command-line behaviour: exit codes, formats, determinism."""

import argparse
import ast
import hashlib
import inspect
import io
import json
import os
import re
import subprocess
import sys

import pytest

from mtsc import cli
from mtsc.cli import main
from mtsc.agents import AgentSpec
from mtsc.gas_oracle import allocate_reducing, estimate_intrinsic_gas
from mtsc.mr_engine import EngineConfig
from mtsc.minisol.parser import MAX_NESTING
from mtsc.scenario import build_environment, load_scenario
from mtsc.vm import UINT_MAX

from conftest import CORPUS, CORPUS_SCENARIOS, FIXTURES, ROOT, scenario_path

LABELS = str(CORPUS / "labels.json")

# sha256 of `mtsc bench corpus corpus/labels.json --format json`; a change
# to the bytes of the report must update this value deliberately
GOLDEN_REPORT_SHA256 = "b9b4e46c46c4f15327dc6a4b43608327faa6bb088258034a65d0e546964d05e6"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_vulnerable_scenario_exits_one(capsys):
    code, out, _ = run_cli(capsys, "check",
                           str(scenario_path("simple_dao_withdraw")))
    assert code == 1
    assert "Reentrancy" in out
    assert "MR2.2 violated" in out


def test_check_safe_scenario_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "check",
                           str(scenario_path("dividend_vault_payout")))
    assert code == 0
    assert "ok" in out


def test_check_missing_file_exits_two(capsys):
    code, _, err = run_cli(capsys, "check", "no_such.scenario.json")
    assert code == 2
    assert "error" in err


def test_check_rejects_bad_flags(capsys):
    path = str(scenario_path("counter_baseline"))
    assert run_cli(capsys, "check", path, "--n", "0")[0] == 2
    assert run_cli(capsys, "check", path, "--inc-count", "0")[0] == 2
    assert run_cli(capsys, "check", path, "--cah-iterations", "0")[0] == 2
    assert run_cli(capsys, "check", path, "--growth", "1.0")[0] == 2
    assert run_cli(capsys, "check", path, "--mr", "MR9.9")[0] == 2
    assert run_cli(capsys, "check", path, "--mr1-actors", "XYZ")[0] == 2
    assert run_cli(capsys, "check", path, "--car-gas-guard", "100")[0] == 2


@pytest.mark.parametrize("flags,message", [
    (["--mr1-actors", "EOA,CAX"], "unknown actor kind 'CAX'"),
    (["--mr1-actors", "EOA, eoa"], "unknown actor kind 'eoa'"),
    (["--mr", "MR1.1,MR3"], "unknown relation 'MR3'"),
    (["--mr", "MR1.1,"], "unknown relation ''"),
], ids=["actor-kind", "actor-kind-case", "relation", "relation-empty"])
def test_unknown_list_names_exit_two_with_the_scenario_message(capsys, flags, message):
    # the actor kind used to read "'CAX' is not a valid AgentKind"
    code, out, err = run_cli(capsys, "check", str(scenario_path("counter_baseline")), *flags)
    assert (code, out, err) == (2, "", f"mtsc: error: {message}\n")


@pytest.mark.parametrize("argv,message", [
    (["check", str(scenario_path("counter_baseline")), "--jobs", "-1"],
     "--jobs must be non-negative"),
    (["bench", str(scenario_path("counter_baseline")), LABELS],
     f"{scenario_path('counter_baseline')} is not a directory"),
], ids=["negative-jobs", "bench-file"])
def test_refused_arguments_exit_two(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"mtsc: error: {message}\n")


# A guard above what `gasleft()` can hold kept CAR from ever re-entering,
# and a vulnerable contract got a clean verdict (exit 0).
@pytest.mark.parametrize("guard", [str(2**128), str(10**40)])
def test_car_gas_guard_above_uint_max_exits_two(capsys, guard):
    code, out, err = run_cli(capsys, "check", str(scenario_path("simple_dao_withdraw")),
                             "--car-gas-guard", guard)
    assert (code, out) == (2, "")
    assert err == "mtsc: error: car_gas_guard must be at most 2**128 - 1\n"


@pytest.mark.parametrize("iterations", [str(2**16 + 1), "1000000", str(10**8)])
def test_cah_iterations_above_the_bound_exit_two(capsys, iterations):
    # each iteration adds a storage write to the CAH fallback, built before
    # any run: 1000000 took 8 s and 600 MB, and 10**8 exhausted memory
    code, out, err = run_cli(capsys, "check", str(scenario_path("counter_baseline")),
                             "--cah-iterations", iterations)
    assert (code, out) == (2, "")
    assert err == "mtsc: error: cah_iterations must be at least 1 and at most 2**16\n"


def test_cah_iterations_at_the_bound_get_a_verdict(capsys):
    code, _, err = run_cli(capsys, "estimate", str(scenario_path("counter_baseline")),
                           "--cah-iterations", str(2**16))
    assert (code, err) == (0, "")


def test_growth_beyond_floats_gets_a_verdict(capsys):
    # these used to exit 3: a growth step converted inf (or an overflowing
    # product) or NaN to an int
    path = str(scenario_path("simple_dao_withdraw"))
    assert run_cli(capsys, "check", path, "--growth", "nan")[0] == 2
    for growth in ("inf", "1e308"):
        assert run_cli(capsys, "check", path, "--growth", growth)[0] in (0, 1), growth


def test_mr_filter_restricts_the_run(capsys):
    code, out, _ = run_cli(capsys, "check",
                           str(scenario_path("simple_dao_withdraw")),
                           "--mr", "MR2.1")
    assert code == 0  # the reentrancy relations were filtered out
    assert "VULNERABLE" not in out


def test_bench_corpus_reports_perfect_scores(capsys):
    code, out, _ = run_cli(capsys, "bench", str(CORPUS), LABELS, "--jobs", "1")
    assert code == 0
    assert "TPR 100.00%" in out
    assert "FDR 0.00%" in out


def test_bench_parallel_matches_serial(capsys):
    _, serial, _ = run_cli(capsys, "bench", str(CORPUS), LABELS, "--jobs", "1")
    _, parallel, _ = run_cli(capsys, "bench", str(CORPUS), LABELS, "--jobs", "2")
    assert serial == parallel


def test_bench_empty_directory(tmp_path, capsys):
    labels = tmp_path / "labels.json"
    labels.write_text("{}")
    code, out, _ = run_cli(capsys, "bench", str(tmp_path), str(labels))
    assert code == 0
    assert "TPR n/a" in out


def test_bench_missing_label_exits_two(tmp_path, capsys):
    labels = tmp_path / "labels.json"
    labels.write_text("{}")
    code, _, err = run_cli(capsys, "bench", str(CORPUS), str(labels))
    assert code == 2
    assert "no label" in err


def test_bench_label_without_a_scenario_exits_two(tmp_path, capsys):
    # used to score the corpus as TPR 100.00% although a labelled positive
    # never ran, and exit 0
    labels = json.loads((CORPUS / "labels.json").read_text())
    labels["ghost"] = ["Reentrancy"]
    path = tmp_path / "labels.json"
    path.write_text(json.dumps(labels))
    code, out, err = run_cli(capsys, "bench", str(CORPUS), str(path))
    assert (code, out) == (2, "")
    assert err == "mtsc: error: no scenario for label 'ghost'\n"


def test_bench_misspelled_category_exits_two(tmp_path, capsys):
    # used to score the corpus as FDR 25.00% and exit 0
    labels = json.loads((CORPUS / "labels.json").read_text())
    labels["token_ether_transfer"] = ["Reentrency"]
    path = tmp_path / "labels.json"
    path.write_text(json.dumps(labels))
    code, out, err = run_cli(capsys, "bench", str(CORPUS), str(path))
    assert (code, out) == (2, "")
    assert err == ("mtsc: error: unknown category 'Reentrency' "
                   "in the labels of 'token_ether_transfer'\n")


def test_bench_parse_error_is_the_same_at_any_job_count(tmp_path, capsys):
    # with a pool, the unpicklable ParseError used to break it (exit 3)
    doc = json.loads(scenario_path("counter_baseline").read_text())
    doc["sources"] = [str(CORPUS / src) for src in doc["sources"]]
    (tmp_path / "counter_baseline.scenario.json").write_text(json.dumps(doc))
    bad = tmp_path / "bad.msol"
    bad.write_text("contract Bad { fn f( { } }\n")
    doc["sources"] = ["bad.msol"]
    (tmp_path / "bad.scenario.json").write_text(json.dumps(doc))
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps({"bad": [], "counter_baseline": []}))
    serial = run_cli(capsys, "bench", str(tmp_path), str(labels), "--jobs", "1")
    parallel = run_cli(capsys, "bench", str(tmp_path), str(labels), "--jobs", "2")
    assert serial == parallel == (
        2, "", f"mtsc: error: {bad}: 1:22: expected parameter name, found '{{'\n")


def test_bench_corrupt_labels_exit_two(tmp_path, capsys):
    labels = tmp_path / "labels.json"
    labels.write_text("{not json")
    code, _, err = run_cli(capsys, "bench", str(CORPUS), str(labels))
    assert code == 2
    assert err == (f"mtsc: error: {labels}: invalid JSON: Expecting property name "
                   "enclosed in double quotes: line 1 column 2 (char 1)\n")


# A labels file is read as a scenario is, and its errors name the file. A
# byte that is not UTF-8, nesting deeper than the interpreter recurses and
# an integer longer than Python converts used to exit 3.
UNREADABLE_LABELS = [
    ("missing", None, "cannot read {path}: [Errno 2] No such file or directory: '{path}'"),
    ("not-utf8", b'{"counter_baseline": ["Reentrancy\xff"]}',
     "cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 33: "
     "invalid start byte"),
    ("nested", b"[" * 200_000,
     "{path}: invalid JSON: maximum recursion depth exceeded while decoding a "
     "JSON array from a unicode string"),
    ("long-integer", b'{"counter_baseline": ' + b"1" * 5000 + b"}",
     "{path}: invalid JSON: Exceeds the limit (4300 digits) for integer string "
     "conversion: value has 5000 digits; use sys.set_int_max_str_digits() to "
     "increase the limit"),
]


@pytest.mark.parametrize("data,message", [row[1:] for row in UNREADABLE_LABELS],
                         ids=[row[0] for row in UNREADABLE_LABELS])
def test_unreadable_labels_exit_two(tmp_path, capsys, data, message):
    labels = tmp_path / "labels.json"
    if data is not None:
        labels.write_bytes(data)
    code, out, err = run_cli(capsys, "bench", str(CORPUS), str(labels))
    assert (code, out) == (2, "")
    assert err == f"mtsc: error: {message.format(path=labels)}\n"


def test_estimate_lists_actor_kinds(capsys):
    code, out, _ = run_cli(capsys, "estimate",
                           str(scenario_path("simple_dao_withdraw")))
    assert code == 0
    values = {}
    for line in out.splitlines()[1:]:
        kind, rest = line.split(None, 1)
        if "value=" in rest:
            values[kind] = int(rest.split("value=")[1].split()[0])
    assert values["CAR"] > values["EOA"]  # recursion overhead shows up
    assert values["EOA"] == 36_216


# estimate-v1 documents of the corpus; every value, trial count and
# convergence flag is part of the output, so a change must be deliberate
CORPUS_ESTIMATES = json.loads((FIXTURES / "corpus_estimates.json").read_text())


@pytest.mark.parametrize("name", CORPUS_SCENARIOS)
def test_estimate_json_bytes_are_pinned(capsys, name):
    code, out, _ = run_cli(capsys, "estimate", str(scenario_path(name)),
                           "--format", "json")
    assert code == 0
    assert out == json.dumps(CORPUS_ESTIMATES[name], indent=2) + "\n"


def test_estimate_reports_unavailable_kinds(capsys):
    code, out, _ = run_cli(capsys, "estimate",
                           str(scenario_path("dividend_vault_payout")))
    assert code == 0
    cah_line = next(l for l in out.splitlines() if l.strip().startswith("CAH"))
    assert "never succeeds" in cah_line


def test_json_report_written_to_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "check",
                           str(scenario_path("simple_dao_withdraw_b")),
                           "--format", "json", "--out", str(out_path))
    assert code == 1
    assert out == ""
    doc = json.loads(out_path.read_text())
    assert doc["schema"] == "report-v1"
    assert doc["verdicts"][0]["categories"] == ["GaslessSend"]


def test_repeated_runs_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(capsys, "bench", str(CORPUS), LABELS, "--jobs", "1",
            "--format", "json", "--out", str(a))
    run_cli(capsys, "bench", str(CORPUS), LABELS, "--jobs", "2",
            "--format", "json", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("jobs", [["--jobs", "1"], [], ["--jobs", "0"]],
                         ids=["serial", "default-jobs", "one-per-core"])
def test_bench_report_matches_the_golden_bytes(tmp_path, capsys, jobs):
    report = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "bench", str(CORPUS), LABELS, *jobs,
                         "--format", "json", "--out", str(report))
    assert code == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == GOLDEN_REPORT_SHA256


def test_car_guard_is_checked_against_the_schedule_stipend(tmp_path, capsys):
    # a guard between the schedule's stipend and the default one is valid
    sched = tmp_path / "sched.txt"
    sched.write_text("stipend = 1000\n")
    flags = ("--schedule", str(sched), "--car-gas-guard", "2000")
    code, out, _ = run_cli(capsys, "check", str(scenario_path("counter_baseline")),
                           *flags)
    assert code == 0
    assert "counter_baseline: ok" in out
    code, out, _ = run_cli(capsys, "check",
                           str(scenario_path("simple_dao_withdraw")), *flags)
    assert code == 1
    assert "Reentrancy" in out
    code, out, _ = run_cli(capsys, "estimate",
                           str(scenario_path("simple_dao_withdraw")), *flags)
    assert code == 0
    assert "CAR" in out


def test_custom_schedule_changes_measurements(tmp_path, capsys):
    sched = tmp_path / "sched.txt"
    sched.write_text("base_tx = 5000\n")
    _, default_out, _ = run_cli(capsys, "estimate",
                                str(scenario_path("counter_baseline")))
    _, tweaked_out, _ = run_cli(capsys, "estimate",
                                str(scenario_path("counter_baseline")),
                                "--schedule", str(sched))
    assert default_out != tweaked_out
    assert "value=" in tweaked_out


def test_bad_schedule_exits_two(tmp_path, capsys):
    sched = tmp_path / "sched.txt"
    sched.write_text("mystery_key = 3\n")
    code, _, err = run_cli(capsys, "check",
                           str(scenario_path("counter_baseline")),
                           "--schedule", str(sched))
    assert code == 2
    assert "mystery_key" in err


@pytest.mark.parametrize("value", ["abc", "1.5"])
def test_a_schedule_value_that_is_not_an_integer_exits_two(tmp_path, capsys, value):
    sched = tmp_path / "sched.txt"
    sched.write_text(f"# comment\nbase_tx={value}\n")
    code, out, err = run_cli(capsys, "check", str(scenario_path("counter_baseline")),
                             "--schedule", str(sched))
    assert (code, out) == (2, "")
    assert err == f"mtsc: error: {sched}:2: base_tx needs an integer value\n"


# A schedule is read as a scenario is, and its errors name the file. A byte
# that is not UTF-8 used to exit 3.
UNREADABLE_SCHEDULES = [
    ("missing", None, "cannot read {path}: [Errno 2] No such file or directory: '{path}'"),
    ("directory", "dir", "cannot read {path}: [Errno 21] Is a directory: '{path}'"),
    ("not-utf8", b"base_tx = 21000\nsload = 2\xff00\n",
     "cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 25: "
     "invalid start byte"),
]


@pytest.mark.parametrize("data,message", [row[1:] for row in UNREADABLE_SCHEDULES],
                         ids=[row[0] for row in UNREADABLE_SCHEDULES])
def test_unreadable_schedules_exit_two(tmp_path, capsys, data, message):
    sched = tmp_path / "sched.txt"
    if data == "dir":
        sched.mkdir()
    elif data is not None:
        sched.write_bytes(data)
    code, out, err = run_cli(capsys, "check", str(scenario_path("counter_baseline")),
                             "--schedule", str(sched))
    assert (code, out) == (2, "")
    assert err == f"mtsc: error: {message.format(path=sched)}\n"


def test_repeated_actor_kinds_are_swept_once(tmp_path, capsys):
    path = str(scenario_path("simple_dao_withdraw"))
    once = run_cli(capsys, "check", path, "--mr1-actors", "CAR", "--mr", "MR1.1")
    assert once[1].count("MR1.1 violated") == 1
    assert run_cli(capsys, "check", path, "--mr1-actors", "CAR,CAR",
                   "--mr", "MR1.1") == once
    # the same list repeated in the scenario file
    doc = json.loads(scenario_path("simple_dao_withdraw").read_text())
    doc["mr1_actors"] = ["CAR", "EOA", "CAR"]
    doc["sources"] = [str(CORPUS / src) for src in doc["sources"]]
    (tmp_path / "repeated").mkdir()
    repeated = tmp_path / "repeated" / "dao.scenario.json"
    repeated.write_text(json.dumps(doc))
    doc["mr1_actors"] = ["CAR", "EOA"]
    (tmp_path / "distinct").mkdir()
    distinct = tmp_path / "distinct" / "dao.scenario.json"
    distinct.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "check", str(repeated), "--mr", "MR1.1,MR1.2")
    assert (code, out) == run_cli(capsys, "check", str(distinct),
                                  "--mr", "MR1.1,MR1.2")[:2]
    assert out.count("MR1.1 violated") == 1


@pytest.mark.parametrize("mr,notes", [
    ("MR1.2", ""),
    ("MR1.1", "  note MR1.1/CAR: 2*83519 exceeds the block gas limit 90000\n"),
])
def test_an_empty_increasing_plan_is_noted_only_when_mr11_runs(tmp_path, capsys, mr, notes):
    sched = tmp_path / "sched.txt"
    sched.write_text("block_gas_limit = 90000\n")
    code, out, err = run_cli(capsys, "check", str(scenario_path("counter_baseline")),
                             "--mr", mr, "--mr1-actors", "CAR", "--schedule", str(sched))
    assert (code, err) == (0, "")
    assert out == "counter_baseline: ok [-]\n" + notes


# A target run that costs no gas leaves no limit to vary; it used to exit 3
# with "intrinsic gas must be at least 1" (or "gc and n must be at least 1").
@pytest.mark.parametrize("flags,notes", [
    ([], "  note MR1.1/EOA: intrinsic gas is 0, no gas limit to vary\n"
         "  note MR1.2/EOA: intrinsic gas is 0, no gas limit to vary\n"),
    (["--mr", "MR1.2"], "  note MR1.2/EOA: intrinsic gas is 0, no gas limit to vary\n"),
], ids=["both", "reducing"])
def test_a_zero_intrinsic_gas_is_noted_instead_of_swept(tmp_path, capsys, flags, notes):
    (tmp_path / "e.msol").write_text("contract Empty { fn poke() { } }\n")
    path = tmp_path / "e.scenario.json"
    path.write_text(json.dumps({"schema": "scenario-v1", "sources": ["e.msol"],
                                "balances": {"Empty": 0, "$ACTOR": 10_000},
                                "target": {"callee": "Empty", "function": "poke"},
                                "mrs": ["MR1.1", "MR1.2"], "mr1_actors": ["EOA"]}))
    sched = tmp_path / "zero.schedule"
    sched.write_text("base_tx = 0\ndispatch = 0\n")
    code, out, err = run_cli(capsys, "check", str(path), "--schedule", str(sched), *flags)
    assert (code, err) == (0, "")
    assert out == "e: ok [-]\n" + notes
    code, out, _ = run_cli(capsys, "estimate", str(path), "--schedule", str(sched))
    assert code == 0 and "  EOA  value=0 trials=2 converged=True\n" in out


# A block gas limit of 0 leaves one limit to probe, 0 itself; the first
# probe used to be clamped up to 1, which the VM rejects, and exit 3.
def test_a_zero_block_gas_limit_gets_a_verdict_and_an_estimate(tmp_path, capsys):
    (tmp_path / "c.msol").write_text("contract C { fn f() { } }\n")
    path = tmp_path / "c.scenario.json"
    path.write_text(json.dumps({"schema": "scenario-v1", "sources": ["c.msol"],
                                "balances": {"$ACTOR": 0},
                                "target": {"callee": "C", "function": "f"}}))
    sched = tmp_path / "zero.schedule"
    sched.write_text("base_tx = 0\ndispatch = 0\nblock_gas_limit = 0\n")
    code, out, err = run_cli(capsys, "check", str(path), "--schedule", str(sched))
    assert (code, err) == (0, "")
    unavailable = "estimate unavailable, source run never succeeds: Failure(OutOfGas)"
    assert out == ("c: ok [-]\n"
                   "  note MR1.1/EOA: intrinsic gas is 0, no gas limit to vary\n"
                   "  note MR1.2/EOA: intrinsic gas is 0, no gas limit to vary\n"
                   f"  note MR1.x/CAH: {unavailable}\n"
                   f"  note MR1.x/CAR: {unavailable}\n")
    code, out, err = run_cli(capsys, "estimate", str(path), "--schedule", str(sched))
    assert (code, err) == (0, "")
    assert "  EOA  value=0 trials=1 converged=True\n" in out


def test_exit_one_means_a_violation_even_without_a_category(tmp_path, capsys):
    # more gas takes the guarded write: an MR1.1 gas mismatch under the
    # EOA, which maps to no vulnerability category
    (tmp_path / "g.msol").write_text(
        "contract G { uint x; fn f() { if (gasleft() > 100000) { x = 1; } } }\n")
    path = tmp_path / "g.scenario.json"
    path.write_text(json.dumps({"schema": "scenario-v1", "sources": ["g.msol"],
                                "balances": {"G": 0, "$ACTOR": 10_000},
                                "target": {"callee": "G", "function": "f"},
                                "mrs": ["MR1.1"], "mr1_actors": ["EOA"]}))
    code, out, _ = run_cli(capsys, "check", str(path))
    assert code == 1
    assert out.startswith("g: ok [-]\n  MR1.1 violated (gas mismatch): EOA@")


def test_deeply_nested_contract_exits_two(tmp_path, capsys):
    nested = "(" * 600 + "1" + ")" * 600
    (tmp_path / "deep.msol").write_text(
        f"contract Deep {{ uint x; fn f() {{ x = {nested}; }} }}\n")
    path = tmp_path / "deep.scenario.json"
    path.write_text(json.dumps({"schema": "scenario-v1", "sources": ["deep.msol"],
                                "balances": {}, "target": {"callee": "Deep",
                                                           "function": "f"}}))
    code, out, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert out == ""
    assert "nesting deeper than" in err


def test_deep_recursion_through_nested_expressions_gets_a_verdict(tmp_path, capsys):
    # 58 `!` around a self-call that recurses towards 128 frames used to
    # exhaust the Python stack (internal error, exit 3)
    (tmp_path / "r.msol").write_text(
        "contract R { bool ok; fn f() { ok = " + "!" * 58 + "(lowcall this.f()); } }\n")
    path = tmp_path / "r.scenario.json"
    path.write_text(json.dumps({"schema": "scenario-v1", "sources": ["r.msol"],
                                "balances": {"R": 0, "$ACTOR": 10_000},
                                "target": {"callee": "R", "function": "f"}}))
    limit = sys.getrecursionlimit()
    code, out, err = run_cli(capsys, "check", str(path), "--mr", "MR2.1")
    assert code in (0, 1), err
    assert out.startswith("r: ")
    assert sys.getrecursionlimit() == limit


def write_contract_scenario(tmp_path, source):
    (tmp_path / "r.msol").write_text(source + "\n")
    path = tmp_path / "r.scenario.json"
    path.write_text(json.dumps({"schema": "scenario-v1", "sources": ["r.msol"],
                                "balances": {"R": 0, "$ACTOR": 10_000},
                                "target": {"callee": "R", "function": "f"}}))
    return path


@pytest.mark.parametrize("source", [
    # a chain this deep would exhaust the Python stack in validate
    "contract R { uint x; fn f() { x = 1" + " + 1" * 799 + "; } }",
    # and with a self-call at its bottom, the interpreter's recursion budget
    "contract R { bool ok; fn f() { ok = (lowcall this.f())" + " && true" * 450 + "; } }",
], ids=["sum-chain", "and-chain"])
def test_operator_chains_past_the_nesting_limit_exit_two(tmp_path, capsys, source):
    path = write_contract_scenario(tmp_path, source)
    code, out, err = run_cli(capsys, "check", str(path), "--mr", "MR2.1")
    assert code == 2
    assert out == ""
    assert "nesting deeper than" in err


def test_operator_chain_at_the_nesting_limit_gets_a_verdict(tmp_path, capsys):
    # the longest `&&` chain that parses, with a self-call at its bottom
    # recursing towards 128 frames, stays within the recursion budget
    ops = MAX_NESTING - 4
    path = write_contract_scenario(
        tmp_path, "contract R { bool ok; fn f() { ok = (lowcall this.f())"
        + " && true" * ops + "; } }")
    code, out, err = run_cli(capsys, "check", str(path), "--mr", "MR2.1")
    assert code in (0, 1), err
    assert out.startswith("r: ")


# These validated, and the run that skipped the block exited 3 with
# "internal error: AttributeError: 'NoneType' object has no attribute 'kind'".
@pytest.mark.parametrize("after", ["total = y;", "y = 2;"], ids=["read", "assign"])
def test_a_let_read_after_its_block_exits_two(tmp_path, capsys, after):
    (tmp_path / "c.msol").write_text(
        "contract C { uint total; fn f(x: uint) { if (x > 5) { let y = 1; } " + after + " } }")
    path = tmp_path / "c.scenario.json"
    path.write_text(json.dumps({"schema": "scenario-v1", "sources": ["c.msol"],
                                "balances": {"C": 0, "$ACTOR": 10_000},
                                "target": {"callee": "C", "function": "f", "args": [1]}}))
    code, out, err = run_cli(capsys, "check", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("mtsc: error: ") and "[undeclared] name 'y' is not declared" in err


# `²` and a 5001-digit literal used to exit 3; `٣` ran as 3 and 2**128 ran
# although values are 128-bit.
@pytest.mark.parametrize("literal,message", [
    ("²", "unexpected character '²'"),
    ("٣", "unexpected character '٣'"),
    ("1" * 5001, "integer literal exceeds the uint maximum"),
    (str(2**128), "integer literal exceeds the uint maximum"),
], ids=["superscript-two", "arabic-indic-three", "5001-digits", "two-pow-128"])
def test_literals_outside_the_token_set_exit_two(tmp_path, capsys, literal, message):
    path = write_contract_scenario(
        tmp_path, "contract R { uint x; fn f() { x = " + literal + "; } }")
    code, out, err = run_cli(capsys, "check", str(path), "--mr", "MR2.1")
    assert (code, out) == (2, "")
    assert err.startswith("mtsc: error: ") and message in err


def test_engine_options_default_to_the_engine_config():
    _, engine = cli._build_config(cli.PARSER.parse_args(["check", "x.scenario.json"]))
    assert engine == EngineConfig()


def test_check_help_shows_the_engine_config_defaults(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["check", "--help"])
    assert exit_.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    defaults = EngineConfig()
    for flag, value in [("--n N", defaults.n),
                        ("--inc-count INC_COUNT", defaults.inc_count),
                        ("--growth GROWTH", defaults.growth),
                        ("--car-gas-guard CAR_GAS_GUARD", defaults.car_gas_guard),
                        ("--cah-iterations CAH_ITERATIONS", defaults.cah_iterations)]:
        assert f"{flag} " in text and f"(default {value})" in text, flag


# each engine default is named once, beside its algorithm, so the
# library's own signatures default to what EngineConfig does
@pytest.mark.parametrize("function,parameter", [
    (estimate_intrinsic_gas, "growth"),
    (allocate_reducing, "n"),
    (AgentSpec, "car_gas_guard"),
    (AgentSpec, "cah_iterations"),
    (build_environment, "car_gas_guard"),
    (build_environment, "cah_iterations"),
], ids=lambda x: getattr(x, "__name__", x))
def test_library_defaults_are_the_engine_config_defaults(function, parameter):
    default = inspect.signature(function).parameters[parameter].default
    assert default == getattr(EngineConfig(), parameter)


def test_main_builds_no_argument_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    path = str(scenario_path("counter_baseline"))
    for _ in range(2):
        assert run_cli(capsys, "check", path, "--mr", "MR2.1")[0] == 0
    assert built == []


def test_consecutive_parses_share_no_options():
    first = cli.PARSER.parse_args(["check", "x", "--mr", "MR2.1", "--format", "json"])
    assert (first.mr, first.fmt) == ("MR2.1", "json")
    second = cli.PARSER.parse_args(["check", "x"])
    assert (second.mr, second.fmt) == (None, "text")
    cli.PARSER.parse_args(["bench", "d", "l", "--jobs", "4", "--mr1-actors", "CAR"])
    third = cli.PARSER.parse_args(["estimate", "x"])
    assert (third.jobs, third.mr1_actors, hasattr(third, "dir")) == (1, None, False)


@pytest.mark.parametrize("argv", [
    ["check", str(scenario_path("simple_dao_withdraw"))],
    ["bench", str(CORPUS), LABELS, "--jobs", "1"],
], ids=["check", "bench"])
def test_internal_errors_exit_three(monkeypatch, capsys, argv):
    def crash(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "run_all", crash)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3  # never 1, which would claim a vulnerability
    assert out == ""
    assert err == "mtsc: internal error: RecursionError: maximum recursion depth exceeded\n"


def test_bench_is_serial_by_default(monkeypatch, capsys):
    def no_pool(*args, **kwargs):
        raise AssertionError("a default bench started a process pool")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    code, out, _ = run_cli(capsys, "bench", str(CORPUS), LABELS)
    assert code == 0 and "TPR 100.00%" in out


def inline_pools(monkeypatch):
    """Replace bench's process pool by one that maps serially; returns the
    list of `max_workers` each pool was asked for."""
    pools = []

    class InlinePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    return pools


def test_jobs_zero_starts_one_worker_per_core(monkeypatch, capsys):
    pools = inline_pools(monkeypatch)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    assert run_cli(capsys, "bench", str(CORPUS), LABELS, "--jobs", "0")[0] == 0
    assert pools == [3]


def test_bench_starts_no_more_workers_than_scenarios(monkeypatch, capsys):
    # a fork pool starts every worker it is given at once
    serial = run_cli(capsys, "bench", str(CORPUS), LABELS, "--jobs", "1")
    pools = inline_pools(monkeypatch)
    assert run_cli(capsys, "bench", str(CORPUS), LABELS, "--jobs", "64") == serial
    assert pools == [len(CORPUS_SCENARIOS)]


def edited_dao(tmp_path, edit):
    """A copy of simple_dao_withdraw with `edit(doc)` applied to its JSON."""
    doc = json.loads(scenario_path("simple_dao_withdraw").read_text())
    doc["sources"] = [str(CORPUS / src) for src in doc["sources"]]
    edit(doc)
    path = tmp_path / "dao.scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


# A target's `actor` is ignored: the role named, or a name that is no role,
# changes nothing, as $ACTOR sends the target.
@pytest.mark.parametrize("actor", ["owner", "SimpleDAO"])
def test_a_target_actor_changes_no_report_byte(tmp_path, capsys, actor):
    reports = []
    for name, edit in (("plain", lambda doc: None),
                       ("actor", lambda doc: doc["target"].update(actor=actor))):
        (tmp_path / name).mkdir()
        path = edited_dao(tmp_path / name, edit)
        reports.append([run_cli(capsys, "check", path, "--format", fmt)
                        for fmt in ("text", "json")])
    assert reports[0] == reports[1]
    assert reports[0][0][0] == 1  # simple_dao_withdraw is vulnerable


def dao_with_target_args(tmp_path, args):
    return edited_dao(tmp_path, lambda doc: doc["target"].update(args=args))


# `withdraw(amount: uint)`: each of these used to run. A role crashed the
# interpreter (exit 3), no argument gave a clean verdict with only an
# "estimate unavailable" diagnostic, and 2**128 and true ran as numbers.
@pytest.mark.parametrize("args,message", [
    (["$ACTOR"], "argument amount of withdraw must be uint, got '$ACTOR'"),
    ([], "withdraw takes 1 args, got 0"),
    ([2**128], "argument amount of withdraw must be uint"),
    ([True], "argument amount of withdraw must be uint, got True"),
], ids=["role", "missing", "above-uint-max", "bool"])
def test_mistyped_target_arguments_exit_two(tmp_path, capsys, args, message):
    code, out, err = run_cli(capsys, "check", dao_with_target_args(tmp_path, args))
    assert (code, out) == (2, "")
    assert err.startswith("mtsc: error: target: ") and message in err


# The VM holds balances and values in 128 bits; a 2**200 balance used to
# load and get a verdict. Balances must also total at most UINT_MAX, with
# $ACTOR's counted once per actor kind, so the largest balance that loads
# is the only one, and $ACTOR's is a fifth of UINT_MAX.
AMOUNTS = {
    "contract-balance": lambda doc, v: doc["balances"].update(SimpleDAO=v),
    "actor-balance": lambda doc, v: doc["balances"].update({"$ACTOR": v}),
    "setup-value": lambda doc, v: doc["setup"][0].update(value=v),
    "target-value": lambda doc, v: doc["target"].update(value=v),
}


@pytest.mark.parametrize("where", sorted(AMOUNTS))
def test_amounts_above_uint_max_exit_two(tmp_path, capsys, where):
    path = edited_dao(tmp_path, lambda doc: AMOUNTS[where](doc, UINT_MAX + 1))
    code, out, err = run_cli(capsys, "check", path)
    assert (code, out) == (2, "")
    assert "must be an integer in [0, 2**128 - 1]" in err

    def largest(doc):
        if where.endswith("-balance"):
            doc["balances"] = dict.fromkeys(doc["balances"], 0)
        AMOUNTS[where](doc, UINT_MAX // 5 if where == "actor-balance" else UINT_MAX)
    load_scenario(edited_dao(tmp_path, largest))


def test_mistyped_setup_arguments_exit_two(tmp_path, capsys):
    doc = json.loads(scenario_path("crowd_pay_guarded").read_text())
    doc["sources"] = [str(CORPUS / src) for src in doc["sources"]]
    doc["setup"][0]["args"] = [1000, "founder"]  # init(f: addr, p: uint)
    path = tmp_path / "pay.scenario.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert "setup[0]: argument f of init must be addr, got 1000" in err
    doc["setup"][0]["function"] = None
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 2 and "setup[0]: a call with no function takes no args" in err


def test_setup_calls_to_the_actor_run_once_per_kind(tmp_path, capsys):
    # a setup entry with `$ACTOR` only as its callee used to run once, with
    # no actor to call, and exit 3; CAE's fallback reverts every call
    doc = json.loads(scenario_path("counter_baseline").read_text())
    doc["sources"] = [str(CORPUS / src) for src in doc["sources"]]
    doc["setup"][0]["callee"] = "$ACTOR"
    path = tmp_path / "counter.scenario.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "check", str(path))
    assert (code, out) == (2, "")
    assert err == "mtsc: error: setup transaction init failed for CAE: Failure(Revert)\n"


# `"setup": 0` used to exit 3 with a TypeError.
@pytest.mark.parametrize("key", ["setup", "mrs", "mr1_actors"])
def test_scenario_lists_of_another_type_exit_two(tmp_path, capsys, key):
    path = edited_dao(tmp_path, lambda doc: doc.update({key: 0}))
    code, out, err = run_cli(capsys, "check", path)
    assert (code, out) == (2, "")
    assert f"{key} must be a list" in err


def test_a_later_setup_entry_failing_for_one_kind_names_it(tmp_path, capsys):
    # the replay reports the index of the failing transaction; the message
    # maps it back to the entry and the actor kind it ran for
    doc = json.loads(scenario_path("counter_baseline").read_text())
    doc["sources"] = [str(CORPUS / src) for src in doc["sources"]]
    doc["setup"] += [
        {"actor": "$ACTOR", "callee": "Counter", "function": "add", "args": [2]},
        {"actor": "owner", "callee": "$ACTOR", "function": "ping"},
        {"actor": "$ACTOR", "callee": "Counter", "function": "add", "args": [0]},
    ]
    path = tmp_path / "counter.scenario.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "check", str(path))
    assert (code, out) == (2, "")
    assert err == "mtsc: error: setup transaction ping failed for CAE: Failure(Revert)\n"


# Two self-calls per frame make a call tree, and two `send`s per fallback
# a tree of fallbacks. Free calls made the first run 2**128 frames, and a
# stipend above the surcharge it comes out of minted gas for the second;
# neither run ended. A schedule that allows either no longer loads.
FORKS = """
contract Fork {
    fn f() {
        lowcall this.f();
        lowcall this.f();
    }
}

contract Echo {
    fallback payable {
        send this value 1;
        send this value 1;
    }
}
"""
FORK_TARGETS = {
    "fork": {"callee": "Fork", "function": "f"},
    "echo": {"callee": "Echo", "function": None, "value": 1},
}
UNBOUNDED_SCHEDULES = {
    "free-calls": ("call_base = 0\ndispatch = 0\n",
                   "call_base must be positive: free calls leave a run's call "
                   "frames unbounded"),
    "minting-stipend": ("value_transfer_surcharge = 0\n",
                        "stipend must not exceed value_transfer_surcharge: the excess "
                        "would mint gas on every value transfer"),
    "huge-block": ("block_gas_limit = 3000000000\n",
                   "block_gas_limit // call_base, the most calls one run can make, "
                   "must not exceed 65536"),
}


def fork_scenario(tmp_path, name):
    (tmp_path / "forks.msol").write_text(FORKS)
    path = tmp_path / f"{name}.scenario.json"
    path.write_text(json.dumps({
        "schema": "scenario-v1", "sources": ["forks.msol"],
        "balances": {"Fork": 0, "Echo": 10, "$ACTOR": 1_000_000},
        "target": FORK_TARGETS[name], "mrs": ["MR2.1"]}))
    return str(path)


@pytest.mark.parametrize("schedule", sorted(UNBOUNDED_SCHEDULES))
@pytest.mark.parametrize("name", sorted(FORK_TARGETS))
def test_schedules_that_leave_runs_unbounded_exit_two(tmp_path, capsys, name, schedule):
    text, message = UNBOUNDED_SCHEDULES[schedule]
    schedule_path = tmp_path / "unbounded.schedule"
    schedule_path.write_text(text)
    code, out, err = run_cli(capsys, "check", fork_scenario(tmp_path, name),
                             "--schedule", str(schedule_path))
    assert (code, out) == (2, "")
    assert err == f"mtsc: error: {schedule_path}: {message}\n"


@pytest.mark.parametrize("name", sorted(FORK_TARGETS))
def test_forking_calls_get_a_verdict_at_the_default_schedule(tmp_path, capsys, name):
    code, out, _ = run_cli(capsys, "check", fork_scenario(tmp_path, name))
    assert code == 0 and f"{name}: ok" in out


# `python -m mtsc` used to fail with "No module named mtsc.__main__"
def test_the_package_runs_as_a_module():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "mtsc", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: mtsc ")


# file access in `src/mtsc`: the text and JSON readers, and the writers
FILE_ACCESS = re.compile(r"\bopen\(|\.read_(text|bytes)\(|\.write_(text|bytes)\(|json\.load")


def test_only_the_reader_module_reads_files():
    # every input file is read, and a failed read reported, in mtsc.inputs;
    # the one other file access writes the report that --out names
    src = ROOT / "src" / "mtsc"
    found = [(path.relative_to(src).as_posix(), line.strip())
             for path in sorted(src.rglob("*.py")) if path.name != "inputs.py"
             for line in path.read_text(encoding="utf-8").split("\n")
             if FILE_ACCESS.search(line)]
    assert found == [("cli.py", 'Path(out).write_text(text, encoding="utf-8")')]
    assert "Path(out).write_text(" in inspect.getsource(cli._emit)


def _is_default_schedule(node) -> bool:
    """`GasSchedule()` or `<module>.GasSchedule()`: the default schedule."""
    func = getattr(node, "func", None)
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return (isinstance(node, ast.Call) and name == "GasSchedule"
            and not node.args and not node.keywords)


def test_addresses_and_the_default_schedule_have_one_home_each():
    # the world state alone formats an account address, so no caller
    # predicts one; the command line alone builds the default schedule, so
    # no stipend or block limit is read from a schedule other than the run's.
    # The AST walk skips the package docstring's example.
    src = ROOT / "src" / "mtsc"
    formats, defaults = [], []
    for path in sorted(src.rglob("*.py")):
        name, text = path.relative_to(src).as_posix(), path.read_text(encoding="utf-8")
        formats += [name for line in text.split("\n") if "04x" in line]  # f"" or %
        defaults += [name for node in ast.walk(ast.parse(text)) if _is_default_schedule(node)]
    assert formats == ["vm/state.py"]
    assert defaults == ["cli.py"]


# A NUL used to reach stderr as a raw byte, and a lone surrogate raised
# UnicodeEncodeError inside main's `except` clause on a strict stream.
@pytest.mark.parametrize("source,message", [
    ("a\x00b.msol", "cannot read source {dir}/a\\x00b.msol: embedded null byte"),
    ("\ud800.msol", "cannot read source {dir}/\\ud800.msol: 'utf-8' codec can't encode "
                    "character '\\ud800' in position {at}: surrogates not allowed"),
], ids=["nul", "lone-surrogate"])
def test_error_lines_escape_what_a_terminal_cannot_show(tmp_path, monkeypatch, source,
                                                        message):
    path = edited_dao(tmp_path, lambda doc: doc.update(sources=[source]))
    stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
    monkeypatch.setattr(sys, "stderr", stderr)
    assert main(["check", path]) == 2
    stderr.flush()
    line = message.format(dir=tmp_path, at=len(str(tmp_path)) + 1)
    assert stderr.buffer.getvalue() == f"mtsc: error: {line}\n".encode()


def test_internal_error_lines_escape_what_a_terminal_cannot_show(monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("bell\x07 tab\t surrogate\udfff caf\u00e9 x\u00b2")

    monkeypatch.setattr(cli, "run_all", crash)
    stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
    monkeypatch.setattr(sys, "stderr", stderr)
    assert main(["check", str(scenario_path("counter_baseline"))]) == 3
    stderr.flush()
    assert stderr.buffer.getvalue() == ("mtsc: internal error: RuntimeError: "
                                        "bell\\x07 tab\\t surrogate\\udfff "
                                        "caf\u00e9 x\u00b2\n").encode()


def _checks_in(path):
    """(membership tests against RELATIONS, calls of AgentKind, modules
    imported) in the source file at `path`."""
    membership, kind_calls, imported = 0, 0, set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Compare):
            membership += sum(isinstance(op, (ast.In, ast.NotIn))
                              and getattr(right, "id", None) == "RELATIONS"
                              for op, right in zip(node.ops, node.comparators))
        elif isinstance(node, ast.Call):
            func = node.func
            kind_calls += getattr(func, "id", getattr(func, "attr", None)) == "AgentKind"
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    return membership, kind_calls, imported


def test_each_selection_list_is_checked_in_one_module():
    # relation ids are checked in relations.py and actor kinds in agents.py;
    # scenario files, EngineConfig and so the command line go through them
    src = ROOT / "src" / "mtsc"
    checks = {path.relative_to(src).as_posix(): _checks_in(path)
              for path in sorted(src.rglob("*.py"))}
    assert [name for name, (membership, _, _) in checks.items() if membership] == [
        "relations.py"]
    assert [name for name, (_, kind_calls, _) in checks.items() if kind_calls] == [
        "agents.py"]
    assert not checks["cli.py"][2] & {"relations", "agents", "mtsc.relations", "mtsc.agents"}
