"""End-to-end command-line behaviour: exit codes, formats, determinism."""

import hashlib
import json
import sys

import pytest

from mtsc import cli
from mtsc.cli import main
from mtsc.mr_engine import EngineConfig
from mtsc.minisol.parser import MAX_NESTING

from conftest import CORPUS, CORPUS_SCENARIOS, FIXTURES, scenario_path

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
    assert run_cli(capsys, "check", path, "--growth", "1.0")[0] == 2
    assert run_cli(capsys, "check", path, "--mr", "MR9.9")[0] == 2
    assert run_cli(capsys, "check", path, "--mr1-actors", "XYZ")[0] == 2
    assert run_cli(capsys, "check", path, "--car-gas-guard", "100")[0] == 2


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


def test_bench_corrupt_labels_exit_two(tmp_path, capsys):
    labels = tmp_path / "labels.json"
    labels.write_text("{not json")
    code, _, err = run_cli(capsys, "bench", str(CORPUS), str(labels))
    assert code == 2
    assert "labels" in err


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


@pytest.mark.parametrize("jobs", [["--jobs", "1"], []], ids=["serial", "default-jobs"])
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


def test_engine_options_default_to_the_engine_config():
    config = cli._build_config(cli._parse_args(["check", "x.scenario.json"]))
    assert config.engine == EngineConfig()


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


def test_jobs_zero_starts_one_worker_per_core(monkeypatch, capsys):
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
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    assert run_cli(capsys, "bench", str(CORPUS), LABELS, "--jobs", "0")[0] == 0
    assert pools == [3]


def dao_with_target_args(tmp_path, args):
    doc = json.loads(scenario_path("simple_dao_withdraw").read_text())
    doc["target"]["args"] = args
    doc["sources"] = [str(CORPUS / src) for src in doc["sources"]]
    path = tmp_path / "dao.scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


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
