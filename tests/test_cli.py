"""End-to-end command-line behaviour: exit codes, formats, determinism."""

import argparse
import hashlib
import json
import os
import subprocess
import sys

import pytest

from mtsc import cli
from mtsc.cli import Config, main
from mtsc.mr_engine import EngineConfig
from mtsc.minisol.parser import MAX_NESTING
from mtsc.scenario import load_scenario
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
    config = cli._build_config(cli._parse_args(["check", "x.scenario.json"]))
    assert config.engine == EngineConfig()


def test_check_help_shows_the_engine_config_defaults(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["check", "--help"])
    assert exit_.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for flag, value in [("--n N", EngineConfig.n),
                        ("--inc-count INC_COUNT", EngineConfig.inc_count),
                        ("--growth GROWTH", EngineConfig.growth),
                        ("--car-gas-guard CAR_GAS_GUARD", EngineConfig.car_gas_guard),
                        ("--cah-iterations CAH_ITERATIONS", EngineConfig.cah_iterations)]:
        assert f"{flag} " in text and f"(default {value})" in text, flag


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
    first = cli._parse_args(["check", "x", "--mr", "MR2.1", "--format", "json"])
    assert (first.mr, first.fmt) == ("MR2.1", "json")
    second = cli._parse_args(["check", "x"])
    assert (second.mr, second.fmt) == (None, "text")
    cli._parse_args(["bench", "d", "l", "--jobs", "4", "--mr1-actors", "CAR"])
    third = cli._parse_args(["estimate", "x"])
    assert (third.jobs, third.mr1_actors, hasattr(third, "dir")) == (Config.jobs, None, False)


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
# load and get a verdict.
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
    path = edited_dao(tmp_path, lambda doc: AMOUNTS[where](doc, UINT_MAX))
    load_scenario(path)


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
