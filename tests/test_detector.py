"""Violation classification, benchmark metrics, and report rendering."""

import json

import pytest

from mtsc.agents import AgentKind
from mtsc.detector import (
    Counts,
    UnknownScenario,
    Verdict,
    classify,
    compute_metrics,
    emit_report,
    fdr,
    percent,
    tpr,
)
from mtsc.mr_engine import ActorInput, TestPair, ViolationRecord
from mtsc.relations import (
    CATEGORIES,
    EXCEPTION_DISORDER,
    GASLESS_SEND,
    MR1_1,
    MR1_2,
    MR2_1,
    MR2_2,
    MR2_3,
    REENTRANCY,
)
from mtsc.vm import CallEntered, CallExited, FailReason, Outcome, STATUS_SUCCESS

AGENT = "0xaaaa"


def violation(mr, kind=AgentKind.CAH, trace=(), observed="balance mismatch"):
    out = Outcome(STATUS_SUCCESS, 30_000, 0, tuple(trace))
    pair = TestPair(mr, ActorInput(AgentKind.EOA, "0x0002", 100),
                    ActorInput(kind, AGENT, 100),
                    source_outcome=out, follow_outcome=out)
    return ViolationRecord(mr, pair, observed)


def failed_transfer(form):
    return (
        CallEntered(form, AGENT, None, 1_000, 2_300, 1),
        CallExited(False, 2_300, FailReason.OUT_OF_GAS, 2_300, 1),
    )


# -- classification ------------------------------------------------------------


def test_mr22_means_reentrancy():
    assert classify([violation(MR2_2, kind=AgentKind.CAR)]) == (REENTRANCY,)


def test_mr11_with_recursive_agent_means_reentrancy():
    assert classify([violation(MR1_1, kind=AgentKind.CAR,
                               observed="gas mismatch")]) == (REENTRANCY,)
    assert classify([violation(MR1_1, kind=AgentKind.EOA,
                               observed="gas mismatch")]) == ()


def test_mr21_send_path_means_gasless_send():
    v = violation(MR2_1, trace=failed_transfer("send"))
    assert classify([v]) == (GASLESS_SEND,)
    v = violation(MR2_1, trace=failed_transfer("transfer"))
    assert classify([v]) == (GASLESS_SEND,)


def test_mr21_lowcall_path_means_exception_disorder():
    v = violation(MR2_1, trace=failed_transfer("lowcall"))
    assert classify([v]) == (EXCEPTION_DISORDER,)


def test_mr23_and_mr12_mean_exception_disorder():
    assert classify([violation(MR2_3, kind=AgentKind.CAE,
                               observed="status mismatch")]) == (EXCEPTION_DISORDER,)
    assert classify([violation(MR1_2, kind=AgentKind.EOA,
                               observed="status mismatch")]) == (EXCEPTION_DISORDER,)


def test_no_violations_is_not_vulnerable():
    assert classify([]) == ()
    verdict = Verdict("x", (), ())
    assert not verdict.vulnerable


def test_classification_is_monotone():
    pool = [
        violation(MR2_2, kind=AgentKind.CAR),
        violation(MR2_1, trace=failed_transfer("send")),
        violation(MR2_3, kind=AgentKind.CAE, observed="status mismatch"),
    ]
    seen = set()
    for i in range(len(pool) + 1):
        cats = set(classify(pool[:i]))
        assert seen <= cats
        seen = cats
    assert seen == set(CATEGORIES)


# -- metrics ------------------------------------------------------------------


def test_ratio_helpers_match_published_rows():
    assert percent(tpr(30, 8)) == "78.95%"
    assert percent(fdr(38, 29)) == "43.28%"
    assert percent(fdr(30, 3)) == "9.09%"
    assert percent(tpr(38, 0)) == "100.00%"
    assert percent(fdr(38, 0)) == "0.00%"


def _verdicts(flagged: int, total: int, category=REENTRANCY):
    verdicts, labels = [], {}
    for i in range(total):
        sid = f"s{i:03d}"
        labels[sid] = [category]
        cats = (category,) if i < flagged else ()
        verdicts.append(Verdict(sid, (), cats))
    return verdicts, labels


def test_compute_metrics_counts_misses():
    verdicts, labels = _verdicts(flagged=30, total=38)
    report = compute_metrics(verdicts, labels)
    assert report.totals == Counts(tp=30, fp=0, fn=8)
    assert percent(report.tpr) == "78.95%"
    assert percent(report.fdr) == "0.00%"


def test_compute_metrics_counts_false_positives():
    verdicts, labels = _verdicts(flagged=38, total=38)
    for i in range(29):
        sid = f"fp{i:03d}"
        labels[sid] = []
        verdicts.append(Verdict(sid, (), (REENTRANCY,)))
    report = compute_metrics(verdicts, labels)
    assert report.totals == Counts(tp=38, fp=29, fn=0)
    assert percent(report.tpr) == "100.00%"
    assert percent(report.fdr) == "43.28%"


def test_category_level_matching():
    # a flagged category counts against its own label only
    verdicts = [Verdict("a", (), (GASLESS_SEND,))]
    labels = {"a": [EXCEPTION_DISORDER]}
    report = compute_metrics(verdicts, labels)
    assert report.per_category[GASLESS_SEND] == Counts(tp=0, fp=1, fn=0)
    assert report.per_category[EXCEPTION_DISORDER] == Counts(tp=0, fp=0, fn=1)


def test_totals_identity_against_labeled_positives():
    verdicts, labels = _verdicts(flagged=5, total=9)
    report = compute_metrics(verdicts, labels)
    labeled = sum(len(v) for v in labels.values())
    assert report.totals.tp + report.totals.fn == labeled


def test_degenerate_denominators():
    report = compute_metrics([Verdict("a", (), ())], {"a": []})
    assert report.tpr is None and percent(report.tpr) == "n/a"
    assert report.fdr == 0.0 and report.fdr_degenerate


def test_unknown_scenario_rejected():
    with pytest.raises(UnknownScenario):
        compute_metrics([Verdict("mystery", (), ())], {})


# -- reports ------------------------------------------------------------------


def test_empty_report_is_valid():
    text = emit_report([], fmt="text")
    assert text == "\n"
    doc = json.loads(emit_report([], fmt="json"))
    assert doc["schema"] == "report-v1"
    assert doc["verdicts"] == []
    assert doc["metrics"] is None


def test_report_is_deterministic():
    v = Verdict("a", (violation(MR2_1, trace=failed_transfer("send")),),
                (GASLESS_SEND,))
    metrics = compute_metrics([v], {"a": [GASLESS_SEND]})
    first = emit_report([v], metrics, fmt="json")
    second = emit_report([v], metrics, fmt="json")
    assert first == second


def test_json_report_carries_violation_details():
    v = Verdict("a", (violation(MR2_1, trace=failed_transfer("send")),),
                (GASLESS_SEND,))
    doc = json.loads(emit_report([v], fmt="json"))
    entry = doc["verdicts"][0]
    assert entry["vulnerable"] is True
    assert entry["categories"] == [GASLESS_SEND]
    record = entry["violations"][0]
    assert record["mr"] == MR2_1
    assert record["observed"] == "balance mismatch"
    assert record["source"]["actor_kind"] == "EOA"
    assert record["follow_up"]["actor_kind"] == "CAH"
    assert record["follow_up_trace_excerpt"]


def test_text_report_includes_threshold():
    pair = violation(MR1_2, kind=AgentKind.EOA, observed="status mismatch").pair
    v = Verdict("a", (ViolationRecord(MR1_2, pair, "status mismatch",
                                      gas_threshold=42_000),),
                (EXCEPTION_DISORDER,))
    text = emit_report([v], fmt="text")
    assert "gas_threshold=42000" in text
    assert "VULNERABLE" in text
