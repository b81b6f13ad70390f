"""Mapping of relation violations to vulnerability categories (by the rows
of `relations.RELATIONS`), benchmark metrics, and report rendering.
`mr_engine.run_all` builds each scenario's `Verdict`."""

from __future__ import annotations

import json
from typing import NamedTuple, Optional

from .inputs import InputError
from .relations import CATEGORIES, RELATIONS
from .vm import TAIL

REPORT_SCHEMA = "report-v1"


class Verdict(NamedTuple):
    scenario_id: str
    violations: tuple
    categories: tuple           # sorted subset of CATEGORIES
    diagnostics: tuple = ()     # "scope: message" per sweep skipped

    @property
    def vulnerable(self) -> bool:
        return bool(self.categories)


def classify(violations) -> tuple:
    """Derive vulnerability categories from violation records."""
    found = set()
    for v in violations:
        found |= RELATIONS[v.pair.mr_id].categories(v)
    return tuple(sorted(found))


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------


class Counts(NamedTuple):
    tp: int = 0
    fp: int = 0
    fn: int = 0


def tpr(tp: int, fn: int) -> Optional[float]:
    """True-positive rate TP/(TP+FN); None when nothing is labeled positive."""
    return tp / (tp + fn) if tp + fn else None


def fdr(tp: int, fp: int) -> float:
    """False-discovery rate FP/(TP+FP); flagging nothing misreports nothing."""
    return fp / (tp + fp) if tp + fp else 0.0


def percent(ratio: Optional[float]) -> str:
    return "n/a" if ratio is None else f"{ratio * 100:.2f}%"


class MetricsReport(NamedTuple):
    per_category: dict  # category -> Counts

    @property
    def totals(self) -> Counts:
        return Counts(*map(sum, zip(*self.per_category.values())))

    # the rates call this module's functions of the same names
    @property
    def tpr(self) -> Optional[float]:
        return tpr(self.totals.tp, self.totals.fn)

    @property
    def fdr(self) -> float:
        return fdr(self.totals.tp, self.totals.fp)

    @property
    def fdr_degenerate(self) -> bool:  # no positives flagged at all
        return self.totals.tp + self.totals.fp == 0


def check_labels(labels, scenario_ids) -> None:
    """Reject labels that cannot score exactly the scenarios `scenario_ids`:
    not a map of category lists, an unknown category, a scenario without a
    label, or a label without a scenario."""
    if not isinstance(labels, dict) or not all(
            isinstance(v, list) for v in labels.values()):
        raise InputError("labels must map scenario ids to category lists")
    for sid, categories in labels.items():
        for category in categories:
            if category not in CATEGORIES:
                raise InputError(f"unknown category {category!r} in the labels of {sid!r}")
    for sid in scenario_ids:
        if sid not in labels:
            raise InputError(f"no label for scenario {sid!r}")
    scored = set(scenario_ids)
    for sid in labels:
        if sid not in scored:
            raise InputError(f"no scenario for label {sid!r}")


def compute_metrics(verdicts, labels: dict) -> MetricsReport:
    """Score verdicts against ground-truth labels, per category and total."""
    check_labels(labels, [verdict.scenario_id for verdict in verdicts])
    per: dict[str, Counts] = {}
    for cat in CATEGORIES:
        tp = fp = fn = 0
        for verdict in verdicts:
            flagged = cat in verdict.categories
            labeled = cat in labels[verdict.scenario_id]
            if flagged and labeled:
                tp += 1
            elif flagged and not labeled:
                fp += 1
            elif labeled and not flagged:
                fn += 1
        per[cat] = Counts(tp, fp, fn)
    return MetricsReport(per)


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------

def _outcome_obj(actor_input, outcome):
    return {
        "actor_kind": actor_input.kind.value,
        "gas_limit": actor_input.gas_limit,
        "status": str(outcome.status),
        "gas_consumed": outcome.gas_consumed,
        "balance_delta": outcome.balance_delta,
    }


def _violation_obj(v):
    excerpt = [repr(ev) for ev in v.pair.follow_outcome.trace[-TAIL:]]
    return {
        "mr": v.pair.mr_id,
        "observed": v.observed,
        "source": _outcome_obj(v.pair.source, v.pair.source_outcome),
        "follow_up": _outcome_obj(v.pair.follow_up, v.pair.follow_outcome),
        "gas_threshold": v.gas_threshold,
        "follow_up_trace_excerpt": excerpt,
    }


def _metrics_obj(metrics: MetricsReport):
    obj = {
        cat: {"tp": c.tp, "fp": c.fp, "fn": c.fn}
        for cat, c in metrics.per_category.items()
    }
    return {
        "per_category": obj,
        "totals": {"tp": metrics.totals.tp, "fp": metrics.totals.fp,
                   "fn": metrics.totals.fn},
        "tpr": percent(metrics.tpr),
        "fdr": percent(metrics.fdr),
        "fdr_degenerate": metrics.fdr_degenerate,
    }


def emit_report(verdicts, metrics: Optional[MetricsReport] = None,
                fmt: str = "text") -> str:
    """Render verdicts (and optional metrics) deterministically."""
    if fmt == "json":
        doc = {
            "schema": REPORT_SCHEMA,
            "verdicts": [
                {
                    "scenario": v.scenario_id,
                    "vulnerable": v.vulnerable,
                    "categories": list(v.categories),
                    "violations": [_violation_obj(x) for x in v.violations],
                    "diagnostics": list(v.diagnostics),
                }
                for v in verdicts
            ],
            "metrics": _metrics_obj(metrics) if metrics else None,
        }
        return json.dumps(doc, indent=2) + "\n"

    lines = []
    for v in verdicts:
        flag = "VULNERABLE" if v.vulnerable else "ok"
        cats = ", ".join(v.categories) if v.categories else "-"
        lines.append(f"{v.scenario_id}: {flag} [{cats}]")
        for x in v.violations:
            extra = f", gas_threshold={x.gas_threshold}" if x.gas_threshold is not None else ""
            lines.append(
                f"  {x.pair.mr_id} violated ({x.observed}{extra}): "
                f"{x.pair.follow_up.kind.value}@{x.pair.follow_up.gas_limit} -> "
                f"{x.pair.follow_outcome.status}, "
                f"gas={x.pair.follow_outcome.gas_consumed}, "
                f"delta={x.pair.follow_outcome.balance_delta} "
                f"(source {x.pair.source_outcome.status}, "
                f"gas={x.pair.source_outcome.gas_consumed}, "
                f"delta={x.pair.source_outcome.balance_delta})")
        for d in v.diagnostics:
            lines.append(f"  note {d}")
    if metrics is not None:
        lines.append("")
        lines.append("category            TP  FP  FN")
        for cat, c in metrics.per_category.items():
            lines.append(f"{cat:<18} {c.tp:>3} {c.fp:>3} {c.fn:>3}")
        t = metrics.totals
        lines.append(f"{'total':<18} {t.tp:>3} {t.fp:>3} {t.fn:>3}")
        note = "  (no positives flagged)" if metrics.fdr_degenerate else ""
        lines.append(f"TPR {percent(metrics.tpr)}  FDR {percent(metrics.fdr)}{note}")
    return "\n".join(lines) + "\n"
