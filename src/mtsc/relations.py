"""The five metamorphic relations, one row each, in the order of README's
relation table: how the follow-up is built, when a pair violates the
relation, and which vulnerability categories a violation reveals.
`relation_ids` checks every list of relation ids (scenario files and
`EngineConfig`), `mr_engine` runs the selected rows in table order, and
`detector` classifies violations by their rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .agents import AgentKind
from .gas_oracle import allocate_increasing, allocate_reducing
from .minisol import ast
from .traces import failed_value_dispatches, value_dispatches

REENTRANCY = "Reentrancy"
GASLESS_SEND = "GaslessSend"
EXCEPTION_DISORDER = "ExceptionDisorder"
CATEGORIES = (REENTRANCY, GASLESS_SEND, EXCEPTION_DISORDER)

MR1_1, MR1_2, MR2_1, MR2_2, MR2_3 = "MR1.1", "MR1.2", "MR2.1", "MR2.2", "MR2.3"


@dataclass(frozen=True)
class Relation:
    mr_id: str
    # follow-up: this agent in place of the EOA, both at the block gas limit;
    # or, when None, the source's kind at each limit of plan(gc, config, block)
    follow_kind: Optional[AgentKind]
    plan: Optional[Callable]
    violated: Callable    # (source, follow-up outcome, follow-up input) -> label or None
    categories: Callable  # violation record -> set of categories
    reports_threshold: bool = False  # a violation's follow-up limit is its gas_threshold


def _status_or_gas_changed(s, f, _follow):
    if s.ok != f.ok:
        return "status mismatch"
    if s.gas_consumed != f.gas_consumed:
        return "gas mismatch"
    return None


def _balance_changed(s, f, _follow):
    if s.ok and f.ok and s.balance_delta != f.balance_delta:
        return "balance mismatch"
    return None


def _dispatch_survived(s, f, follow):
    # vacuous when no value reached the agent's fallback
    if s.ok and f.ok and value_dispatches(f.trace, follow.address):
        return "status mismatch"
    return None


def _reentrant_under_car(v):
    return {REENTRANCY} if v.pair.follow_up.kind == AgentKind.CAR else set()


def _by_failed_call_form(v):
    # a failed value transfer into the agent through the stipend-limited
    # send/transfer path, or through an unchecked low-level call
    failed = failed_value_dispatches(v.pair.follow_outcome.trace, v.pair.follow_up.address)
    forms = {enter.call_form for enter, _ in failed}
    found = set()
    if forms.intersection(ast.STIPEND_ONLY):
        found.add(GASLESS_SEND)
    if "lowcall" in forms:
        found.add(EXCEPTION_DISORDER)
    return found


RELATIONS = {relation.mr_id: relation for relation in (
    Relation(MR1_1, follow_kind=None,
             plan=lambda gc, config, block: allocate_increasing(gc, config.inc_count, block),
             violated=_status_or_gas_changed, categories=_reentrant_under_car),
    Relation(MR1_2, follow_kind=None,
             plan=lambda gc, config, block: allocate_reducing(gc, config.n),
             violated=lambda s, f, follow: "status mismatch" if s.ok and f.ok else None,
             categories=lambda v: {EXCEPTION_DISORDER}, reports_threshold=True),
    Relation(MR2_1, follow_kind=AgentKind.CAH, plan=None,
             violated=_balance_changed, categories=_by_failed_call_form),
    Relation(MR2_2, follow_kind=AgentKind.CAR, plan=None,
             violated=_balance_changed, categories=lambda v: {REENTRANCY}),
    Relation(MR2_3, follow_kind=AgentKind.CAE, plan=None,
             violated=_dispatch_survived, categories=lambda v: {EXCEPTION_DISORDER}),
)}


def relation_ids(names) -> tuple:
    """`names` as a tuple; ValueError names the first that is no relation id."""
    if isinstance(names, str):
        raise ValueError(f"relation ids must be a list, not the string {names!r}")
    names = tuple(names)
    for name in names:
        if not (isinstance(name, str) and name in RELATIONS):  # a list cannot be looked up
            raise ValueError(f"unknown relation {name!r}")
    return names
