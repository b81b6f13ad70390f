"""Lean target runs against full ones, and the trace walkers against their
references.

A lean run keeps op events only among the last `TAIL` events of its
trace; everything else about its outcome is the full run's. The walkers
read call events, which both kinds of run keep in full.
"""

import pytest
from hypothesis import given, settings, strategies as st

from mtsc.agents import AgentKind
from mtsc.scenario import ALL_ACTOR_KINDS
from mtsc.traces import LOW_LEVEL_FORMS, child_frame_gas
from mtsc.vm import (TAIL, CallEntered, CallExited, ExceptionSwallowed, FailReason,
                     GasSchedule, OpExecuted)

from conftest import CORPUS_SCENARIOS
from support import assert_lean_matches_full, reference_child_frame_gas

S = GasSchedule()
# below and at the base fee, around the corpus estimates, and up to the block
LIMITS = (0, 20_999, 21_000, 25_000, 30_000, 40_000, 60_000, 100_000, 250_000,
          1_000_000, S.block_gas_limit)


def lean_and_full(env, kind, limit):
    return tuple(env.run_target(env.state.clone(), kind, limit, ops=ops)
                 for ops in (False, True))


@pytest.mark.parametrize("name", CORPUS_SCENARIOS)
def test_lean_runs_match_full_runs_on_the_corpus(environments, name):
    env = environments[name]
    for kind in ALL_ACTOR_KINDS:
        for limit in LIMITS:
            assert_lean_matches_full(*lean_and_full(env, kind, limit))


def test_the_kept_car_block_limit_outcome_holds_only_tail_ops(unmemoised):
    env = unmemoised("simple_dao_withdraw")
    out = env.run(AgentKind.CAR, S.block_gas_limit)
    assert env.run(AgentKind.CAR, S.block_gas_limit) is out  # the kept outcome
    ops = sum(type(ev) is OpExecuted for ev in out.trace)
    assert ops <= TAIL
    # the recursion's call events are all there
    assert sum(type(ev) is CallEntered for ev in out.trace) > 100


# -- child_frame_gas against its reference ------------------------------------

FORMS = ("lowcall", "dcall", "send", "transfer")


@pytest.mark.parametrize("name", CORPUS_SCENARIOS)
def test_child_frame_gas_matches_its_reference_on_corpus_traces(environments, name):
    env = environments[name]
    for kind in ALL_ACTOR_KINDS:
        for limit in LIMITS:
            for out in lean_and_full(env, kind, limit):
                for forms in (LOW_LEVEL_FORMS, ("dcall",), FORMS):
                    assert child_frame_gas(out.trace, forms) \
                        == reference_child_frame_gas(out.trace, forms), (kind, limit)


# A call: (form, gas used, whether it swallows a failure, its children).
calls = st.recursive(
    st.tuples(st.sampled_from(FORMS), st.integers(0, 10**6), st.booleans(), st.just(())),
    lambda children: st.tuples(st.sampled_from(FORMS), st.integers(0, 10**6),
                               st.booleans(), st.lists(children, max_size=3).map(tuple)),
    max_leaves=40)


def flatten(call, depth, out):
    """The events of `call` made from a frame at `depth`, with an op before
    the call and, when it swallows, a failed exit and its swallow event."""
    form, gas, swallows, children = call
    out.append(OpExecuted("call_base", 700, depth))
    out.append(CallEntered(form, "0x0001", None, 0, gas, depth))
    for child in children:
        flatten(child, depth + 1, out)
    reason = FailReason.REVERT if swallows else None
    out.append(CallExited(not swallows, gas, reason, 0, depth))
    if swallows:
        out.append(ExceptionSwallowed(FailReason.REVERT, depth))
    return out


@given(top=st.lists(calls, max_size=4),
       forms=st.sampled_from([LOW_LEVEL_FORMS, ("dcall",), ("send", "transfer"), FORMS, ()]))
@settings(deadline=None, max_examples=300)
def test_child_frame_gas_matches_its_reference_on_generated_nestings(top, forms):
    trace = []
    for call in top:
        flatten(call, 0, trace)
    assert child_frame_gas(trace, forms) == reference_child_frame_gas(trace, forms)
