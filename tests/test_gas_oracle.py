"""Intrinsic-gas estimation and allocation plans."""

import json
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from mtsc.agents import AgentKind
from mtsc.gas_oracle import (
    NeverSucceeds,
    allocate_increasing,
    allocate_reducing,
    default_initial_estimator,
    estimate_intrinsic_gas,
)
from mtsc.minisol import parse
from mtsc.scenario import ALL_ACTOR_KINDS, build_environment, load_scenario
from mtsc.traces import child_frame_gas
from mtsc.vm import FailReason, GasSchedule, Transaction, WorldState, deploy, execute

from conftest import CORPUS_SCENARIOS, scenario_path
from support import (
    clone,
    digest,
    estimate_or_status,
    loop_increasing,
    loop_reducing,
    reference_run,
    tx_runner,
)

S = GasSchedule()


def counting(runner, calls):
    """`runner`, appending each limit it is asked for to `calls`."""
    def run(limit):
        calls.append(limit)
        return runner(limit)
    return run


def nop_setup():
    state = WorldState()
    actor = state.create_eoa(0)
    c = deploy(state, parse("contract C { fn nop() { } }").contracts[0])
    return state, Transaction(actor, S.block_gas_limit, c, "nop", (), 0)


def test_estimate_nop_matches_direct_run():
    state, tx = nop_setup()
    direct = execute(clone(state), tx, S)
    before = digest(state)
    gc = estimate_intrinsic_gas(S, runner=tx_runner(state, tx, S))
    assert gc.value == direct.gas_consumed == 21_100
    assert gc.trials == 1
    assert digest(state) == before


def test_estimate_without_internal_calls_is_exact():
    state, tx = nop_setup()
    assert default_initial_estimator(tx_runner(state, tx, S), S) == 21_100


def test_underestimating_estimator_needs_multiple_trials():
    state, tx = nop_setup()
    gc = estimate_intrinsic_gas(S, runner=tx_runner(state, tx, S),
                                first_limit=S.base_tx)
    assert gc.trials >= 2
    assert gc.value == 21_100


def test_trial_limits_grow_monotonically_until_success(environments):
    env = environments["simple_dao_withdraw"]
    seen = []
    estimate_intrinsic_gas(S, runner=counting(env.runner_for(AgentKind.CAR), seen),
                           first_limit=S.base_tx)
    first_ok = next(i for i, lim in enumerate(seen) if lim >= 57_216)
    growth_phase = seen[: first_ok + 1]
    assert all(a < b for a, b in zip(growth_phase, growth_phase[1:]))


def test_estimate_leaves_state_unchanged(unmemoised, target_runs):
    env = unmemoised("simple_dao_withdraw")
    before = digest(env.state)
    probes = []
    gc = estimate_intrinsic_gas(S, runner=counting(env.runner_for(AgentKind.CAR), probes))
    # the rough estimate's run at the block gas limit, then every probe;
    # the VM runs those that no earlier run's range answered
    assert probes[0] == S.block_gas_limit
    assert len(target_runs) < len(probes) == 1 + gc.trials
    assert digest(env.state) == before


# `reference_run` runs every distinct probe: the probes the ranges answer.
@pytest.mark.parametrize("name", CORPUS_SCENARIOS + ["notifier_ping"])
def test_estimates_match_the_estimator_that_runs_every_probe(environments, target_runs,
                                                             name):
    env = environments.get(name) or build_environment(
        load_scenario(scenario_path(name)), S)
    for kind in ALL_ACTOR_KINDS:
        # one memo of each kind for every case
        ranged, exact = env.fresh(), env.fresh()
        for growth, first in product((1.01, 1.1, 1.5, 2, 3, 1e9),
                                     (None, 1, S.base_tx, 30_000, 100_000)):
            got = estimate_or_status(S, ranged.runner_for(kind), growth, first)
            want = estimate_or_status(S, partial(reference_run, exact, kind), growth, first)
            assert got == want, (kind, growth, first)
        ran = [run for run in target_runs if run[0] is ranged]
        assert len(ran) < sum(run[0] is exact for run in target_runs), kind


# C's self-call recurses until a child runs dry; at 25 000 the top frame
# itself runs dry after its child succeeded, so the run succeeds and
# consumes its whole limit, and would consume the whole of any limit up
# to where the child's path changes
WHOLE_LIMIT_SRC = ("contract C { uint x; fn f0() { lowcall this.g(); } "
                   "fn g() { x = 1; x = 2; x = 3; lowcall this.g(); } }")


def eoa_env(tmp_path, source, function):
    """The environment of a scenario whose target calls `function` of the
    contract C in `source`."""
    (tmp_path / "c.msol").write_text(source)
    path = tmp_path / "c.scenario.json"
    path.write_text(json.dumps({"schema": "scenario-v1", "sources": ["c.msol"],
                                "balances": {}, "target": {"callee": "C",
                                                           "function": function}}))
    return build_environment(load_scenario(path), S)


def vm_limits(target_runs):
    return [limit for _, _, limit, _ in target_runs]


def test_a_success_that_consumed_its_whole_limit_answers_no_probe(tmp_path, target_runs):
    env = eoa_env(tmp_path, WHOLE_LIMIT_SRC, "f0")
    first = env.run(AgentKind.EOA, 25_000)
    assert (first.ok, first.gas_consumed, first.limits) == (True, 25_000, (21_900, 41_899))
    again = env.run(AgentKind.EOA, 30_000)
    assert vm_limits(target_runs) == [25_000, 30_000]
    assert again.ok and again.gas_consumed == 30_000
    # it answers its own limit only
    assert env.run(AgentKind.EOA, 25_000) is first
    assert vm_limits(target_runs) == [25_000, 30_000]


def test_ranges_answer_the_probes_inside_them_only(tmp_path, target_runs):
    env = eoa_env(tmp_path, "contract C { fn f() { require(gasleft() > 50000); } }", "f")
    fail = env.run(AgentKind.EOA, 30_000)
    # out of gas below the range, the require holds above it
    assert (str(fail.status), fail.limits) == ("Failure(RequireFailed)", (21_115, 71_115))
    for inside in (21_115, 50_000, 71_115):
        assert env.run(AgentKind.EOA, inside) is fail
    assert vm_limits(target_runs) == [30_000]
    assert str(env.run(AgentKind.EOA, 21_114).status) == "Failure(OutOfGas)"
    assert env.run(AgentKind.EOA, 71_116).ok
    assert vm_limits(target_runs) == [30_000, 21_114, 71_116]
    # the input's own run, made once when asked for
    own = env.run(AgentKind.EOA, 50_000, own=True)
    assert own is not fail and own.status == fail.status
    assert env.run(AgentKind.EOA, 50_000, own=True) is own
    assert vm_limits(target_runs) == [30_000, 21_114, 71_116, 50_000]


def test_never_succeeds_reports_reason():
    src = "contract C { fn f() { revert(); } }"
    state = WorldState()
    actor = state.create_eoa(0)
    c = deploy(state, parse(src).contracts[0])
    tx = Transaction(actor, S.block_gas_limit, c, "f", (), 0)
    with pytest.raises(NeverSucceeds) as err:
        estimate_intrinsic_gas(S, runner=tx_runner(state, tx, S))
    assert err.value.status.reason == FailReason.REVERT


def test_rough_estimate_understates_internal_call_transactions(environments):
    env = environments["simple_dao_withdraw"]
    rough = default_initial_estimator(env.runner_for(AgentKind.CAH), S)
    gc = estimate_intrinsic_gas(S, runner=env.runner_for(AgentKind.CAH))
    assert rough < gc.value


def test_agent_wrapped_estimates_exceed_eoa(environments):
    # the agent adds its own dispatch overhead on top of the target's cost
    env = environments["simple_dao_withdraw"]
    gc_eoa = estimate_intrinsic_gas(S, runner=env.runner_for(AgentKind.EOA))
    gc_car = estimate_intrinsic_gas(S, runner=env.runner_for(AgentKind.CAR))
    assert gc_eoa.value == 36_216
    assert gc_car.value == 57_216
    assert gc_car.value > gc_eoa.value


def test_gas_reserve_forces_bisection(environments):
    # withdraw_a reserves 2300 gas for its value call: the requirement
    # exceeds the measured consumption by exactly the reserve
    env = environments["simple_dao_withdraw_a"]
    gc = estimate_intrinsic_gas(S, runner=env.runner_for(AgentKind.EOA))
    assert gc.value == 36_216 + 2_300
    at_value = env.run_target(clone(env.state), AgentKind.EOA, gc.value)
    below = env.run_target(clone(env.state), AgentKind.EOA, gc.value - 1)
    assert at_value.ok
    assert below.status.reason == FailReason.OUT_OF_GAS


def test_estimator_observes_interaction_status(environments):
    # the heavy agent cannot take dividend_vault's stipend transfer, so
    # no allocation makes the interaction succeed
    env = environments["dividend_vault_payout"]
    with pytest.raises(NeverSucceeds) as err:
        estimate_intrinsic_gas(S, runner=env.runner_for(AgentKind.CAH))
    assert err.value.status.reason == FailReason.OUT_OF_GAS


def test_child_frame_gas_counts_outermost_low_level_frames():
    env_src = """
    contract Leaf { uint n; fn work() { n += 1; } }
    contract Mid { fn go(t: addr) { require(lowcall t.work()); } }
    contract Top { fn run(m: addr, t: addr) { require(lowcall m.go(t)); } }
    """
    unit = parse(env_src)
    state = WorldState()
    actor = state.create_eoa(0)
    leaf = deploy(state, unit.contract("Leaf"))
    mid = deploy(state, unit.contract("Mid"))
    top = deploy(state, unit.contract("Top"))
    out = execute(state, Transaction(actor, S.block_gas_limit, top, "run",
                                     (mid, leaf), 0), S)
    assert out.ok
    inner = child_frame_gas(out.trace)
    # only Mid's frame counts; Leaf's is nested inside it
    mid_cost = S.dispatch + S.require + S.call_base + (
        S.dispatch + S.sload + S.arith + S.sstore_set)
    assert inner == mid_cost


# -- allocation plans -----------------------------------------------------


def test_increasing_plan_formula():
    plan = allocate_increasing(50_000, count=3, block_gas_limit=30_000_000)
    assert tuple(plan) == (100_000, 150_000, 200_000)
    assert all(b - a >= 50_000 for a, b in zip(plan, plan[1:]))
    assert all(50_000 < g <= 30_000_000 for g in plan)


def test_increasing_plan_minimal_gc():
    assert tuple(allocate_increasing(1, 5, S.block_gas_limit)) == (2, 3, 4, 5, 6)


def test_increasing_plan_empty_above_the_block_limit():
    assert tuple(allocate_increasing(20_000_000, 5, block_gas_limit=30_000_000)) == ()


def test_increasing_plan_truncates_at_block_limit():
    plan = allocate_increasing(10_000_000, count=5, block_gas_limit=30_000_000)
    assert tuple(plan) == (20_000_000, 30_000_000)


def test_reducing_plan_formula():
    plan = allocate_reducing(100_000, n=1000)
    assert plan.step == -100
    assert plan[0] == 99_900
    assert plan[-1] == 0
    assert len(plan) == 1000
    assert all(a - b == 100 for a, b in zip(plan, plan[1:]))
    assert all(0 <= g < 100_000 for g in plan)


def test_reducing_plan_single_step():
    assert tuple(allocate_reducing(10, n=1)) == (0,)


def test_reducing_plan_step_floor():
    assert tuple(allocate_reducing(7, n=1000)) == (6, 5, 4, 3, 2, 1, 0)


@given(gc=st.integers(min_value=1, max_value=50_000),
       count=st.integers(min_value=0, max_value=40),
       block=st.integers(min_value=1, max_value=2_000_000),
       n=st.integers(min_value=1, max_value=100_000))
@settings(deadline=None, max_examples=200)
def test_range_plans_match_the_loop_formulas(gc, count, block, n):
    increasing = allocate_increasing(gc, count, block)
    reducing = allocate_reducing(gc, n)
    assert type(increasing) is range and type(reducing) is range
    assert tuple(increasing) == loop_increasing(gc, count, block)
    assert tuple(reducing) == loop_reducing(gc, n)


def test_plan_argument_validation():
    with pytest.raises(ValueError):
        allocate_increasing(0, 5, S.block_gas_limit)
    with pytest.raises(ValueError):
        allocate_reducing(5, n=0)
    state, tx = nop_setup()
    with pytest.raises(ValueError):
        estimate_intrinsic_gas(S, runner=tx_runner(state, tx, S), growth=1.0)
    with pytest.raises(ValueError):
        estimate_intrinsic_gas(S, runner=tx_runner(state, tx, S), growth=float("nan"))
