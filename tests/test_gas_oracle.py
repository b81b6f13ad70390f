"""Intrinsic-gas estimation and allocation plans."""

import pytest

from mtsc.agents import AgentKind
from mtsc.gas_oracle import (
    NeverSucceeds,
    allocate_increasing,
    allocate_reducing,
    default_initial_estimator,
    estimate_intrinsic_gas,
)
from mtsc.minisol import parse
from mtsc.traces import child_frame_gas
from mtsc.vm import FailReason, GasSchedule, Transaction, WorldState, deploy, execute

from support import tx_runner

S = GasSchedule()


def nop_setup():
    state = WorldState()
    actor = state.create_eoa(0)
    c = deploy(state, parse("contract C { fn nop() { } }").contracts[0])
    return state, Transaction(actor, S.block_gas_limit, c, "nop", (), 0)


def test_estimate_nop_matches_direct_run():
    state, tx = nop_setup()
    direct = execute(state.clone(), tx, S)
    before = state.digest()
    gc = estimate_intrinsic_gas(S, runner=tx_runner(state, tx, S))
    assert gc.value == direct.gas_consumed == 21_100
    assert gc.trials == 1
    assert gc.converged
    assert state.digest() == before


def test_estimate_without_internal_calls_is_exact():
    state, tx = nop_setup()
    assert default_initial_estimator(tx_runner(state, tx, S), S) == 21_100


def test_underestimating_estimator_needs_multiple_trials():
    state, tx = nop_setup()
    gc = estimate_intrinsic_gas(S, runner=tx_runner(state, tx, S),
                                first_limit=S.base_tx)
    assert gc.trials >= 2
    assert gc.converged
    assert gc.value == 21_100


def test_trial_limits_grow_monotonically_until_success(environments):
    env = environments["simple_dao_withdraw"]
    seen = []
    inner = env.runner_for(AgentKind.CAR)

    def recording(limit):
        seen.append(limit)
        return inner(limit)

    estimate_intrinsic_gas(S, runner=recording, first_limit=S.base_tx)
    first_ok = next(i for i, lim in enumerate(seen) if lim >= 57_216)
    growth_phase = seen[: first_ok + 1]
    assert all(a < b for a, b in zip(growth_phase, growth_phase[1:]))


def test_estimate_leaves_state_unchanged(unmemoised, target_runs):
    env = unmemoised("simple_dao_withdraw")
    before = env.state.digest()
    gc = estimate_intrinsic_gas(S, runner=env.runner_for(AgentKind.CAR))
    # the rough estimate's run at the block gas limit, then every probe
    assert len(target_runs) == 1 + gc.trials
    assert env.state.digest() == before


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
    assert gc.converged
    at_value = env.run_target(env.state.clone(), AgentKind.EOA, gc.value)
    below = env.run_target(env.state.clone(), AgentKind.EOA, gc.value - 1)
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
    assert plan.limits == (100_000, 150_000, 200_000)
    assert plan.direction == "Increasing"
    assert plan.warning is None
    assert all(b - a >= 50_000 for a, b in zip(plan.limits, plan.limits[1:]))
    assert all(50_000 < g <= 30_000_000 for g in plan.limits)


def test_increasing_plan_minimal_gc():
    assert allocate_increasing(1).limits == (2, 3, 4, 5, 6)


def test_increasing_plan_empty_with_warning():
    plan = allocate_increasing(20_000_000, block_gas_limit=30_000_000)
    assert plan.limits == ()
    assert plan.warning


def test_increasing_plan_truncates_at_block_limit():
    plan = allocate_increasing(10_000_000, count=5, block_gas_limit=30_000_000)
    assert plan.limits == (20_000_000, 30_000_000)


def test_reducing_plan_formula():
    plan = allocate_reducing(100_000, n=1000)
    assert plan.step == 100
    assert plan.limits[0] == 99_900
    assert plan.limits[-1] == 0
    assert len(plan.limits) == 1000
    assert all(a - b == 100 for a, b in zip(plan.limits, plan.limits[1:]))
    assert all(0 <= g < 100_000 for g in plan.limits)


def test_reducing_plan_single_step():
    assert allocate_reducing(10, n=1).limits == (0,)


def test_reducing_plan_step_floor():
    assert allocate_reducing(7, n=1000).limits == (6, 5, 4, 3, 2, 1, 0)


def test_plan_argument_validation():
    with pytest.raises(ValueError):
        allocate_increasing(0)
    with pytest.raises(ValueError):
        allocate_reducing(5, n=0)
    state, tx = nop_setup()
    with pytest.raises(ValueError):
        estimate_intrinsic_gas(S, runner=tx_runner(state, tx, S), growth=1.0)
