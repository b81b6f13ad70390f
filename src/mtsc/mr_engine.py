"""Construction, execution, and checking of metamorphic test pairs.

Five relations over transaction outcomes drive the detector:

* MR1.1 - same account, increased gas limit: status and gas consumption
  must not change.
* MR1.2 - same account, reduced gas limit: the follow-up must fail; a
  success below the intrinsic requirement means required work was
  silently skipped.
* MR2.1 / MR2.2 - EOA swapped for a heavy-fallback (CAH) or recursive
  (CAR) agent at the same ample gas limit: when both runs succeed their
  balance deltas must match.
* MR2.3 - EOA swapped for a reverting-fallback agent (CAE): a value
  transfer into the reverting fallback must fail the interaction; equal
  success statuses violate the relation. Runs in which no value ever
  reaches the agent's fallback are vacuous and never violate.

Gas-limit relations (MR1.x) re-estimate the intrinsic cost per actor
kind, since an agent wrapper adds its own overhead; account-switching
relations (MR2.x) run source and follow-up at the block gas limit.
Every run starts from the same snapshotted context and restores it
afterwards; source outcomes are reused across the pairs of an
environment.

Sweeps stop at their first violation, and an MR1.x sweep also stops
after its first pair when the source outcome is gas-certified
(`agents.gas_certified`): the run read no `gasleft` and let no starved
child failure be swallowed where the gas limit reaches. Such a source
keeps its status and consumption at every higher limit, so no MR1.1
follow-up can differ, and it succeeds on an upward-closed set of limits,
so when the largest MR1.2 follow-up fails every smaller one fails too.
Sweeps whose source reads `gasleft` or swallows a forward-all call that
needs more than its stipend (CAR re-entry, a heavy fallback behind an
unbounded `lowcall`) run pair by pair.

Such an MR1.2 sweep stops at its first follow-up that is a gas-certified
failure: the run read no `gasleft` and swallowed no forward-all child
that succeeded while needing more than its stipend grant, where the gas
limit reaches. It fails at every lower limit, and the plan's limits
descend. MR1.1 limits ascend and get no such cut.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .agents import AgentKind, gas_certified
from .gas_oracle import (
    NeverSucceeds,
    allocate_increasing,
    allocate_reducing,
    estimate_intrinsic_gas,
)
from .scenario import ALL_MRS, Environment, Scenario, build_environment
from .traces import value_dispatches
from .vm import GasSchedule, Outcome

MR1_1, MR1_2, MR2_1, MR2_2, MR2_3 = ALL_MRS

MR2_FOLLOW_KIND = {MR2_1: AgentKind.CAH, MR2_2: AgentKind.CAR, MR2_3: AgentKind.CAE}

STATUS_MISMATCH = "status mismatch"
GAS_MISMATCH = "gas mismatch"
BALANCE_MISMATCH = "balance mismatch"


@dataclass(frozen=True)
class ActorInput:
    kind: AgentKind
    address: str
    gas_limit: int


@dataclass(frozen=True)
class TestPair:
    __test__ = False  # keep pytest from collecting the dataclass

    mr_id: str
    source: ActorInput
    follow_up: ActorInput
    source_outcome: Optional[Outcome] = None
    follow_outcome: Optional[Outcome] = None


@dataclass(frozen=True)
class ViolationRecord:
    mr_id: str
    pair: TestPair
    observed: str
    gas_threshold: Optional[int] = None


@dataclass(frozen=True)
class Diagnostic:
    scope: str
    message: str


@dataclass(frozen=True)
class EngineConfig:
    n: int = 1000                 # reducing-plan subdivisions
    inc_count: int = 5            # increasing follow-ups per sweep
    growth: float = 1.5           # estimator growth factor
    car_gas_guard: int = 50_000
    cah_iterations: int = 1
    mr_filter: Optional[tuple] = None         # restricts the scenario's selection
    mr1_actors_override: Optional[tuple] = None


@dataclass
class EngineResult:
    scenario_id: str
    violations: list
    diagnostics: list
    context_digest: str


def sweep_pairs(env: Environment, mr: str, kind: AgentKind, gc: int, plan):
    """Lazily yield one MR1.x sweep: source at gc, follow-ups along the plan."""
    addr = env.actor_accounts[kind]
    source = ActorInput(kind, addr, gc)
    for g in plan.limits:
        yield TestPair(mr, source, ActorInput(kind, addr, g))


def mr2_pairs(env: Environment, mrs) -> list:
    """One pair per selected MR2.x relation: the EOA against the relation's
    agent kind, both at the block gas limit."""
    g_ample = env.schedule.block_gas_limit
    eoa = ActorInput(AgentKind.EOA, env.actor_accounts[AgentKind.EOA], g_ample)
    return [TestPair(mr, eoa, ActorInput(kind, env.actor_accounts[kind], g_ample))
            for mr, kind in MR2_FOLLOW_KIND.items() if mr in mrs]


def build_pairs(env: Environment, estimates: dict, plans: dict,
                mrs, mr1_actors) -> list:
    """Every pair of the selected relations, with each sweep built in full.

    estimates/plans map actor kinds to their IntrinsicGas and
    (increasing, reducing) plans; kinds without an estimate are skipped.
    """
    pairs = []
    for kind in mr1_actors:
        if kind in estimates:
            for mr, plan in zip((MR1_1, MR1_2), plans[kind]):
                if mr in mrs:
                    pairs.extend(sweep_pairs(env, mr, kind, estimates[kind].value,
                                             plan))
    return pairs + mr2_pairs(env, mrs)


def estimate_kinds(env: Environment, kinds, growth: float) -> list:
    """(kind, estimate) for each distinct kind in order of first mention,
    where the estimate is the IntrinsicGas of the kind's source run, or the
    NeverSucceeds raised when that run fails even at the block gas limit."""
    rows = []
    for kind in dict.fromkeys(kinds):
        try:
            gc = estimate_intrinsic_gas(env.state, None, env.schedule,
                                        growth=growth, runner=env.runner_for(kind))
        except NeverSucceeds as exc:
            gc = exc
        rows.append((kind, gc))
    return rows


def _run_in_context(env: Environment, actor: ActorInput) -> Outcome:
    state = env.state
    sid = state.snapshot()
    try:
        return env.run_target(state, actor.kind, actor.gas_limit)
    finally:
        state.restore(sid)


def run_pair(env: Environment, pair: TestPair) -> TestPair:
    """Execute both inputs of a pair against the identical context.

    Every run starts from the restored context and execution is
    deterministic, so a source input's outcome is computed once per
    environment and reused by every pair that shares it.
    """
    key = (pair.source.kind, pair.source.gas_limit)
    src = env.source_outcomes.get(key)
    if src is None:
        src = env.source_outcomes[key] = _run_in_context(env, pair.source)
    follow = _run_in_context(env, pair.follow_up)
    return replace(pair, source_outcome=src, follow_outcome=follow)


def check(pair: TestPair) -> Optional[ViolationRecord]:
    """Evaluate a pair's output relation; None when the relation holds."""
    s, f = pair.source_outcome, pair.follow_outcome
    mr = pair.mr_id
    if mr == MR1_1:
        if s.ok != f.ok:
            return ViolationRecord(mr, pair, STATUS_MISMATCH)
        if s.gas_consumed != f.gas_consumed:
            return ViolationRecord(mr, pair, GAS_MISMATCH)
        return None
    if mr == MR1_2:
        if s.ok and f.ok:
            return ViolationRecord(mr, pair, STATUS_MISMATCH,
                                   gas_threshold=pair.follow_up.gas_limit)
        return None
    if mr in (MR2_1, MR2_2):
        if s.ok and f.ok and s.balance_delta != f.balance_delta:
            return ViolationRecord(mr, pair, BALANCE_MISMATCH)
        return None
    if mr == MR2_3:
        if s.ok and f.ok and value_dispatches(f.trace, pair.follow_up.address):
            return ViolationRecord(mr, pair, STATUS_MISMATCH)
        return None
    raise ValueError(f"unknown relation {mr!r}")


def _sweep(env: Environment, pairs, violations) -> None:
    """Run an MR1.x sweep in order, stopping at the first violation, after
    the first pair whose source outcome is a gas-certified success, or at
    the first MR1.2 follow-up that is a gas-certified failure."""
    for pair in pairs:
        done = run_pair(env, pair)
        violation = check(done)
        if violation is not None:
            violations.append(violation)
            return
        kind, source, follow = pair.source.kind, done.source_outcome, done.follow_outcome
        if source.ok and gas_certified(kind, source):
            return
        # MR1.2 limits descend, so every later follow-up fails as well
        if pair.mr_id == MR1_2 and not follow.ok and gas_certified(kind, follow):
            return


def run_all(scenario: Scenario, schedule: GasSchedule,
            config: EngineConfig = EngineConfig()) -> EngineResult:
    """Full pipeline for one scenario: deploy, estimate, build, run, check."""
    env = build_environment(scenario, schedule,
                            car_gas_guard=config.car_gas_guard,
                            cah_iterations=config.cah_iterations)
    mrs = tuple(m for m in scenario.mrs
                if config.mr_filter is None or m in config.mr_filter)

    violations: list = []
    diagnostics: list = []

    plans: dict = {}  # kind -> (intrinsic gas, {MR1.1: plan, MR1.2: plan})
    if MR1_1 in mrs or MR1_2 in mrs:
        mr1_actors = config.mr1_actors_override or scenario.mr1_actors
        for kind, gc in estimate_kinds(env, mr1_actors, config.growth):
            if isinstance(gc, NeverSucceeds):
                diagnostics.append(Diagnostic(
                    f"MR1.x/{kind.value}",
                    f"estimate unavailable, source run never succeeds: {gc.status}"))
                continue
            increasing = allocate_increasing(gc.value, config.inc_count,
                                             schedule.block_gas_limit)
            if increasing.warning:
                diagnostics.append(Diagnostic(f"MR1.1/{kind.value}", increasing.warning))
            plans[kind] = (gc.value, {MR1_1: increasing,
                                      MR1_2: allocate_reducing(gc.value, config.n)})

    for mr in (MR1_1, MR1_2):
        if mr in mrs:
            for kind, (gc, by_mr) in plans.items():
                _sweep(env, sweep_pairs(env, mr, kind, gc, by_mr[mr]), violations)
    for pair in mr2_pairs(env, mrs):
        violation = check(run_pair(env, pair))
        if violation is not None:
            violations.append(violation)

    return EngineResult(scenario_id=scenario.scenario_id, violations=violations,
                        diagnostics=diagnostics, context_digest=env.context_digest)
