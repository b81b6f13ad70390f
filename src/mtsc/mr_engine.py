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
Every input, estimator probe, source or follow-up, runs through
`Environment.run`: it starts from the shared context, restores it
afterwards, and runs once per environment, so an MR2.x pair at the block
gas limit and an MR1.x source at the intrinsic gas reuse the estimator's
outcomes.

Sweeps stop at their first violation. Every run reports its invariance
range (`Outcome.limits`, see the interpreter's "Invariance ranges"
notes): the gas limits at which it gives the same status, consumption
and balance delta. An MR1.x sweep skips the plan limits that lie in the
range of its last follow-up, which held against the source, so they
hold as well, and every follow-up it does run is a real run. Along the
plans of the corpus the outcome changes once or twice, so a sweep runs
one to three pairs whatever `n` is.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .agents import DEFAULT_CAR_GAS_GUARD, AgentKind
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
    car_gas_guard: int = DEFAULT_CAR_GAS_GUARD
    cah_iterations: int = 1
    mr_filter: Optional[tuple] = None         # restricts the scenario's selection
    mr1_actors_override: Optional[tuple] = None


@dataclass
class EngineResult:
    scenario_id: str
    violations: list
    diagnostics: list
    context_digest: str


def mr2_pairs(env: Environment, mrs) -> list:
    """One pair per selected MR2.x relation: the EOA against the relation's
    agent kind, both at the block gas limit."""
    g_ample = env.schedule.block_gas_limit
    eoa = ActorInput(AgentKind.EOA, env.actor_accounts[AgentKind.EOA], g_ample)
    return [TestPair(mr, eoa, ActorInput(kind, env.actor_accounts[kind], g_ample))
            for mr, kind in MR2_FOLLOW_KIND.items() if mr in mrs]


def estimate_kinds(env: Environment, kinds, growth: float) -> list:
    """(kind, estimate) for each distinct kind in order of first mention,
    where the estimate is the IntrinsicGas of the kind's source run, or the
    NeverSucceeds raised when that run fails even at the block gas limit."""
    rows = []
    for kind in dict.fromkeys(kinds):
        try:
            gc = estimate_intrinsic_gas(env.schedule, runner=env.runner_for(kind),
                                        growth=growth)
        except NeverSucceeds as exc:
            gc = exc
        rows.append((kind, gc))
    return rows


def run_pair(env: Environment, pair: TestPair) -> TestPair:
    """Both outcomes of a pair, each run in the environment's context.

    A follow-up's outcome is not kept: a sweep's limits are distinct and
    lie on one side of its source's, MR2.x follow-up kinds are distinct,
    and a block-gas-limit run repeats the estimator's kept first probe.
    """
    source, follow = pair.source, pair.follow_up
    return replace(pair, source_outcome=env.run(source.kind, source.gas_limit),
                   follow_outcome=env.run(follow.kind, follow.gas_limit, keep=False))


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


def _sweep(env: Environment, mr: str, kind: AgentKind, gc: int, plan,
           violations) -> None:
    """Run one MR1.x sweep in order, source at gc and follow-ups along the
    plan, stopping at the first violation. A follow-up limit inside the
    invariance range of the last follow-up run is skipped: that follow-up
    held, and this one would give the same outcome."""
    addr = env.actor_accounts[kind]
    source = ActorInput(kind, addr, gc)
    decided = range(0)
    for g in plan.limits:
        if g in decided:
            continue
        done = run_pair(env, TestPair(mr, source, ActorInput(kind, addr, g)))
        violation = check(done)
        if violation is not None:
            violations.append(violation)
            return
        lo, hi = done.follow_outcome.limits
        if lo <= plan.limits[-1] <= hi:
            return  # plans are monotone: every limit left lies in the range
        decided = range(lo, hi + 1)


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
                _sweep(env, mr, kind, gc, by_mr[mr], violations)
    for pair in mr2_pairs(env, mrs):
        violation = check(run_pair(env, pair))
        if violation is not None:
            violations.append(violation)

    return EngineResult(scenario_id=scenario.scenario_id, violations=violations,
                        diagnostics=diagnostics, context_digest=env.context_digest)
