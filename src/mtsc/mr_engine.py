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
Sweeps stop at their first violation. Every run starts from the same
snapshotted context and restores it afterwards; source outcomes are
reused across the pairs of an environment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .agents import AgentKind
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


def build_pairs(env: Environment, estimates: dict, plans: dict,
                mrs, mr1_actors) -> list:
    """Assemble pair inputs for the selected relations.

    estimates/plans map actor kinds to their IntrinsicGas and
    (increasing, reducing) plans; kinds without an estimate are skipped.
    MR2.x pairs compare the EOA against the relation's agent kind at the
    block gas limit.
    """
    pairs = []
    g_ample = env.schedule.block_gas_limit
    for kind in mr1_actors:
        if kind not in estimates:
            continue
        gc = estimates[kind].value
        addr = env.actor_accounts[kind]
        increasing, reducing = plans[kind]
        if MR1_1 in mrs:
            for g in increasing.limits:
                pairs.append(TestPair(MR1_1, ActorInput(kind, addr, gc),
                                      ActorInput(kind, addr, g)))
        if MR1_2 in mrs:
            for g in reducing.limits:
                pairs.append(TestPair(MR1_2, ActorInput(kind, addr, gc),
                                      ActorInput(kind, addr, g)))
    eoa = env.actor_accounts[AgentKind.EOA]
    for mr, kind in MR2_FOLLOW_KIND.items():
        if mr in mrs:
            agent = env.actor_accounts[kind]
            pairs.append(TestPair(mr, ActorInput(AgentKind.EOA, eoa, g_ample),
                                  ActorInput(kind, agent, g_ample)))
    return pairs


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
    """Run a gas sweep in order, stopping at the first violation."""
    for pair in pairs:
        violation = check(run_pair(env, pair))
        if violation is not None:
            violations.append(violation)
            return


def run_all(scenario: Scenario, schedule: GasSchedule,
            config: EngineConfig = EngineConfig()) -> EngineResult:
    """Full pipeline for one scenario: deploy, estimate, build, run, check."""
    env = build_environment(scenario, schedule,
                            car_gas_guard=config.car_gas_guard,
                            cah_iterations=config.cah_iterations)
    mrs = tuple(m for m in scenario.mrs
                if config.mr_filter is None or m in config.mr_filter)
    mr1_actors = config.mr1_actors_override or scenario.mr1_actors

    violations: list = []
    diagnostics: list = []

    estimates: dict = {}
    plans: dict = {}
    if any(m in mrs for m in (MR1_1, MR1_2)):
        for kind in mr1_actors:
            try:
                gc = estimate_intrinsic_gas(env.state, None, schedule,
                                            growth=config.growth,
                                            runner=env.runner_for(kind))
            except NeverSucceeds as exc:
                diagnostics.append(Diagnostic(
                    f"MR1.x/{kind.value}",
                    f"estimate unavailable, source run never succeeds: {exc.status}"))
                continue
            estimates[kind] = gc
            increasing = allocate_increasing(gc.value, config.inc_count,
                                             schedule.block_gas_limit)
            if increasing.warning:
                diagnostics.append(Diagnostic(f"MR1.1/{kind.value}", increasing.warning))
            plans[kind] = (increasing, allocate_reducing(gc.value, config.n))

    pairs = build_pairs(env, estimates, plans, mrs, mr1_actors)
    for mr in (MR1_1, MR1_2):
        for kind in mr1_actors:
            sweep = [p for p in pairs
                     if p.mr_id == mr and p.follow_up.kind == kind]
            _sweep(env, sweep, violations)
    for pair in pairs:
        if pair.mr_id in MR2_FOLLOW_KIND:
            violation = check(run_pair(env, pair))
            if violation is not None:
                violations.append(violation)

    return EngineResult(scenario_id=scenario.scenario_id, violations=violations,
                        diagnostics=diagnostics, context_digest=env.context_digest)
