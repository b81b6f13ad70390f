"""Construction, execution, and checking of metamorphic test pairs.

The relations are the rows of `relations.RELATIONS`, and `run_all` runs
the selected ones in table order. Each runs a list of sweeps, each up to
its first violation. A gas-limit relation (MR1.x) runs one sweep per
actor kind, from the kind's re-estimated intrinsic gas, since an agent
wrapper adds its own overhead; an account-switching relation (MR2.x)
runs one sweep of one pair, both at the block gas limit.

Every input runs through `Environment.run`, at most once per
environment, so an MR2.x pair and an MR1.x source reuse the estimator's
outcomes. An MR1.x source at a limit the estimator answered from a range
runs only then.

`sweep` slices an MR1.x plan, a `range` of follow-up limits, past the
invariance range (`Outcome.limits`) of each follow-up it runs: that
follow-up held against the source, so every limit in its range holds as
well. Along the plans of the corpus the outcome changes once or twice, so
a sweep runs one to three pairs, in about the same time, whatever `n` is.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .agents import DEFAULT_CAR_GAS_GUARD, AgentKind
from .gas_oracle import NeverSucceeds, estimate_intrinsic_gas
from .relations import RELATIONS
from .scenario import Environment, Scenario, build_environment
from .vm import GasSchedule, Outcome

ALL_MRS = tuple(RELATIONS)  # perfbench's traced run reads it


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

    def __post_init__(self):
        if self.n < 1 or self.inc_count < 1:
            raise ValueError("n and inc_count must be at least 1")
        if not self.growth > 1.0:  # NaN included
            raise ValueError("growth must exceed 1")
        if self.cah_iterations < 1:
            raise ValueError("cah_iterations must be at least 1")


@dataclass
class EngineResult:
    scenario_id: str
    violations: list
    diagnostics: list


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
            # its traceback holds this frame, whose `rows` would hold it:
            # a cycle that keeps `env` alive until the cyclic collector runs
            gc = exc.with_traceback(None)
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
    relation = RELATIONS[pair.mr_id]
    observed = relation.violated(pair.source_outcome, pair.follow_outcome, pair.follow_up)
    if observed is None:
        return None
    threshold = pair.follow_up.gas_limit if relation.reports_threshold else None
    return ViolationRecord(pair.mr_id, pair, observed, gas_threshold=threshold)


def sweep(env: Environment, mr: str, kind: AgentKind, gc: int, plan: range):
    """Yield the run pairs of one sweep in plan order: the source of `kind`
    at gc, follow-ups of the relation's follow-up kind, or else of `kind`,
    along the plan. Each pair slices the plan past its follow-up's
    invariance range, which is sound while the pairs hold: the caller
    stops at the first violation."""
    source = ActorInput(kind, env.actor_accounts[kind], gc)
    follow_kind = RELATIONS[mr].follow_kind or kind
    addr = env.actor_accounts[follow_kind]
    while plan:
        g = plan[0]
        done = run_pair(env, TestPair(mr, source, ActorInput(follow_kind, addr, g)))
        yield done
        lo, hi = done.follow_outcome.limits
        plan = plan[1 + (g - lo if plan.step < 0 else hi - g) // abs(plan.step):]


def run_all(scenario: Scenario, schedule: GasSchedule,
            config: EngineConfig = EngineConfig()) -> EngineResult:
    """Full pipeline for one scenario: deploy, estimate, then the sweeps of
    each selected relation in table order, each up to its first violation."""
    env = build_environment(scenario, schedule,
                            car_gas_guard=config.car_gas_guard,
                            cah_iterations=config.cah_iterations)
    selected = [relation for relation in RELATIONS.values()
                if relation.mr_id in scenario.mrs
                and (config.mr_filter is None or relation.mr_id in config.mr_filter)]
    sweeps = {relation.mr_id: [] for relation in selected}
    violations: list = []
    diagnostics: list = []

    g_ample = schedule.block_gas_limit
    gas_relations = [relation for relation in selected if relation.plan is not None]
    if gas_relations:
        mr1_actors = config.mr1_actors_override or scenario.mr1_actors
        for kind, gc in estimate_kinds(env, mr1_actors, config.growth):
            if isinstance(gc, NeverSucceeds):
                diagnostics.append(Diagnostic(
                    f"MR1.x/{kind.value}",
                    f"estimate unavailable, source run never succeeds: {gc.status}"))
                continue
            for relation in gas_relations:
                plan = relation.plan(gc.value, config, g_ample)
                if not plan:  # only an increasing plan, when 2*gc exceeds the block
                    diagnostics.append(Diagnostic(
                        f"{relation.mr_id}/{kind.value}",
                        f"2*{gc.value} exceeds the block gas limit {g_ample}"))
                sweeps[relation.mr_id].append(sweep(env, relation.mr_id, kind, gc.value, plan))

    for relation in selected:
        if relation.follow_kind is not None:  # the EOA's run against the agent's
            sweeps[relation.mr_id].append(sweep(env, relation.mr_id, AgentKind.EOA, g_ample,
                                                range(g_ample, g_ample + 1)))
        for pairs in sweeps[relation.mr_id]:
            for done in pairs:
                violation = check(done)
                if violation is not None:
                    violations.append(violation)
                    break

    return EngineResult(scenario_id=scenario.scenario_id, violations=violations,
                        diagnostics=diagnostics)
