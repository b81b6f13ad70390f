"""Construction, execution, and checking of metamorphic test pairs.

The relations are the rows of `relations.RELATIONS`, and `run_all` runs
the selected ones in table order. Each runs a list of sweeps, each up to
its first violation. A gas-limit relation (MR1.x) runs one sweep per
actor kind, from the kind's re-estimated intrinsic gas, since an agent
wrapper adds its own overhead; an account-switching relation (MR2.x)
runs one sweep of one pair, both at the block gas limit.

Every input goes through `Environment.run`, which runs it at most once
per environment and answers it without running when it lies inside the
invariance range of a run already made: an MR1.x source or follow-up
inside a range of the estimator's runs, or an MR2.x pair the estimator
ran. An answered outcome decides the relation as the input's own run
would; a pair that violates it with an answered follow-up takes that
follow-up's own run, so a report shows only inputs' own runs.

`sweep` slices an MR1.x plan, a `range` of follow-up limits, past the
invariance range (`Outcome.limits`) of each follow-up it runs: that
follow-up held against the source, so every limit in its range holds as
well. Along the plans of the corpus the outcome changes once or twice, so
a sweep runs one to three pairs, in about the same time, whatever `n` is.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .agents import DEFAULT_CAH_ITERATIONS, DEFAULT_CAR_GAS_GUARD, AgentKind, actor_kinds
from .gas_oracle import (DEFAULT_GROWTH, DEFAULT_SUBDIVISIONS, NeverSucceeds,
                         estimate_intrinsic_gas)
from .minisol.record import FrozenRecord, Record
from .relations import RELATIONS, relation_ids
from .scenario import Environment, Scenario, build_environment
from .vm import UINT_MAX, GasSchedule, Outcome, Status

ALL_MRS = tuple(RELATIONS)  # perfbench's traced run reads it


class ActorInput(NamedTuple):
    kind: AgentKind
    address: str
    gas_limit: int


class TestPair(NamedTuple):
    __test__ = False  # keep pytest from collecting the class

    mr_id: str
    source: ActorInput
    follow_up: ActorInput
    source_outcome: Optional[Outcome] = None
    follow_outcome: Optional[Outcome] = None


class ViolationRecord(NamedTuple):
    pair: TestPair
    observed: str
    gas_threshold: Optional[int] = None


class EngineConfig(FrozenRecord):
    __slots__ = _fields = ("n", "inc_count", "growth", "car_gas_guard", "cah_iterations",
                           "mr_filter", "mr1_actors_override")

    def __init__(self, n: int = DEFAULT_SUBDIVISIONS,
                 inc_count: int = 5,  # increasing follow-ups per sweep
                 growth: float = DEFAULT_GROWTH,
                 car_gas_guard: int = DEFAULT_CAR_GAS_GUARD,
                 cah_iterations: int = DEFAULT_CAH_ITERATIONS,
                 mr_filter: Optional[tuple] = None,  # restricts the scenario's selection
                 mr1_actors_override: Optional[tuple] = None):
        if mr_filter is not None:
            mr_filter = relation_ids(mr_filter)
        if mr1_actors_override is not None:
            mr1_actors_override = actor_kinds(mr1_actors_override)
        self._set(locals())
        if n < 1 or inc_count < 1:
            raise ValueError("n and inc_count must be at least 1")
        if not growth > 1.0:  # NaN included
            raise ValueError("growth must exceed 1")
        # a CAH agent's fallback is built, one write per iteration, before
        # any run; the default block pays for 1500 writes
        if not 1 <= cah_iterations <= 2**16:
            raise ValueError("cah_iterations must be at least 1 and at most 2**16")
        # `gasleft()` never exceeds a guard the VM cannot hold: CAR would never re-enter
        if car_gas_guard > UINT_MAX:
            raise ValueError("car_gas_guard must be at most 2**128 - 1")


class EngineResult(Record):
    __slots__ = _fields = ("scenario_id", "violations", "diagnostics")

    def __init__(self, scenario_id: str, violations: list, diagnostics: list):
        self.scenario_id = scenario_id
        self.violations = violations
        self.diagnostics = diagnostics  # "scope: message" per sweep skipped


def estimate_kinds(env: Environment, kinds, growth: float) -> list:
    """(kind, estimate) for each distinct kind in order of first mention,
    where the estimate is the IntrinsicGas of the kind's source run, or the
    failing Status of that run when it fails even at the block gas limit."""
    rows = []
    for kind in dict.fromkeys(kinds):
        try:
            gc = estimate_intrinsic_gas(env.schedule, runner=env.runner_for(kind),
                                        growth=growth)
        except NeverSucceeds as exc:
            gc = exc.status
        rows.append((kind, gc))
    return rows


def run_pair(env: Environment, mr_id: str, source: ActorInput,
             follow_up: ActorInput) -> TestPair:
    """The pair of relation `mr_id` with both outcomes from
    `Environment.run`, in its context.

    Either may be answered from a kept range, as another run's outcome
    with the same status and, for a success, consumption and balance
    delta: the relation holds or fails as with the input's own run.
    """
    return TestPair(mr_id, source, follow_up, env.run(source.kind, source.gas_limit),
                    env.run(follow_up.kind, follow_up.gas_limit))


def check(pair: TestPair) -> Optional[ViolationRecord]:
    """Evaluate a pair's output relation; None when the relation holds."""
    relation = RELATIONS[pair.mr_id]
    observed = relation.violated(pair.source_outcome, pair.follow_outcome, pair.follow_up)
    if observed is None:
        return None
    threshold = pair.follow_up.gas_limit if relation.reports_threshold else None
    return ViolationRecord(pair, observed, gas_threshold=threshold)


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
        done = run_pair(env, mr, source, ActorInput(follow_kind, addr, g))
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
            if isinstance(gc, Status):
                diagnostics.append(f"MR1.x/{kind.value}: "
                                   f"estimate unavailable, source run never succeeds: {gc}")
                continue
            if gc.value == 0:  # a run that costs nothing: no gas limit to vary
                diagnostics.extend(f"{relation.mr_id}/{kind.value}: "
                                   "intrinsic gas is 0, no gas limit to vary"
                                   for relation in gas_relations)
                continue
            for relation in gas_relations:
                plan = relation.plan(gc.value, config, g_ample)
                if not plan:  # only an increasing plan, when 2*gc exceeds the block
                    diagnostics.append(f"{relation.mr_id}/{kind.value}: "
                                       f"2*{gc.value} exceeds the block gas limit {g_ample}")
                sweeps[relation.mr_id].append(sweep(env, relation.mr_id, kind, gc.value, plan))

    for relation in selected:
        if relation.follow_kind is not None:  # the EOA's run against the agent's
            sweeps[relation.mr_id].append(sweep(env, relation.mr_id, AgentKind.EOA, g_ample,
                                                range(g_ample, g_ample + 1)))
        for pairs in sweeps[relation.mr_id]:
            for done in pairs:
                if check(done) is not None:
                    # the report shows the follow-up's own run, trace
                    # included; a violation's source succeeded, and a range
                    # answers a success's status, consumption and delta
                    own = env.run(done.follow_up.kind, done.follow_up.gas_limit, own=True)
                    violations.append(check(done._replace(follow_outcome=own)))
                    break

    return EngineResult(scenario_id=scenario.scenario_id, violations=violations,
                        diagnostics=diagnostics)
