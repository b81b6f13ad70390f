"""Test-pair construction, shared-context execution, and relation checks."""

from collections import Counter
from contextlib import nullcontext

import pytest

from mtsc import mr_engine
from mtsc.agents import AgentKind
from mtsc.detector import emit_report, verdict_for
from mtsc.gas_oracle import (
    IntrinsicGas,
    allocate_increasing,
    allocate_reducing,
)
from mtsc.mr_engine import (
    ActorInput,
    EngineConfig,
    TestPair,
    check,
    estimate_kinds,
    run_all,
    run_pair,
)
from mtsc.relations import MR1_1, MR1_2, MR2_1, MR2_2, MR2_3, RELATIONS
from mtsc.scenario import ALL_ACTOR_KINDS, build_environment, load_scenario
from mtsc.traces import trace_has_swallow
from mtsc.vm import (
    CallEntered,
    CallExited,
    FailReason,
    GasSchedule,
    Outcome,
    STATUS_SUCCESS,
    UINT_MAX,
    Status,
    failure,
)

from conftest import CORPUS_SCENARIOS, FIXTURES, ROOT, scenario_path
from support import build_pairs, cli_outputs, clone, digest, reference_sweep, uncut

S = GasSchedule()


def outcome(ok=True, reason=FailReason.OUT_OF_GAS, gas=30_000, delta=0, trace=()):
    status = STATUS_SUCCESS if ok else failure(reason)
    return Outcome(status, gas, delta, tuple(trace))


def pair_of(mr, source, follow, follow_addr="0xaaaa", source_gas=50_000,
            follow_gas=50_000, kind=AgentKind.CAH):
    return TestPair(
        mr,
        ActorInput(AgentKind.EOA, "0x0002", source_gas),
        ActorInput(kind, follow_addr, follow_gas),
        source_outcome=source,
        follow_outcome=follow,
    )


# -- pair construction ---------------------------------------------------------


def test_build_pairs_increasing_shape(environments):
    env = environments["counter_baseline"]
    estimates = {AgentKind.EOA: IntrinsicGas(50_000, 1)}
    plans = {AgentKind.EOA: (allocate_increasing(50_000, 2, S.block_gas_limit),
                             allocate_reducing(50_000, n=2))}
    pairs = build_pairs(env, estimates, plans, mrs=(MR1_1,),
                        mr1_actors=(AgentKind.EOA,))
    assert [(p.source.gas_limit, p.follow_up.gas_limit) for p in pairs] == [
        (50_000, 100_000), (50_000, 150_000)]
    assert all(p.source.kind == p.follow_up.kind == AgentKind.EOA for p in pairs)
    assert all(p.source.address == p.follow_up.address for p in pairs)


def test_build_pairs_mr2_one_pair_each(environments):
    env = environments["counter_baseline"]
    pairs = build_pairs(env, {}, {}, mrs=tuple(RELATIONS), mr1_actors=())
    assert [p.mr_id for p in pairs] == [MR2_1, MR2_2, MR2_3]
    for p in pairs:
        assert p.source.kind == AgentKind.EOA
        assert p.source.gas_limit == p.follow_up.gas_limit == S.block_gas_limit
    assert pairs[0].follow_up.kind == AgentKind.CAH
    assert pairs[1].follow_up.kind == AgentKind.CAR
    assert pairs[2].follow_up.kind == AgentKind.CAE


def test_build_pairs_smallest_reducing_plan(environments):
    env = environments["counter_baseline"]
    estimates = {AgentKind.EOA: IntrinsicGas(1, 1)}
    plans = {AgentKind.EOA: (allocate_increasing(1, 5, S.block_gas_limit),
                             allocate_reducing(1, n=1))}
    pairs = build_pairs(env, estimates, plans, mrs=(MR1_2,),
                        mr1_actors=(AgentKind.EOA,))
    assert len(pairs) == 1
    assert pairs[0].follow_up.gas_limit == 0


def test_build_pairs_skips_kinds_without_estimates(environments):
    env = environments["counter_baseline"]
    pairs = build_pairs(env, {}, {}, mrs=(MR1_1, MR1_2),
                        mr1_actors=(AgentKind.EOA, AgentKind.CAH))
    assert pairs == []


# -- pair execution ------------------------------------------------------------


def distinct_limits(env, kind=AgentKind.EOA):
    """Two inputs of one actor a unit of gas apart, with equal status,
    consumption and balance delta on simple_dao_withdraw: the source's
    range holds the follow-up, so a pair runs the source only, where an
    environment without ranges runs both."""
    addr = env.actor_accounts[kind]
    return ActorInput(kind, addr, 40_000), ActorInput(kind, addr, 40_001)


def vm_inputs(target_runs):
    return [(kind, gas_limit) for _, kind, gas_limit, _ in target_runs]


def starting_digests(target_runs):
    return [digest for *_, digest in target_runs]


def same_verdict(out, own):
    """Whether `out` answers an input as its own run `own` does: the same
    status and, for a success, the same consumption and balance delta."""
    return out.status == own.status and (
        not own.ok or (out.gas_consumed, out.balance_delta)
        == (own.gas_consumed, own.balance_delta))


def test_identical_inputs_give_identical_outcomes(unmemoised, target_runs,
                                                  context_digests):
    built = context_digests["simple_dao_withdraw"]
    env = unmemoised("simple_dao_withdraw")
    source, follow = distinct_limits(env)
    done = run_pair(env, MR1_1, source, follow)
    # the source's range answers the follow-up
    assert vm_inputs(target_runs) == [(AgentKind.EOA, 40_000)]
    assert done.follow_outcome is done.source_outcome
    target_runs.clear()
    with uncut():
        ref = run_pair(unmemoised("simple_dao_withdraw"), MR1_1, source, follow)
    assert vm_inputs(target_runs) == [(AgentKind.EOA, 40_000), (AgentKind.EOA, 40_001)]
    assert starting_digests(target_runs) == [built] * 2
    s, f = ref.source_outcome, ref.follow_outcome
    assert (s.status, s.gas_consumed, s.balance_delta) \
        == (f.status, f.gas_consumed, f.balance_delta)
    assert same_verdict(done.follow_outcome, f)


def test_run_pair_restores_the_shared_context(unmemoised, target_runs, context_digests):
    built = context_digests["simple_dao_withdraw"]
    for reference in (False, True):
        env = unmemoised("simple_dao_withdraw")
        assert digest(env.state) == built
        eoa = ActorInput(AgentKind.EOA, env.actor_accounts[AgentKind.EOA], 40_000)
        car = ActorInput(AgentKind.CAR, env.actor_accounts[AgentKind.CAR],
                         S.block_gas_limit)
        with uncut() if reference else nullcontext():
            run_pair(env, MR2_2, eoa, car)
        # two actor kinds: no range of one answers the other
        assert vm_inputs(target_runs) == [(AgentKind.EOA, 40_000),
                                          (AgentKind.CAR, S.block_gas_limit)]
        assert digest(env.state) == built
        target_runs.clear()


def test_follow_up_sees_pristine_context(unmemoised, target_runs, context_digests):
    built = context_digests["simple_dao_withdraw"]
    env = unmemoised("simple_dao_withdraw")
    source, follow = distinct_limits(env)
    done = run_pair(env, MR1_1, source, follow)
    assert digest(env.state) == built
    assert starting_digests(target_runs) == [built]
    # without ranges the follow-up runs too: the source run withdraws from
    # the actor's position, yet the follow-up starts from the context as
    # set up
    target_runs.clear()
    with uncut():
        ref = run_pair(unmemoised("simple_dao_withdraw"), MR1_1, source, follow)
    assert digest(env.state) == built
    assert starting_digests(target_runs) == [built] * 2
    for pair in (done, ref):
        assert pair.source_outcome.ok and pair.follow_outcome.ok
        assert pair.source_outcome.balance_delta == pair.follow_outcome.balance_delta


def test_run_pair_keeps_the_source_outcome_only(unmemoised, target_runs):
    env = unmemoised("simple_dao_withdraw")
    source, follow = distinct_limits(env)
    first = run_pair(env, MR1_1, source, follow)
    again = run_pair(env, MR1_1, source, follow)
    # the source's kept run answers both sides of both pairs
    assert vm_inputs(target_runs) == [(AgentKind.EOA, 40_000)]
    assert again.source_outcome is first.source_outcome is again.follow_outcome
    # the follow-up's own run is made once, when asked for, and then kept
    own = env.run(AgentKind.EOA, 40_001, own=True)
    assert env.run(AgentKind.EOA, 40_001, own=True) is own
    assert vm_inputs(target_runs) == [(AgentKind.EOA, 40_000), (AgentKind.EOA, 40_001)]
    assert same_verdict(first.follow_outcome, own)
    target_runs.clear()
    with uncut():
        ref_env = unmemoised("simple_dao_withdraw")
        ref = [run_pair(ref_env, MR1_1, source, follow) for _ in range(2)]
    # without ranges each input runs once, its outcome kept for its own input
    assert vm_inputs(target_runs) == [(AgentKind.EOA, 40_000), (AgentKind.EOA, 40_001)]
    assert ref[1].source_outcome is ref[0].source_outcome
    assert ref[1].follow_outcome is ref[0].follow_outcome == own


# target runs per serial pass of each corpus scenario: without ranges
# other than the estimator's own, and with the environment's
CORPUS_RUNS = {
    "approve_notify_checked": (7, 5),
    "counter_baseline": (17, 11),
    "crowd_pay_guarded": (14, 9),
    "dividend_vault_payout": (12, 8),
    "simple_dao_withdraw": (17, 11),
    "simple_dao_withdraw_a": (17, 9),
    "simple_dao_withdraw_b": (14, 8),
    "token_ether_transfer": (19, 13),
}


@pytest.mark.parametrize("name", CORPUS_SCENARIOS)
def test_each_source_input_runs_once_per_environment(monkeypatch, target_runs, name):
    # every input reaches the VM at most once per environment, and not at
    # all inside the range of a run already made: estimator probes,
    # sources and follow-ups alike
    envs, pairs = [], []
    build_environment = mr_engine.build_environment
    run_pair_once = mr_engine.run_pair

    def tracked_run_pair(*args):
        pairs.append(run_pair_once(*args))
        return pairs[-1]

    def captured_build_environment(*args, **kwargs):
        envs.append(build_environment(*args, **kwargs))
        return envs[-1]

    monkeypatch.setattr(mr_engine, "build_environment", captured_build_environment)
    monkeypatch.setattr(mr_engine, "run_pair", tracked_run_pair)
    scenario = load_scenario(scenario_path(name))
    with uncut():
        ref = emit_report([verdict_for(run_all(scenario, S))], fmt="json")
    ref_runs = len(target_runs)
    target_runs.clear()
    del envs[:], pairs[:]
    result = run_all(scenario, S)

    (env,) = envs
    assert pairs
    assert (ref_runs, len(target_runs)) == CORPUS_RUNS[name]
    assert emit_report([verdict_for(result)], fmt="json") == ref
    runs = Counter(vm_inputs(target_runs))
    assert [key for key, count in runs.items() if count > 1] == []

    def fresh(actor):
        return env.run_target(clone(env.state), actor.kind, actor.gas_limit)

    for pair in pairs:
        assert same_verdict(pair.source_outcome, fresh(pair.source))
        assert same_verdict(pair.follow_outcome, fresh(pair.follow_up))
    # a violation shows its follow-up's own run
    for violation in result.violations:
        assert violation.pair.follow_outcome == fresh(violation.pair.follow_up)


# -- relation checks ---------------------------------------------------------


def test_mr11_holds_on_equal_status_and_gas():
    assert check(pair_of(MR1_1, outcome(gas=100), outcome(gas=100))) is None


def test_mr11_flags_gas_mismatch():
    v = check(pair_of(MR1_1, outcome(gas=100), outcome(gas=140)))
    assert v is not None and v.observed == "gas mismatch"


def test_mr11_flags_status_mismatch():
    v = check(pair_of(MR1_1, outcome(ok=True), outcome(ok=False)))
    assert v is not None and v.observed == "status mismatch"


def test_mr12_expects_failure_below_the_requirement():
    assert check(pair_of(MR1_2, outcome(), outcome(ok=False))) is None
    v = check(pair_of(MR1_2, outcome(), outcome(), follow_gas=42_000))
    assert v is not None
    assert v.gas_threshold == 42_000


def test_mr21_flags_balance_mismatch_only_when_both_succeed():
    v = check(pair_of(MR2_1, outcome(delta=1_000_000), outcome(delta=0)))
    assert v is not None and v.observed == "balance mismatch"
    # a failing follow-up is the consistent handling of a bad recipient
    assert check(pair_of(MR2_1, outcome(delta=5), outcome(ok=False))) is None
    assert check(pair_of(MR2_1, outcome(delta=5), outcome(delta=5))) is None


def test_mr23_requires_value_into_the_fallback():
    agent = "0xaaaa"
    dispatched = (
        CallEntered("lowcall", agent, None, 1_000, 4_600, 1),
        CallExited(False, 4_600, FailReason.OUT_OF_GAS, 2_300, 1),
    )
    v = check(pair_of(MR2_3, outcome(), outcome(trace=dispatched),
                      follow_addr=agent, kind=AgentKind.CAE))
    assert v is not None and v.observed == "status mismatch"
    # no value ever reached the agent: vacuous, not a violation
    assert check(pair_of(MR2_3, outcome(), outcome(), follow_addr=agent,
                         kind=AgentKind.CAE)) is None
    # the expected outcome: the reverting fallback failed the interaction
    assert check(pair_of(MR2_3, outcome(), outcome(ok=False), follow_addr=agent,
                         kind=AgentKind.CAE)) is None


def test_mr23_ignores_stillborn_dispatches():
    agent = "0xaaaa"
    stillborn = (
        CallEntered("send", agent, None, 9, 0, 1),
        CallExited(False, 0, FailReason.BALANCE_INSUFFICIENT, 0, 1),
    )
    assert check(pair_of(MR2_3, outcome(), outcome(trace=stillborn),
                         follow_addr=agent, kind=AgentKind.CAE)) is None


def test_readme_lists_the_relations_of_the_table():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## The five relations\n", 1)[1].split("\n## ", 1)[0]
    table = [line for line in section.splitlines() if line.startswith("|")]
    # below the header row and the separator row, one row per relation
    assert tuple(row.split("|")[1].strip() for row in table[2:]) == tuple(RELATIONS)


# -- full pipeline --------------------------------------------------------------


def run_scenario(name, **config):
    scenario = load_scenario(scenario_path(name))
    return run_all(scenario, S, EngineConfig(**config))


def test_transfer_based_contract_is_clean():
    result = run_scenario("dividend_vault_payout")
    assert result.violations == []
    assert any(d.startswith("MR1.x/CAH: ") for d in result.diagnostics)


def test_empty_increasing_plan_is_a_diagnostic():
    # 2 * gc exceeds a 60 000 block gas limit for EOA and CAR; CAH's
    # source run never succeeds under it
    result = run_all(load_scenario(scenario_path("simple_dao_withdraw")),
                     GasSchedule(block_gas_limit=60_000), EngineConfig(inc_count=50))
    assert [d for d in result.diagnostics if d.startswith("MR1.1/")] == [
        "MR1.1/EOA: 2*36216 exceeds the block gas limit 60000",
        "MR1.1/CAR: 2*57216 exceeds the block gas limit 60000"]
    assert not any(v.pair.mr_id == MR1_1 for v in result.violations)


def test_empty_selection_runs_nothing():
    result = run_scenario("simple_dao_withdraw", mr_filter=())
    assert result.violations == []
    assert result.diagnostics == []


def test_simple_dao_family_violations():
    by_name = {
        name: run_scenario(name)
        for name in ("simple_dao_withdraw", "simple_dao_withdraw_a",
                     "simple_dao_withdraw_b")
    }
    seen = {
        name: {(v.pair.mr_id, v.pair.follow_up.kind) for v in res.violations}
        for name, res in by_name.items()
    }
    assert seen["simple_dao_withdraw"] == {
        (MR1_1, AgentKind.CAR), (MR2_2, AgentKind.CAR)}
    assert seen["simple_dao_withdraw_a"] == {
        (MR2_1, AgentKind.CAH), (MR2_3, AgentKind.CAE)}
    assert seen["simple_dao_withdraw_b"] == {(MR2_1, AgentKind.CAH)}


def test_pure_direct_call_baseline_clean_across_all_relations():
    result = run_scenario("counter_baseline")
    assert result.violations == []
    assert result.diagnostics == []


def test_sweeps_stop_at_the_first_violation():
    result = run_scenario("simple_dao_withdraw")
    mr11 = [v for v in result.violations if v.pair.mr_id == MR1_1]
    assert len(mr11) == 1  # one record despite five planned follow-ups


def test_reduced_gas_success_is_flagged_with_threshold():
    result = run_all(load_scenario(FIXTURES / "notifier_ping.scenario.json"),
                     S, EngineConfig())
    assert [v.pair.mr_id for v in result.violations] == [MR1_2]
    v = result.violations[0]
    assert v.gas_threshold == v.pair.follow_up.gas_limit
    assert v.gas_threshold < v.pair.source.gas_limit
    assert v.pair.follow_outcome.ok


def test_mr12_violation_trace_shows_a_swallowed_exception():
    result = run_all(load_scenario(FIXTURES / "notifier_ping.scenario.json"),
                     S, EngineConfig())
    for v in result.violations:
        assert trace_has_swallow(v.pair.follow_outcome.trace)


# `run_all` with inc_count=0 used to report "2*gc exceeds the block gas
# limit" for every kind, although 2*gc was far below it.
@pytest.mark.parametrize("field,value", [
    ("n", 0), ("inc_count", 0), ("inc_count", -3), ("growth", 1.0),
    ("growth", float("nan")), ("cah_iterations", 0),
    # a CAH fallback of 10**8 writes used to be built in full, exhausting memory
    ("cah_iterations", 2**16 + 1), ("cah_iterations", 10**8),
    # a guard above what `gasleft()` can hold kept CAR from ever re-entering
    ("car_gas_guard", 2**128), ("car_gas_guard", 10**40),
])
def test_engine_config_rejects_unusable_fields(field, value):
    with pytest.raises(ValueError, match="must"):
        EngineConfig(**{field: value})
    EngineConfig(**{field: 2})  # a usable value of each field passes
    assert EngineConfig(cah_iterations=2**16).cah_iterations == 2**16
    assert EngineConfig(car_gas_guard=UINT_MAX).car_gas_guard == UINT_MAX


# A relation id that names no relation used to select nothing, so a
# vulnerable scenario got a clean verdict; an unknown actor kind made
# `run_all` raise KeyError. Both now fail with the scenario file's message.
# A bare string was read one character at a time: "MR1.1" failed on 'M',
# and "" selected no relation.
@pytest.mark.parametrize("field,names,message", [
    ("mr_filter", ("MR2.9",), "unknown relation 'MR2.9'"),
    ("mr_filter", ("MR2.2", "mr1.1"), "unknown relation 'mr1.1'"),
    ("mr1_actors_override", ("CAX",), "unknown actor kind 'CAX'"),
    ("mr1_actors_override", ("EOA", "eoa"), "unknown actor kind 'eoa'"),
    ("mr_filter", "MR1.1", "relation ids must be a list, not the string 'MR1.1'"),
    ("mr_filter", "", "relation ids must be a list, not the string ''"),
    ("mr1_actors_override", "CAR", "actor kinds must be a list, not the string 'CAR'"),
    ("mr1_actors_override", "", "actor kinds must be a list, not the string ''"),
], ids=["relation", "relation-case", "actor-kind", "actor-kind-case", "relation-string",
        "relation-empty-string", "actor-kind-string", "actor-kind-empty-string"])
def test_engine_config_rejects_unknown_names(field, names, message):
    with pytest.raises(ValueError) as info:
        EngineConfig(**{field: names})
    assert str(info.value) == message


def test_engine_config_keeps_the_checked_lists():
    config = EngineConfig(mr_filter=["MR2.2"], mr1_actors_override=["CAR", "EOA"])
    assert config.mr_filter == ("MR2.2",)
    assert config.mr1_actors_override == (AgentKind.CAR, AgentKind.EOA)
    result = run_all(load_scenario(scenario_path("simple_dao_withdraw")), S, config)
    assert {v.pair.mr_id for v in result.violations} == {MR2_2}


def test_context_digest_is_stable_across_runs():
    scenario = load_scenario(scenario_path("simple_dao_withdraw"))
    first, second = (digest(build_environment(scenario, S).state) for _ in range(2))
    assert first == second
    a = run_scenario("simple_dao_withdraw")
    b = run_scenario("simple_dao_withdraw")
    assert a.violations == b.violations


def test_detection_survives_a_perturbed_schedule():
    # verdicts rest on relation violations, not on exact cost constants
    sched = GasSchedule(sload=400, dispatch=250, arith=9, compare=9, logic=9,
                        call_base=1_200)
    expectations = {
        "simple_dao_withdraw": {MR1_1, MR2_2},
        "simple_dao_withdraw_b": {MR2_1},
        "dividend_vault_payout": set(),
        "counter_baseline": set(),
    }
    for name, expected in expectations.items():
        scenario = load_scenario(scenario_path(name))
        result = run_all(scenario, sched, EngineConfig())
        assert {v.pair.mr_id for v in result.violations} == expected, name


# -- invariance ranges against the full sweep ----------------------------------

CERTIFICATE_CONFIGS = {
    "default": (S, EngineConfig()),
    "coarse": (S, EngineConfig(n=37, inc_count=2, car_gas_guard=S.stipend + 1)),
    "perturbed": (GasSchedule(sload=400, dispatch=250, call_base=1_200, stipend=3_000),
                  EngineConfig(n=250, growth=2.0, car_gas_guard=60_000,
                               cah_iterations=2)),
    "low-stipend": (GasSchedule(stipend=1_000, sstore_set=25_000),
                    EngineConfig(n=100, inc_count=4, car_gas_guard=2_000)),
}


def report_bytes(name, schedule, config):
    scenario = load_scenario(scenario_path(name))
    config = config._replace(mr1_actors_override=ALL_ACTOR_KINDS)
    return emit_report([verdict_for(run_all(scenario, schedule, config))], fmt="json")


# `reference_sweep` runs every pair of an MR1.x sweep: the sweep the
# invariance ranges cut.
@pytest.mark.parametrize("config", sorted(CERTIFICATE_CONFIGS))
@pytest.mark.parametrize("name", CORPUS_SCENARIOS + ["notifier_ping"])
def test_certificate_matches_the_full_sweep(monkeypatch, name, config):
    schedule, engine = CERTIFICATE_CONFIGS[config]
    cut = report_bytes(name, schedule, engine)
    monkeypatch.setattr(mr_engine, "sweep", reference_sweep)
    assert report_bytes(name, schedule, engine) == cut


DIFFERENTIAL_FLAGS = {
    "default": (),
    "coarse": ("--n", "37", "--inc-count", "2", "--mr1-actors", "EOA,CAO,CAH,CAR,CAE"),
    "slow-growth": ("--growth", "1.01"),
}


# Under `uncut` only an estimator probe is answered from a range, and every
# source and follow-up outcome is its input's own run.
@pytest.mark.parametrize("flags", sorted(DIFFERENTIAL_FLAGS))
@pytest.mark.parametrize("name", CORPUS_SCENARIOS + ["notifier_ping"])
def test_range_answers_match_the_uncut_pipeline(name, flags):
    argvs = [(command, str(scenario_path(name)), "--format", "json",
              *DIFFERENTIAL_FLAGS[flags]) for command in ("check", "estimate")]
    cut = [cli_outputs(*argv) for argv in argvs]
    with uncut():
        assert [cli_outputs(*argv) for argv in argvs] == cut


def count_corpus_pairs(monkeypatch, config=EngineConfig(), names=CORPUS_SCENARIOS):
    """run_pair calls of one corpus pass per (scenario, relation, kind)."""
    runs = Counter()
    run_pair_once = mr_engine.run_pair

    def counted_run_pair(env, mr_id, source, follow_up):
        runs[(env.scenario.scenario_id, mr_id, source.kind.value)] += 1
        return run_pair_once(env, mr_id, source, follow_up)

    monkeypatch.setattr(mr_engine, "run_pair", counted_run_pair)
    verdicts = [verdict_for(run_all(load_scenario(scenario_path(name)), S, config))
                for name in names]
    return runs, verdicts


def test_invariance_ranges_cut_every_gas_rigid_corpus_sweep(monkeypatch):
    runs, _ = count_corpus_pairs(monkeypatch)
    # a sweep runs more than one pair only where the outcome changes along it
    full = {key for key, count in runs.items()
            if key[1] == MR1_2 and count > 1}
    assert full == {("crowd_pay_guarded", MR1_2, "CAH"),
                    ("simple_dao_withdraw", MR1_2, "CAH"),
                    ("token_ether_transfer", MR1_2, "CAH")}
    cut = [(name, kind) for (name, mr, kind), count in runs.items()
           if mr == MR1_2 and count == 1]
    assert len(cut) == 17
    assert all(runs[(name, MR1_1, kind)] == 1 for name, kind in cut)


def test_out_of_gas_ranges_stop_the_remaining_mr12_sweeps(monkeypatch, target_runs):
    runs, _ = count_corpus_pairs(monkeypatch)
    # each of these sweeps plans about 1000 follow-ups; a heavy fallback
    # that starves lower down turns the run once, to a Revert where the
    # target checks the call
    assert {(name, kind): count for (name, mr, kind), count in runs.items()
            if mr == MR1_2 and count > 1} == {
        ("crowd_pay_guarded", "CAH"): 3,
        ("simple_dao_withdraw", "CAH"): 2,
        ("token_ether_transfer", "CAH"): 3,
    }
    assert sum(runs.values()) == 67
    # estimator probes included: each distinct input runs at most once,
    # and an input inside the range of a run already made runs not at
    # all (153 runs when every input ran, 117 when the ranges answered
    # estimator probes only)
    assert len(target_runs) == 74
    cut = dict(runs)  # a second count wraps the counting `run_pair` and adds to it
    target_runs.clear()
    with uncut():
        ref_runs, _ = count_corpus_pairs(monkeypatch)
    assert ref_runs == cut
    assert len(target_runs) == 117


def skip_loop_limits(env, kind, plan):
    """The follow-up limits of a sweep that tests every plan limit against
    the range of the last follow-up it ran."""
    limits, decided = [], range(0)
    for g in plan:
        if g not in decided:
            limits.append(g)
            lo, hi = env.run(kind, g).limits
            decided = range(lo, hi + 1)
    return limits


@pytest.mark.parametrize("n", [1000, 37])
@pytest.mark.parametrize("name", ["crowd_pay_guarded", "simple_dao_withdraw",
                                  "token_ether_transfer"])
def test_sweep_runs_the_first_plan_limit_outside_each_range(unmemoised, name, n):
    env = unmemoised(name)
    for kind, gc in estimate_kinds(env, ALL_ACTOR_KINDS, EngineConfig().growth):
        if isinstance(gc, Status):
            continue
        for mr, plan in ((MR1_1, allocate_increasing(gc.value, 5, S.block_gas_limit)),
                         (MR1_2, allocate_reducing(gc.value, n))):
            swept = [p.follow_up.gas_limit
                     for p in mr_engine.sweep(env, mr, kind, gc.value, plan)]
            assert swept == skip_loop_limits(env, kind, plan), (kind, mr)


def test_sweep_cost_does_not_grow_with_n(monkeypatch):
    # plans of one follow-up per unit of gas below the intrinsic 127 822
    name = "crowd_pay_guarded"
    coarse = verdict_for(run_all(load_scenario(scenario_path(name)), S, EngineConfig()))
    plans = []
    sweep_once = mr_engine.sweep

    def recorded_sweep(env, mr, kind, gc, plan):
        plans.append(plan)
        return sweep_once(env, mr, kind, gc, plan)

    monkeypatch.setattr(mr_engine, "sweep", recorded_sweep)
    for n in (100_000, 10**9):
        runs, fine = count_corpus_pairs(monkeypatch, EngineConfig(n=n), [name])
        assert runs[(name, MR1_2, "CAH")] <= 3
        assert emit_report(fine, fmt="json") == emit_report([coarse], fmt="json")
    # the sweeps walk plans that are never built
    assert plans and all(type(plan) is range for plan in plans)
