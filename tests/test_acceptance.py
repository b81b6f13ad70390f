"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a PASS/FAIL line (visible with `pytest -s` or on failure):

1. corpus detection: the shipped benchmark scores TPR 100.00% / FDR 0.00%
   with the expected per-scenario relations, under 60 s at n=1000
2. metrics arithmetic reproduces the published tool-comparison rows to
   two decimals
3. gas laws hold over 1000 randomized schedule/scenario combinations in
   under 60 s
4. gas-limit independence at 10 larger limits for clean-trace runs
5. estimator soundness: success at the estimate, OutOfGas one unit below
6. the empty-fallback agent is indistinguishable from the EOA on status
   and balance delta
7. mechanism links: reduced-gas violations show a swallowed exception;
   recursive-agent violations show nested re-entries into the target
"""

import random
import time
from contextlib import contextmanager

import pytest

from mtsc.agents import AgentKind
from mtsc.detector import (
    Counts,
    Verdict,
    compute_metrics,
    fdr,
    percent,
    tpr,
    verdict_for,
)
from mtsc.gas_oracle import NeverSucceeds, estimate_intrinsic_gas
from mtsc.mr_engine import EngineConfig, run_all
from mtsc.relations import MR1_1, MR1_2, MR2_1, MR2_2, MR2_3
from mtsc.scenario import ALL_ACTOR_KINDS, build_environment, load_scenario
from mtsc.traces import failed_value_dispatches, trace_has_swallow
from mtsc.vm import FailReason, GasSchedule, Transaction, execute

from conftest import CORPUS, CORPUS_SCENARIOS, FIXTURES
from support import calls_into, clone, digest, trace_has_gasleft

S = GasSchedule()
LABELS = {
    "simple_dao_withdraw": ["Reentrancy"],
    "simple_dao_withdraw_a": ["ExceptionDisorder"],
    "simple_dao_withdraw_b": ["GaslessSend"],
    "token_ether_transfer": ["Reentrancy"],
    "crowd_pay_guarded": [],
    "dividend_vault_payout": [],
    "approve_notify_checked": [],
    "counter_baseline": [],
}


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {title}")
        raise
    print(f"PASS criterion {number}: {title}")


@pytest.fixture(scope="module")
def bench():
    """One full benchmark run shared by several criteria."""
    started = time.monotonic()
    results = {}
    for name in CORPUS_SCENARIOS:
        scenario = load_scenario(CORPUS / f"{name}.scenario.json")
        results[name] = run_all(scenario, S, EngineConfig(n=1000))
    elapsed = time.monotonic() - started
    verdicts = {name: verdict_for(res) for name, res in results.items()}
    return results, verdicts, elapsed


def mr_kinds(verdict):
    return {(v.mr_id, v.pair.follow_up.kind) for v in verdict.violations}


def test_criterion_1_corpus_detection(bench):
    results, verdicts, elapsed = bench
    with criterion(1, "corpus detection scores TPR 100.00% / FDR 0.00%"):
        assert set(verdicts) == set(LABELS)

        withdraw = mr_kinds(verdicts["simple_dao_withdraw"])
        assert (MR2_2, AgentKind.CAR) in withdraw
        assert (MR1_1, AgentKind.CAR) in withdraw
        assert verdicts["simple_dao_withdraw"].categories == ("Reentrancy",)

        wa = verdicts["simple_dao_withdraw_a"]
        assert (MR2_3, AgentKind.CAE) in mr_kinds(wa)
        assert (MR2_1, AgentKind.CAH) in mr_kinds(wa)
        mr21 = next(v for v in wa.violations if v.mr_id == MR2_1)
        forms = {e.call_form for e, _ in failed_value_dispatches(
            mr21.pair.follow_outcome.trace, mr21.pair.follow_up.address)}
        assert forms == {"lowcall"}
        assert wa.categories == ("ExceptionDisorder",)

        wb = verdicts["simple_dao_withdraw_b"]
        assert mr_kinds(wb) == {(MR2_1, AgentKind.CAH)}
        mr21 = wb.violations[0]
        forms = {e.call_form for e, _ in failed_value_dispatches(
            mr21.pair.follow_outcome.trace, mr21.pair.follow_up.address)}
        assert forms == {"send"}
        assert wb.categories == ("GaslessSend",)

        assert (MR2_2, AgentKind.CAR) in mr_kinds(verdicts["token_ether_transfer"])
        assert verdicts["token_ether_transfer"].categories == ("Reentrancy",)

        for safe in ("crowd_pay_guarded", "dividend_vault_payout",
                     "approve_notify_checked", "counter_baseline"):
            assert verdicts[safe].violations == (), safe

        metrics = compute_metrics(list(verdicts.values()), LABELS)
        assert percent(metrics.tpr) == "100.00%"
        assert percent(metrics.fdr) == "0.00%"
        assert elapsed < 60.0, f"benchmark took {elapsed:.1f}s"


def test_criterion_2_metrics_arithmetic():
    with criterion(2, "published metric rows reproduce to two decimals"):
        assert percent(tpr(30, 8)) == "78.95%"
        assert percent(fdr(38, 29)) == "43.28%"
        assert percent(fdr(30, 3)) == "9.09%"
        assert percent(tpr(38, 0)) == "100.00%"
        assert percent(fdr(38, 0)) == "0.00%"

        # the same rows through the full scoring path
        def synth(tp, fp, fn):
            verdicts, labels = [], {}
            for i in range(tp):
                labels[f"tp{i}"] = ["Reentrancy"]
                verdicts.append(Verdict(f"tp{i}", (), ("Reentrancy",)))
            for i in range(fp):
                labels[f"fp{i}"] = []
                verdicts.append(Verdict(f"fp{i}", (), ("Reentrancy",)))
            for i in range(fn):
                labels[f"fn{i}"] = ["Reentrancy"]
                verdicts.append(Verdict(f"fn{i}", (), ()))
            return compute_metrics(verdicts, labels)

        contract_fuzzer = synth(38, 29, 0)
        assert (percent(contract_fuzzer.tpr), percent(contract_fuzzer.fdr)) == \
               ("100.00%", "43.28%")
        slither = synth(30, 0, 8)
        assert (percent(slither.tpr), percent(slither.fdr)) == ("78.95%", "0.00%")
        mythril = synth(30, 3, 8)
        assert (percent(mythril.tpr), percent(mythril.fdr)) == ("78.95%", "9.09%")
        ours = synth(38, 0, 0)
        assert (percent(ours.tpr), percent(ours.fdr)) == ("100.00%", "0.00%")
        assert ours.totals == Counts(tp=38, fp=0, fn=0)


def test_criterion_3_gas_laws_randomized(environments):
    with criterion(3, "gas laws over 1000 randomized combinations"):
        started = time.monotonic()
        rng = random.Random(0x6A5)
        schedules = [
            S,
            GasSchedule(sload=500, arith=7, dispatch=250),
            GasSchedule(base_tx=9_000, sstore_set=12_000, sstore_reset=900),
            GasSchedule(call_base=1_400, value_transfer_surcharge=4_000,
                        stipend=1_000),
        ]
        env_cache = {}
        checked = 0
        for _ in range(1000):
            name = rng.choice(CORPUS_SCENARIOS)
            sched = rng.choice(schedules)
            key = (name, id(sched))
            if key not in env_cache:
                env_cache[key] = build_environment(
                    load_scenario(CORPUS / f"{name}.scenario.json"), sched)
            env = env_cache[key]
            kind = rng.choice(ALL_ACTOR_KINDS)
            limit = rng.choice([
                rng.randrange(0, 200_000),
                rng.randrange(0, 2_000_000),
                sched.block_gas_limit,
            ])
            if kind == AgentKind.EOA:
                tx = env.target_tx(kind, limit)
            else:
                tx = Transaction(env.driver, limit, env.actor_accounts[kind],
                                 "AgentCall", (), 0)

            state = env.state
            before_digest = digest(state)
            fees = state.fee_ledger
            sid = state.snapshot()
            first = execute(state, tx, sched)
            state.restore(sid)
            assert digest(state) == before_digest           # byte-equal round trip
            assert state.fee_ledger == fees
            second = execute(clone(state), tx, sched)
            assert first == second                    # full-outcome determinism
            assert first.gas_consumed <= limit
            if first.status.reason == FailReason.OUT_OF_GAS:
                assert first.gas_consumed == limit
            checked += 1
        elapsed = time.monotonic() - started
        assert checked == 1000
        assert elapsed < 60.0, f"{elapsed:.1f}s"


def test_criterion_4_gas_limit_independence(environments, unmemoised):
    with criterion(4, "success is limit-independent for clean traces"):
        checked = 0
        for name in environments:
            env = unmemoised(name)
            for kind in ALL_ACTOR_KINDS:
                try:
                    gc = estimate_intrinsic_gas(S, runner=env.runner_for(kind))
                except NeverSucceeds:
                    continue
                base = env.run_target(clone(env.state), kind, gc.value, ops=True)
                if not base.ok or trace_has_gasleft(base.trace) \
                        or trace_has_swallow(base.trace):
                    continue
                span = S.block_gas_limit - gc.value
                signature = (base.ok, base.gas_consumed, base.balance_delta)
                for i in range(1, 11):
                    limit = gc.value + span * i // 10
                    out = env.run_target(clone(env.state), kind, limit)
                    assert (out.ok, out.gas_consumed, out.balance_delta) \
                        == signature, (name, kind, limit)
                checked += 1
        assert checked >= 15  # the filter must not empty the criterion


def test_criterion_5_estimator_soundness(environments, unmemoised):
    with criterion(5, "estimates succeed exactly and fail one unit below"):
        checked = 0
        for name in environments:
            env = unmemoised(name)
            for kind in ALL_ACTOR_KINDS:
                try:
                    gc = estimate_intrinsic_gas(S, runner=env.runner_for(kind))
                except NeverSucceeds:
                    continue
                at_value = env.run_target(clone(env.state), kind, gc.value)
                below = env.run_target(clone(env.state), kind, gc.value - 1)
                assert at_value.ok, (name, kind)
                assert not below.ok, (name, kind)
                assert below.status.reason == FailReason.OUT_OF_GAS, (name, kind)
                checked += 1
        assert checked >= 30


def test_criterion_6_cao_equals_eoa(environments):
    with criterion(6, "empty-fallback agent matches the EOA on (status, delta)"):
        for name, env in environments.items():
            eoa = env.run_target(clone(env.state), AgentKind.EOA,
                                 S.block_gas_limit)
            cao = env.run_target(clone(env.state), AgentKind.CAO,
                                 S.block_gas_limit)
            assert eoa.ok == cao.ok, name
            assert eoa.balance_delta == cao.balance_delta, name


def test_criterion_7_mechanism_links(bench):
    results, verdicts, _ = bench
    with criterion(7, "violations carry their mechanism in the trace"):
        fixture = run_all(load_scenario(FIXTURES / "notifier_ping.scenario.json"),
                          S, EngineConfig())
        reduced_gas = [v for res in results.values() for v in res.violations
                       if v.mr_id == MR1_2]
        reduced_gas += [v for v in fixture.violations if v.mr_id == MR1_2]
        assert reduced_gas, "no reduced-gas violation was exercised"
        for v in reduced_gas:
            assert trace_has_swallow(v.pair.follow_outcome.trace)

        recursive = 0
        for name, res in results.items():
            scenario = load_scenario(CORPUS / f"{name}.scenario.json")
            env = build_environment(scenario, S)
            target_addr = env.roles[scenario.target.callee]
            for v in res.violations:
                if v.mr_id != MR2_2:
                    continue
                recursive += 1
                entries = calls_into(v.pair.follow_outcome.trace, target_addr,
                                     scenario.target.function)
                assert len(entries) >= 2, name
                assert max(ev.depth for ev in entries) >= 2, name  # nested
        assert recursive, "no recursive-agent violation was exercised"
