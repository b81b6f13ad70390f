"""`vm.replay`, the setup path, against one `execute` per transaction.

Both must leave the same world state (accounts, storage, fee ledger and
address counter, all in `WorldState.digest`) and report the same first
failure, over the corpus setups, widened copies of them, and generated
sequences that include failing transactions.
"""

import json
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from mtsc import scenario
from mtsc.minisol import ast, parse
from mtsc.scenario import build_environment, load_scenario
from mtsc.vm import FailReason, Transaction, execute, failure, replay

from conftest import CORPUS, CORPUS_SCENARIOS, scenario_path
from support import clone, digest


def replay_by_execute(state, txs, schedule):
    """`replay` as one `execute` per transaction."""
    for i, tx in enumerate(txs):
        out = execute(state, tx, schedule)
        if not out.ok:
            return i, out.status
    return None


def setup_of(path, schedule):
    """(a copy of the world state before setup replay, the setup
    transactions) of the scenario at `path`."""
    seen = {}

    def capture(state, txs, sched):
        seen["state"], seen["txs"] = clone(state), list(txs)
        return replay(state, seen["txs"], sched)

    with mock.patch.object(scenario, "replay", capture):
        build_environment(load_scenario(path), schedule)
    return seen["state"], seen["txs"]


def assert_replay_matches_execute(state, txs, schedule):
    by_replay, by_execute = clone(state), clone(state)
    got = replay(by_replay, iter(txs), schedule)
    assert got == replay_by_execute(by_execute, txs, schedule)
    assert digest(by_replay) == digest(by_execute)
    return got


@pytest.mark.parametrize("name", CORPUS_SCENARIOS)
def test_replay_matches_execute_on_the_corpus_setups(schedule, name):
    state, txs = setup_of(scenario_path(name), schedule)
    assert assert_replay_matches_execute(state, txs, schedule) is None


def widened(name, holders):
    """The corpus scenario `name` with `holders` more funded EOAs. Each
    holder deposits for itself when the target contract has a payable
    `fn f(x: addr)`, and otherwise pays the holder before it."""
    doc = json.loads(scenario_path(name).read_text())
    doc["sources"] = [str(CORPUS / src) for src in doc["sources"]]
    callee = doc["target"]["callee"]
    deposit = None
    for src in doc["sources"]:
        for contract in parse(Path(src).read_text()).contracts:
            for fn in contract.functions if contract.name == callee else ():
                if fn.payable and [p.kind for p in fn.params] == [ast.Kind.ADDR]:
                    deposit = deposit or fn.name
    setup = doc.setdefault("setup", [])
    for i in range(holders):
        role = f"holder_{i:03d}"
        doc["balances"][role] = 10_000 + i
        if deposit is not None:
            setup.append({"actor": role, "callee": callee, "function": deposit,
                          "args": [role], "value": 1_000 + i})
        elif i:
            setup.append({"actor": role, "callee": f"holder_{i - 1:03d}",
                          "function": None, "value": 1_000 + i})
    return doc


@pytest.mark.parametrize("name", CORPUS_SCENARIOS)
def test_replay_matches_execute_on_widened_setups(schedule, tmp_path, name):
    path = tmp_path / f"{name}.scenario.json"
    path.write_text(json.dumps(widened(name, 40)))
    state, txs = setup_of(path, schedule)
    assert len(txs) >= 39
    assert assert_replay_matches_execute(state, txs, schedule) is None
    # the same setup with a payment beyond the payer's balance half way
    mid = len(txs) // 2
    payer = txs[mid]
    txs.insert(mid, Transaction(payer.actor, schedule.block_gas_limit, payer.callee,
                                None, (), 2**127))
    assert assert_replay_matches_execute(state, txs, schedule) == (
        mid, failure(FailReason.BALANCE_INSUFFICIENT))


_PRESTATES = {}


def prestate(name, schedule):
    if name not in _PRESTATES:
        _PRESTATES[name] = setup_of(scenario_path(name), schedule)[0]
    return _PRESTATES[name]


def _argument(kind, addrs):
    if kind == ast.Kind.UINT:
        return st.sampled_from([0, 1, 7, 1_000, 10**6, 2**128 - 1])
    if kind == ast.Kind.BOOL:
        return st.booleans()
    return st.sampled_from(addrs)


@given(name=st.sampled_from(CORPUS_SCENARIOS), data=st.data())
@settings(deadline=None, max_examples=60)
def test_replay_matches_execute_on_generated_sequences(schedule, name, data):
    state = prestate(name, schedule)
    addrs = sorted(state.accounts)
    txs = []
    for _ in range(data.draw(st.integers(1, 10), label="length")):
        callee = data.draw(st.sampled_from(addrs))
        code = state.accounts[callee].code
        names = [fn.name for fn in code.functions] if code is not None else []
        function = data.draw(st.sampled_from([None, "absent"] + names))
        fn = code.function(function) if code is not None and function else None
        args = tuple(data.draw(_argument(p.kind, addrs)) for p in fn.params) if fn else ()
        txs.append(Transaction(
            data.draw(st.sampled_from(addrs)),
            data.draw(st.one_of(st.just(schedule.block_gas_limit),
                                st.integers(0, 120_000))),
            callee, function, args,
            data.draw(st.sampled_from([0, 1, 1_000, 10**8, 2**127]))))
    assert_replay_matches_execute(state, txs, schedule)


def test_replay_reads_no_transaction_past_the_first_failure(schedule):
    state, txs = setup_of(scenario_path("simple_dao_withdraw"), schedule)
    broke = Transaction(txs[0].actor, 0, txs[0].callee)  # below the base fee
    read = []

    def feed():
        for tx in [txs[0], broke, txs[0]]:
            read.append(tx)
            yield tx

    limit = sys.getrecursionlimit()
    assert replay(state, feed(), schedule) == (1, failure(FailReason.OUT_OF_GAS))
    assert read == [txs[0], broke]
    assert sys.getrecursionlimit() == limit


def test_replay_restores_the_recursion_limit_when_its_input_raises(schedule):
    state, txs = setup_of(scenario_path("simple_dao_withdraw"), schedule)

    def feed():
        yield txs[0]
        raise RuntimeError("no more")

    limit = sys.getrecursionlimit()
    with pytest.raises(RuntimeError):
        replay(state, feed(), schedule)
    assert sys.getrecursionlimit() == limit
