"""The VM's records: trace events, transactions and setup templates.

All are named tuples, and the interpreter and the setup path build them
with `tuple.__new__` rather than through the Python-level `__new__`.
Either way they keep their class, their equality with a plain tuple of
their fields, their hash, and the repr a report's excerpt prints. The
functions that build them per call allocate no closure cells, and a
holder keeps few containers alive in the environment.
"""

import gc
from dataclasses import replace

import pytest

from mtsc.minisol import parse
from mtsc.scenario import Environment, TxTemplate, build_environment, load_scenario
from mtsc.vm import (CallEntered, CallExited, ExceptionSwallowed, GasSchedule, OpExecuted,
                     Transaction, WorldState, deploy, execute)
from mtsc.vm.interp import _Run

from conftest import scenario_path

PROBE = """
contract Probe {
    uint seen;
    map paid;
    fn poke(t: addr) payable {
        seen = gasleft();
        paid[msg.sender] += msg.value;
        let taken = lowcall t.take() value 1;
        let missed = lowcall t.missing() value 1;
        if (!missed) { seen = seen + 1; }
    }
}
contract Sink {
    fn take() payable { }
}
"""


def probe_state():
    """(state, actor, probe, sink) with both contracts deployed."""
    probe, sink = parse(PROBE).contracts
    state = WorldState()
    actor = state.create_eoa(10**6)
    return state, actor, deploy(state, probe, 10), deploy(state, sink)


def probe_trace(schedule, ops):
    state, actor, probe, sink = probe_state()
    out = execute(state, Transaction(actor, 200_000, probe, "poke", (sink,), 5), schedule,
                  ops=ops)
    assert out.ok
    return out.trace


def named_repr(ev) -> str:
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(ev._fields, ev))
    return f"{type(ev).__name__}({fields})"


@pytest.mark.parametrize("ops", [True, False], ids=["full", "lean"])
def test_every_event_kind_keeps_its_class_equality_hash_and_repr(schedule, ops):
    trace = probe_trace(schedule, ops)
    kinds = {OpExecuted, CallEntered, CallExited, ExceptionSwallowed}
    assert {type(ev) for ev in trace} == kinds
    for ev in trace:
        assert type(ev) in kinds
        plain = tuple(ev)
        assert ev == plain and plain == ev and hash(ev) == hash(plain)
        assert len(ev) == len(type(ev)._fields)
        assert repr(ev) == named_repr(ev)
    swallowed = [ev for ev in trace if type(ev) is ExceptionSwallowed]
    assert [repr(ev) for ev in swallowed] == [
        "ExceptionSwallowed(reason=<FailReason.REVERT: 'Revert'>, depth=0)"]
    # kinds differ in their field counts, so no two kinds compare equal
    assert len({len(kind._fields) for kind in kinds}) == len(kinds)


def test_transactions_and_templates_are_immutable_and_hashable():
    template = load_scenario(scenario_path("simple_dao_withdraw")).setup[0]
    tx = Transaction("0x0001", 50_000, "0x0002", "f", ("0x0003",), 7)
    for record, built in [(tx, Transaction(*tx)), (template, TxTemplate(*template))]:
        assert type(record) is type(built) and record == built
        assert hash(record) == hash(built) and len({record, built}) == 1
        with pytest.raises(AttributeError):
            record.value = 1
    assert Transaction("a", 1, "b") == ("a", 1, "b", None, (), 0)
    assert tx._replace(gas_limit=1).gas_limit == 1 and tx.gas_limit == 50_000


@pytest.mark.parametrize("function", [Environment.transaction, _Run.eval],
                         ids=["Environment.transaction", "_Run.eval"])
def test_record_builders_allocate_no_closure_cells(function):
    # a comprehension over a local gives the function cells (before Python
    # 3.12), one allocated per call: per setup transaction, per evaluation
    assert function.__code__.co_cellvars == ()


def containers_in_accounts(scenario) -> int:
    """GC-tracked objects among the accounts of `scenario`'s environment
    and what each holds: the account, its storage, and the storage's keys
    and values. No collection runs until they are counted, so none
    untracks a tuple they hold."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        env = build_environment(scenario, GasSchedule())
        count = 0
        for acct in env.state.accounts.values():
            for obj in (acct, acct.storage, *acct.storage, *acct.storage.values()):
                count += gc.is_tracked(obj)
        return count
    finally:
        if enabled:
            gc.enable()


# A full collection scans every container the widened holders keep alive,
# and it sets the switch-only tail: a second container per holder shows here.
@pytest.mark.parametrize("deposits,per_holder", [(False, 1), (True, 2)],
                         ids=["plain", "depositing"])
def test_a_holder_keeps_its_account_and_its_position_alive(deposits, per_holder):
    base = load_scenario(scenario_path("simple_dao_withdraw"))

    def widened(holders):
        roles = [f"holder_{i}" for i in range(holders)]
        setup = tuple(TxTemplate(role, "SimpleDAO", "deposit", (role,), 5) for role in roles)
        return replace(base, balances={**base.balances, **dict.fromkeys(roles, 10)},
                       setup=base.setup + setup if deposits else base.setup)

    # the account; a deposit adds its (map, address) storage key
    assert containers_in_accounts(widened(20)) - containers_in_accounts(widened(0)) \
        == 20 * per_holder
