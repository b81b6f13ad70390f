"""Interpreter semantics: gas accounting, call forms, rollback, snapshots.

Expected gas figures are derived independently by listing the operations
a run must perform and summing their schedule costs by hand; the trace is
then required to agree with the listing.
"""

import operator
import re

import pytest

from mtsc.minisol import parse, validate
from mtsc.vm import (
    UINT_MAX,
    CallEntered,
    CallExited,
    ExceptionSwallowed,
    FailReason,
    GasSchedule,
    OpExecuted,
    ScheduleError,
    Transaction,
    UnknownSnapshot,
    WorldState,
    deploy,
    execute,
    failure,
    load_schedule,
)

from mtsc.vm.schedule import MAX_FRAMES

from conftest import CORPUS
from support import clone, digest

S = GasSchedule()
AMPLE = S.block_gas_limit


def fresh_dao(actor_balance=200_000_000, dao_balance=100_000_000):
    unit = parse((CORPUS / "simple_dao.msol").read_text())
    assert validate(unit) == []
    state = WorldState()
    actor = state.create_eoa(actor_balance)
    dao = deploy(state, unit.contracts[0], dao_balance)
    return state, actor, dao


def run(state, actor, callee, fn, args=(), value=0, gas=AMPLE):
    return execute(state, Transaction(actor, gas, callee, fn, tuple(args), value), S)


def op_sum(*ops):
    return sum(getattr(S, name) for name in ops)


# -- deployment ------------------------------------------------------------


def test_deploy_assigns_sequential_addresses():
    unit = parse("contract Empty { }")
    state = WorldState()
    a1 = deploy(state, unit.contracts[0], 10)
    a2 = deploy(state, unit.contracts[0], 0)
    assert a1 != a2
    assert state.account(a1).code is state.account(a2).code
    assert state.account(a2).storage == {}
    assert state.account(a2).balance == 0


def test_deploy_is_deterministic_from_equal_prestate():
    unit = parse("contract A { } contract B { uint x; }")
    a, b = unit.contracts
    s1, s2 = WorldState(), WorldState()
    # addresses come from the counter, not the code: either deployment
    # order yields the same address pair
    assert {deploy(s1, a), deploy(s1, b)} == {deploy(s2, b), deploy(s2, a)}
    assert deploy(s1, a) == deploy(s2, a)


def test_schedule_defaults_pin_the_published_costs():
    assert S.sstore_set == 20_000   # storage slot changed from zero
    assert S.sstore_reset == 5_000  # any other storage write
    assert S.stipend == 2_300       # fixed transfer stipend
    assert S.sstore_set > S.sstore_reset


# -- gas accounting ----------------------------------------------------------


def test_nop_consumes_base_and_dispatch():
    unit = parse("contract C { fn nop() { } }")
    state = WorldState()
    actor = state.create_eoa(0)
    c = deploy(state, unit.contracts[0])
    out = run(state, actor, c, "nop")
    assert out.ok
    # oracle: the full operation listing of a nop call
    assert out.gas_consumed == op_sum("base_tx", "dispatch") == 21_100
    assert [ev.op for ev in out.trace] == ["base_tx", "dispatch"]


def test_withdraw_gas_matches_hand_listing():
    state, actor, dao = fresh_dao()
    assert run(state, actor, dao, "deposit", (actor,), 100_000_000).ok
    out = run(state, actor, dao, "withdraw", (1_000_000,))
    assert out.ok
    # oracle: dispatch, require(balances[sender] >= amount), low-level value
    # call to a codeless account, then balances[sender] -= amount
    expected = op_sum(
        "base_tx", "dispatch",
        "require", "sload", "compare",
        "call_base", "value_transfer_surcharge",
        "sload", "arith", "sstore_reset",
    )
    assert expected == 36_216
    assert out.gas_consumed == expected
    assert out.balance_delta == 1_000_000
    assert state.account(dao).storage[("balances", actor)] == 99_000_000


def test_deposit_prices_fresh_storage_slot():
    state, actor, dao = fresh_dao()
    out = run(state, actor, dao, "deposit", (actor,), 5)
    assert out.gas_consumed == op_sum("base_tx", "dispatch", "sstore_set") == 41_100
    assert out.balance_delta == -5


def test_gas_limit_below_intrinsic_fails_out_of_gas():
    state, actor, dao = fresh_dao()
    assert run(state, actor, dao, "deposit", (actor,), 100).ok
    for limit in (0, 1, S.base_tx - 1, S.base_tx, 36_215):
        snap = state.snapshot()
        out = run(state, actor, dao, "withdraw", (1,), gas=limit)
        state.restore(snap)
        assert out.status.reason == FailReason.OUT_OF_GAS
        assert out.gas_consumed == limit  # a failed allocation burns in full
        assert out.balance_delta == 0


def test_top_level_revert_consumes_partially():
    unit = parse("contract C { fn f() { revert(); } }")
    state = WorldState()
    actor = state.create_eoa(0)
    c = deploy(state, unit.contracts[0])
    out = run(state, actor, c, "f")
    assert out.status.reason == FailReason.REVERT
    assert out.gas_consumed == op_sum("base_tx", "dispatch", "revert")
    assert out.gas_consumed < AMPLE


def test_require_failure_rolls_back():
    state, actor, dao = fresh_dao()
    before_digest = digest(state)
    out = run(state, actor, dao, "withdraw", (1,))  # nothing deposited
    assert out.status.reason == FailReason.REQUIRE_FAILED
    assert out.balance_delta == 0
    fee = out.gas_consumed
    assert state.fee_ledger == fee
    state.fee_ledger = 0
    assert digest(state) == before_digest


def test_failure_leaves_state_byte_equal():
    state, actor, dao = fresh_dao()
    assert run(state, actor, dao, "deposit", (actor,), 1_000).ok
    before = digest(state)
    fees = state.fee_ledger
    out = run(state, actor, dao, "withdraw", (1_000,), gas=30_000)
    assert not out.ok
    state.fee_ledger = fees
    assert digest(state) == before


# -- arithmetic ------------------------------------------------------------


def test_underflow_raises_arithmetic_error():
    unit = parse("contract C { uint x; fn f() { x -= 1; } }")
    state = WorldState()
    actor = state.create_eoa(0)
    c = deploy(state, unit.contracts[0])
    out = run(state, actor, c, "f")
    assert out.status.reason == FailReason.ARITHMETIC
    assert state.account(c).storage == {}


def test_overflow_raises_instead_of_wrapping():
    big = 2**128 - 1
    unit = parse("contract C { uint x; fn f(n: uint) { x = n + 1; } }")
    state = WorldState()
    actor = state.create_eoa(0)
    c = deploy(state, unit.contracts[0])
    out = run(state, actor, c, "f", (big,))
    assert out.status.reason == FailReason.ARITHMETIC


def test_value_above_balance_is_rejected():
    state, actor, dao = fresh_dao(actor_balance=10)
    out = run(state, actor, dao, "deposit", (actor,), 11)
    assert out.status.reason == FailReason.BALANCE_INSUFFICIENT
    assert out.gas_consumed == 0


# -- dispatch rules -----------------------------------------------------------


def test_unknown_function_dispatches_fallback():
    unit = parse("contract C { uint hits; fallback payable { hits += 1; } }")
    state = WorldState()
    actor = state.create_eoa(100)
    c = deploy(state, unit.contracts[0])
    helper = parse(
        "contract H { fn poke(t: addr) { require(lowcall t.missing()); } }")
    h = deploy(state, helper.contracts[0])
    assert validate(helper) == []
    out = run(state, actor, h, "poke", (c,))
    assert out.ok
    assert state.account(c).storage["hits"] == 1


def test_plain_transfer_to_contract_dispatches_the_fallback():
    unit = parse("contract C { uint hits; fallback payable { hits += 1; } }")
    state = WorldState()
    actor = state.create_eoa(100)
    c = deploy(state, unit.contracts[0])
    out = execute(state, Transaction(actor, AMPLE, c, None, (), 25), S)
    assert out.ok
    assert state.account(c).balance == 25
    assert state.account(c).storage["hits"] == 1


def test_plain_transfer_to_contract_without_fallback_reverts():
    unit = parse("contract C { fn f() { } }")
    state = WorldState()
    actor = state.create_eoa(100)
    c = deploy(state, unit.contracts[0])
    out = execute(state, Transaction(actor, AMPLE, c, None, (), 10), S)
    assert out.status.reason == FailReason.REVERT
    assert state.account(c).balance == 0


def test_value_to_non_payable_function_reverts():
    state, actor, dao = fresh_dao()
    out = run(state, actor, dao, "withdraw", (1,), value=5)
    assert out.status.reason == FailReason.REVERT


def test_plain_transfer_to_eoa_costs_base_only():
    state = WorldState()
    a = state.create_eoa(100)
    b = state.create_eoa(0)
    out = execute(state, Transaction(a, AMPLE, b, None, (), 40), S)
    assert out.ok
    assert out.gas_consumed == S.base_tx
    assert out.balance_delta == -40
    assert state.account(b).balance == 40


def test_call_depth_limit_reported():
    unit = parse("contract C { fn f(t: addr) { dcall t.f(t); } }")
    state = WorldState()
    actor = state.create_eoa(0)
    c = deploy(state, unit.contracts[0])
    out = run(state, actor, c, "f", (c,))
    assert out.status.reason == FailReason.DEPTH_EXCEEDED
    assert out.gas_consumed < AMPLE


# -- exception semantics per call form ---------------------------------------

TWO_HOPS = """
contract Inner {
    uint poked;
    fn boom() { revert(); }
    fn poke() { poked += 1; }
}
contract Middle {
    uint step;
    fn via_direct(t: addr) { step = 1; dcall t.boom(); step = 2; }
    fn via_low(t: addr) { step = 1; require(!(lowcall t.boom())); step = 2; }
}
contract Outer {
    bool seen;
    fn probe(m: addr, t: addr) { seen = lowcall m.via_direct(t); }
}
"""


def test_direct_call_failure_unwinds_to_nearest_low_level_boundary():
    unit = parse(TWO_HOPS)
    assert validate(unit) == []
    state = WorldState()
    actor = state.create_eoa(0)
    inner = deploy(state, unit.contract("Inner"))
    middle = deploy(state, unit.contract("Middle"))
    outer = deploy(state, unit.contract("Outer"))

    out = run(state, actor, outer, "probe", (middle, inner))
    assert out.ok
    # the revert crossed the dcall boundary, killing Middle's frame, and
    # stopped at Outer's low-level call, which observed false
    assert state.account(outer).storage["seen"] is False
    assert state.account(middle).storage == {}  # step=1 rolled back
    swallows = [ev for ev in out.trace if isinstance(ev, ExceptionSwallowed)]
    assert [ev.reason for ev in swallows] == [FailReason.REVERT]


def test_low_level_call_failure_yields_false_and_keeps_caller_state():
    unit = parse(TWO_HOPS)
    state = WorldState()
    actor = state.create_eoa(0)
    inner = deploy(state, unit.contract("Inner"))
    middle = deploy(state, unit.contract("Middle"))
    out = run(state, actor, middle, "via_low", (inner,))
    assert out.ok
    assert state.account(middle).storage["step"] == 2


def test_transfer_failure_propagates_send_failure_does_not():
    src = """
    contract Sink { fallback { revert(); } }
    contract Payer {
        uint done;
        fn pay_transfer(t: addr) { transfer t value 1; done = 1; }
        fn pay_send(t: addr) { send t value 1; done = 1; }
    }
    """
    unit = parse(src)
    assert validate(unit) == []
    state = WorldState()
    actor = state.create_eoa(0)
    sink = deploy(state, unit.contract("Sink"))
    payer = deploy(state, unit.contract("Payer"), 1_000)

    out = run(state, actor, payer, "pay_transfer", (sink,))
    assert out.status.reason == FailReason.REVERT
    assert state.account(payer).storage == {}

    out = run(state, actor, payer, "pay_send", (sink,))
    assert out.ok
    assert state.account(payer).storage["done"] == 1
    assert state.account(sink).balance == 0


def test_send_forwards_exactly_the_stipend():
    src = "contract Greedy { uint a; uint b; fallback payable { a = 1; b = 1; } }"
    unit = parse(src)
    state = WorldState()
    actor = state.create_eoa(0)
    greedy = deploy(state, unit.contracts[0])
    payer = deploy(state, parse(
        "contract P { fn go(t: addr) { send t value 5; } }").contracts[0], 100)
    out = run(state, actor, payer, "go", (greedy,))
    assert out.ok
    enter, exit_ = [(e, x) for e, x in _pairs(out.trace)][0]
    assert enter.call_form == "send"
    assert enter.gas_forwarded == S.stipend
    assert not exit_.success and exit_.reason == FailReason.OUT_OF_GAS
    assert exit_.gas_used == S.stipend  # the stipend burned with the child
    assert state.account(greedy).balance == 0
    assert state.account(greedy).storage == {}


def test_reserved_gas_must_be_available_in_full():
    src = "contract C { fn f(t: addr) { lowcall t value 1 gas 2300; } }"
    unit = parse(src)
    state = WorldState()
    actor = state.create_eoa(0)
    sink = state.create_eoa(0)
    c = deploy(state, unit.contracts[0], 100)
    need = op_sum("base_tx", "dispatch", "call_base", "value_transfer_surcharge") + 2300
    out = run(state, actor, c, "f", (sink,), gas=need)
    assert out.ok
    out = run(state, actor, c, "f", (sink,), gas=need - 1)
    assert out.status.reason == FailReason.OUT_OF_GAS


def test_unused_stipend_is_not_refunded():
    # sending to a codeless account burns the whole stipend: consumption
    # is limit-independent, which the estimator relies on
    src = "contract C { fn f(t: addr) { send t value 3; } }"
    state = WorldState()
    actor = state.create_eoa(0)
    sink = state.create_eoa(0)
    c = deploy(state, parse(src).contracts[0], 100)
    out = run(state, actor, c, "f", (sink,))
    expected = op_sum("base_tx", "dispatch", "call_base", "value_transfer_surcharge")
    assert out.gas_consumed == expected
    assert state.account(sink).balance == 3


# -- snapshots ------------------------------------------------------------


def test_snapshot_restore_round_trip():
    state, actor, dao = fresh_dao()
    before_digest = digest(state)
    sid = state.snapshot()
    assert run(state, actor, dao, "deposit", (actor,), 777).ok
    assert digest(state) != before_digest
    state.restore(sid)
    assert digest(state) == before_digest


def test_restore_consumes_the_snapshot():
    state = WorldState()
    sid = state.snapshot()
    state.restore(sid)
    with pytest.raises(UnknownSnapshot):
        state.restore(sid)


def test_restore_pops_later_snapshots():
    state = WorldState()
    outer = state.snapshot()
    inner = state.snapshot()
    state.restore(outer)
    with pytest.raises(UnknownSnapshot):
        state.restore(inner)


def test_snapshot_covers_the_address_counter():
    unit = parse("contract Empty { }")
    state = WorldState()
    sid = state.snapshot()
    first = deploy(state, unit.contracts[0])
    state.restore(sid)
    assert deploy(state, unit.contracts[0]) == first


# -- the rollback journal -------------------------------------------------------

JOURNAL = """
contract Inner {
    uint poked;
    map marks;
    fn scribble(k: addr) payable { poked = 7; marks[k] = 3; revert(); }
}
contract Middle {
    uint step;
    map seen;
    fn relay(t: addr) payable {
        step = 1; seen[t] = 2; dcall t.scribble(this) value 4; step = 9;
    }
}
contract Outer {
    bool ok;
    fn direct(t: addr) payable { ok = lowcall t.scribble(this) value 5; }
    fn twice(m: addr, t: addr) payable {
        ok = lowcall m.relay(t) value 6;
        require(balance(this) == 100);
    }
}
"""


def journal_world():
    unit = parse(JOURNAL)
    assert validate(unit) == []
    state = WorldState()
    actor = state.create_eoa(1_000)
    inner = deploy(state, unit.contract("Inner"))
    middle = deploy(state, unit.contract("Middle"), 50)
    outer = deploy(state, unit.contract("Outer"), 100)
    return state, actor, inner, middle, outer


def expected_digest(before, out, addr, storage):
    """Digest of `before` plus only the fee and the given top-frame writes."""
    ref = clone(before)
    ref.fee_ledger += out.gas_consumed
    ref.account(addr).storage.update(storage)
    return digest(ref)


def test_swallowed_child_writes_to_absent_keys_are_deleted():
    state, actor, inner, _, outer = journal_world()
    before = clone(state)
    out = run(state, actor, outer, "direct", (inner,))
    assert out.ok
    assert sum(isinstance(ev, ExceptionSwallowed) for ev in out.trace) == 1
    # the child's fresh keys are gone, not reset to their defaults
    assert state.account(inner).storage == {}
    assert digest(state) == expected_digest(before, out, outer, {"ok": False})


def test_failing_dcall_unwinds_two_frames():
    state, actor, inner, middle, outer = journal_world()
    before = clone(state)
    out = run(state, actor, outer, "twice", (middle, inner))
    assert out.ok
    exits = [ev for ev in out.trace if isinstance(ev, CallExited)]
    assert [ev.success for ev in exits] == [False, False]
    # value moved into Middle and on into Inner came back with the unwind
    assert state.account(middle).storage == {}
    assert state.account(middle).balance == 50
    assert state.account(inner).balance == 0
    assert digest(state) == expected_digest(before, out, outer, {"ok": False})


def test_caller_reference_sees_the_reverted_balance():
    state, actor, inner, middle, outer = journal_world()
    outer_acct, middle_acct = state.account(outer), state.account(middle)
    assert run(state, actor, outer, "twice", (middle, inner)).ok
    assert state.account(outer) is outer_acct
    assert outer_acct.balance == 100 and middle_acct.balance == 50
    # a failed transaction rewinds the value the actor sent in
    actor_acct = state.account(actor)
    out = run(state, actor, inner, "scribble", (actor,), value=10)
    assert out.status.reason == FailReason.REVERT
    assert actor_acct.balance == 1_000


def test_nested_snapshots_restore_their_own_points():
    state, actor, dao = fresh_dao()
    start = digest(state)
    outer = state.snapshot()
    assert run(state, actor, dao, "deposit", (actor,), 10).ok
    middle = digest(state)
    inner = state.snapshot()
    assert run(state, actor, dao, "deposit", (dao,), 20).ok
    state.restore(inner)
    assert digest(state) == middle
    again = state.snapshot()
    assert run(state, actor, dao, "withdraw", (5,)).ok
    state.restore(outer)  # also consumes the snapshot taken after it
    assert digest(state) == start
    with pytest.raises(UnknownSnapshot):
        state.restore(again)


def test_create_after_restore_reuses_the_addresses():
    unit = parse("contract Empty { }")
    state = WorldState()
    state.create_eoa(5)
    start = digest(state)
    sid = state.snapshot()
    eoa = state.create_eoa(7)
    contract = deploy(state, unit.contracts[0], 3)
    state.restore(sid)
    assert not state.has_account(eoa) and not state.has_account(contract)
    assert digest(state) == start
    assert state.create_eoa(7) == eoa
    assert deploy(state, unit.contracts[0], 3) == contract


def test_journal_is_dropped_without_an_open_snapshot():
    state, actor, dao = fresh_dao()
    for _ in range(3):
        assert run(state, actor, dao, "deposit", (actor,), 10).ok
    assert state.checkpoint() == 0
    sid = state.snapshot()
    assert run(state, actor, dao, "deposit", (actor,), 10).ok
    assert state.checkpoint() > 0  # the open snapshot still needs it
    state.restore(sid)


# -- determinism and audits ---------------------------------------------------


def test_execution_is_deterministic():
    state, actor, dao = fresh_dao()
    assert run(state, actor, dao, "deposit", (actor,), 10_000).ok
    a = run(clone(state), actor, dao, "withdraw", (10_000,))
    b = run(clone(state), actor, dao, "withdraw", (10_000,))
    assert a == b
    assert a.trace == b.trace


def test_gas_limit_independence_without_gasleft_or_swallows():
    state, actor, dao = fresh_dao()
    assert run(state, actor, dao, "deposit", (actor,), 10_000).ok
    base = run(clone(state), actor, dao, "withdraw", (10_000,), gas=40_000)
    assert base.ok
    for gas in (41_000, 100_000, AMPLE):
        again = run(clone(state), actor, dao, "withdraw", (10_000,), gas=gas)
        assert (again.ok, again.gas_consumed, again.balance_delta) == \
               (base.ok, base.gas_consumed, base.balance_delta)


# -- invariance ranges --------------------------------------------------------
# An *event* in these tests' names is a gas-dependent decision that bounds
# the run's invariance range (`Outcome.limits`).

GAS_PROBES = """
contract Reader {
    uint hoard;
    fallback payable { require(gasleft() > 0); }
    fn read() { require(gasleft() > 0); }
    fn heavy() { hoard = 1; }
    fn relay(t: addr) payable { lowcall t gas 5000; }
}
contract Caller {
    uint done;
    fn top() { require(gasleft() > 0); }
    fn via_send(t: addr) { send t value 1; }
    fn via_transfer(t: addr) { transfer t value 1; }
    fn via_lowcall(t: addr) { lowcall t.read(); }
    fn via_reserve(t: addr) { lowcall t.read() gas 2300; }
    fn via_dcall(t: addr) { dcall t.heavy(); }
    fn via_heavy_lowcall(t: addr) { lowcall t.heavy(); }
    fn via_relay(r: addr, t: addr) {
        if (lowcall r.relay(t) value 1) { done = 1; }
    }
}
"""


@pytest.fixture
def gas_probes():
    unit = parse(GAS_PROBES)
    assert validate(unit) == []
    state = WorldState()
    actor = state.create_eoa(0)
    reader = deploy(state, unit.contract("Reader"))
    caller = deploy(state, unit.contract("Caller"), 1_000)
    return state, actor, reader, caller


def probe(gas_probes, fn, *args, gas=AMPLE):
    state, actor, _, caller = gas_probes
    return run(clone(state), actor, caller, fn, args, gas=gas)


def bound_by_a_read(gas_probes, fn, *args):
    """Whether a `gasleft() > 0` read bounds the range of a successful
    run: the read holds only while a unit of gas is left at it, one unit
    above the run's consumption."""
    out = probe(gas_probes, fn, *args)
    assert out.ok
    lo, hi = out.limits
    assert hi == AMPLE
    assert lo in (out.gas_consumed, out.gas_consumed + 1)
    return lo == out.gas_consumed + 1


def fails_below_down_to_zero(gas_probes, fn, *args):
    """A limit below the run's consumption fails out of gas, and its range
    reaches 0: no gas-dependent decision turns the run lower down."""
    ample = probe(gas_probes, fn, *args)
    starved = probe(gas_probes, fn, *args, gas=ample.gas_consumed - 1)
    return starved.status.reason == FailReason.OUT_OF_GAS and starved.limits[0] == 0


def test_gasleft_in_the_top_frame_is_an_event(gas_probes):
    assert bound_by_a_read(gas_probes, "top")
    assert probe(gas_probes, "top", gas=probe(gas_probes, "top").gas_consumed).status \
        == failure(FailReason.REQUIRE_FAILED)


@pytest.mark.parametrize("fn", ["via_send", "via_transfer"])
def test_gasleft_under_a_stipend_call_is_not_an_event(gas_probes, fn):
    reader = gas_probes[2]
    assert not bound_by_a_read(gas_probes, fn, reader)
    assert fails_below_down_to_zero(gas_probes, fn, reader)


def test_gasleft_under_a_forward_all_lowcall_is_an_event(gas_probes):
    reader = gas_probes[2]
    assert bound_by_a_read(gas_probes, "via_lowcall", reader)
    # one unit lower the child's read fails, and the caller goes on
    assert probe(gas_probes, "via_lowcall", reader,
                 gas=probe(gas_probes, "via_lowcall", reader).gas_consumed - 1).ok


def test_forward_all_lowcall_into_an_eoa_is_not_an_event(gas_probes):
    actor = gas_probes[1]
    assert not bound_by_a_read(gas_probes, "via_lowcall", actor)
    assert fails_below_down_to_zero(gas_probes, "via_lowcall", actor)


def test_reserve_call_is_not_an_event(gas_probes):
    reader = gas_probes[2]
    out = probe(gas_probes, "via_reserve", reader)
    # the reserve, not the read in its fixed-budget child, sets the lower end
    assert out.limits == (S.base_tx + op_sum("dispatch", "call_base") + 2_300, AMPLE)
    below = probe(gas_probes, "via_reserve", reader, gas=out.limits[0] - 1)
    assert below.status.reason == FailReason.OUT_OF_GAS and below.limits[0] == 0


def test_forward_all_dcall_is_not_an_event(gas_probes):
    reader = gas_probes[2]
    out = probe(gas_probes, "via_dcall", reader)
    assert out.limits == (out.gas_consumed, AMPLE)
    # a child that starves lower down fails its caller too
    assert fails_below_down_to_zero(gas_probes, "via_dcall", reader)


def test_swallowed_heavy_lowcall_is_an_event(gas_probes):
    reader = gas_probes[2]
    ample = probe(gas_probes, "via_heavy_lowcall", reader)
    assert ample.limits == (ample.gas_consumed, AMPLE)
    # a unit lower the child starves, the caller goes on dry and succeeds,
    # consuming its whole limit; a limit higher by the shortfall pays it
    gas = ample.gas_consumed - 1
    starved = probe(gas_probes, "via_heavy_lowcall", reader, gas=gas)
    assert starved.ok and starved.gas_consumed == gas
    assert starved.limits == (S.base_tx + op_sum("dispatch", "call_base", "dispatch"), gas)


def test_swallowed_child_needing_reserve_headroom_is_an_event(gas_probes):
    # the child consumes less than its stipend, but its reserve needs more;
    # starved of that headroom it fails, the caller skips its write and
    # succeeds on less gas, while a limit just below the ample run fails
    state, actor, reader, caller = gas_probes

    def relay(gas):
        return run(clone(state), actor, caller, "via_relay", (reader, actor), gas=gas)

    ample = relay(AMPLE)
    assert ample.ok and ample.limits == (ample.gas_consumed, AMPLE)
    (child,) = [ev for ev in ample.trace
                if isinstance(ev, CallExited) and ev.depth == 0]
    assert child.success and child.gas_used < S.stipend
    short = relay(ample.gas_consumed - 1)
    assert short.status.reason == FailReason.OUT_OF_GAS
    # out of gas down to where the child's reserve turns the run
    lo = short.limits[0]
    assert lo > 0 and not relay(lo).ok and relay(lo - 1).ok
    assert relay(op_sum("base_tx", "dispatch", "call_base",
                        "value_transfer_surcharge") + 1_000).ok


# -- invariance ranges below a failing run ---------------------------------------

BELOW_PROBES = """
contract Probe {
    uint x; uint y; uint z;
    fn heavy() { x = 1; }
    fn heavy_revert() { x = 1; revert(); }
    fn read() { require(gasleft() > 0); }
    fn relay() { y = 1; lowcall this.heavy(); }
    fn top_read() { require(gasleft() > 100000); }
    fn after_read() { lowcall this.read(); revert(); }
    fn after_heavy() { lowcall this.heavy(); revert(); }
    fn after_revert() { lowcall this.heavy_revert(); revert(); }
    fn branch() { if (lowcall this.relay()) { z = 1; } else { } }
}
"""


@pytest.fixture
def below_probes():
    unit = parse(BELOW_PROBES)
    assert validate(unit) == []
    state = WorldState()
    actor = state.create_eoa(0)
    probe = deploy(state, unit.contract("Probe"))

    def probe_run(fn, gas=AMPLE):
        return run(clone(state), actor, probe, fn, gas=gas)
    return probe_run


def child_exits(out, depth=0):
    return [ev for ev in out.trace if isinstance(ev, CallExited) and ev.depth == depth]


def test_gasleft_is_an_event_above_and_below(below_probes):
    # a read that fails holds at every lower limit: it bounds the range above
    top = below_probes("top_read", gas=100_000)
    assert top.status.reason == FailReason.REQUIRE_FAILED
    lo, hi = top.limits
    assert lo == top.gas_consumed and hi < AMPLE
    # at hi the read sees the literal itself and still fails; one unit
    # higher it holds
    assert below_probes("top_read", gas=hi).limits == (lo, hi)
    assert below_probes("top_read", gas=hi + 1).ok
    # a read that holds bounds it below: one unit lower the read fails
    nested = below_probes("after_read")
    assert nested.status.reason == FailReason.REVERT
    assert nested.limits == (nested.gas_consumed + 1, AMPLE)


LITERAL = 50_000
COMPARE = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
           "<=": operator.le, ">": operator.gt, ">=": operator.ge}


@pytest.mark.parametrize("side", ["gasleft-left", "gasleft-right"])
@pytest.mark.parametrize("op", sorted(COMPARE))
def test_a_read_that_sees_the_literal_keeps_the_comparisons_range(op, side):
    cond = (f"gasleft() {op} {LITERAL}" if side == "gasleft-left"
            else f"{LITERAL} {op} gasleft()")
    unit = parse(f"contract G {{ fn f() {{ require({cond}); }} }}")
    state = WorldState()
    actor = state.create_eoa(0)
    g = deploy(state, unit.contracts[0])

    def outcome_at(gas):
        out = run(clone(state), actor, g, "f", gas=gas)
        return out, (out.status, out.gas_consumed, out.balance_delta)

    # the limit at which the read sees the literal
    at = op_sum("base_tx", "dispatch", "require", "compare", "gasleft") + LITERAL
    out, seen = outcome_at(at)
    assert out.ok is COMPARE[op](LITERAL, LITERAL)
    lo, hi = out.limits
    assert lo <= at <= hi
    assert outcome_at(lo)[1] == outcome_at(hi)[1] == seen
    if op not in ("==", "!="):
        assert hi > lo


def test_swallowed_child_that_succeeded_beyond_its_grant_is_an_event_below(below_probes):
    out = below_probes("after_heavy")
    assert out.status.reason == FailReason.REVERT
    (child,) = child_exits(out)
    assert child.success and child.gas_used > 0
    # the child's need sets the lower end; one unit lower it starves
    lo = out.limits[0]
    assert lo == out.gas_consumed
    (starved,) = child_exits(below_probes("after_heavy", gas=lo - 1))
    assert starved.reason == FailReason.OUT_OF_GAS


def test_starved_swallowed_child_is_an_event_above_only(below_probes):
    ample = below_probes("after_heavy")
    starved = below_probes("after_heavy", gas=ample.gas_consumed - S.sstore_set)
    (child,) = child_exits(starved)
    assert child.reason == FailReason.OUT_OF_GAS
    assert not starved.ok
    # a limit higher by the child's shortfall lets it finish
    hi = starved.limits[1]
    assert hi < AMPLE
    assert child_exits(below_probes("after_heavy", gas=hi))[0].reason == FailReason.OUT_OF_GAS
    assert child_exits(below_probes("after_heavy", gas=hi + 1))[0].success
    for gas in range(0, starved.gas_consumed, 997):
        assert not below_probes("after_heavy", gas=gas).ok


def test_swallowed_child_that_failed_is_an_event_above_only(below_probes):
    out = below_probes("after_revert")
    (child,) = child_exits(out)
    assert child.reason == FailReason.REVERT and child.gas_used > 0
    assert out.limits == (out.gas_consumed, AMPLE)
    for gas in range(0, out.gas_consumed, 997):
        assert not below_probes("after_revert", gas=gas).ok


def test_child_succeeding_after_its_own_child_starved_is_an_event_below(below_probes):
    # relay's child heavy starves and relay goes on with 0 gas and succeeds;
    # branch's write then runs out. Lower down relay itself fails and
    # branch takes the free branch and succeeds
    by_gas = {gas: below_probes("branch", gas=gas) for gas in range(0, 90_000, 250)}
    runs = [(gas, out) for gas, out in sorted(by_gas.items())
            if not out.ok and [ev.success for ev in child_exits(out, 1)] == [False]
            and [ev.success for ev in child_exits(out)] == [True]]
    assert runs
    for gas, out in runs:
        # out of gas down to where relay's own need turns the run
        lo = out.limits[0]
        assert out.status.reason == FailReason.OUT_OF_GAS and lo > 0, gas
        assert all(by_gas[other].status == out.status for other in by_gas if lo <= other <= gas)
        assert any(by_gas[lower].ok for lower in by_gas if lower < lo)


def _pairs(trace):
    stack, out = [], []
    for ev in trace:
        if isinstance(ev, CallEntered):
            stack.append(ev)
        elif isinstance(ev, CallExited):
            out.append((stack.pop(), ev))
    assert not stack or True
    return out


def test_trace_call_events_nest():
    state, actor, dao = fresh_dao()
    assert run(state, actor, dao, "deposit", (actor,), 10_000).ok
    out = run(state, actor, dao, "withdraw", (10_000,))
    depth = 0
    for ev in out.trace:
        if isinstance(ev, CallEntered):
            assert ev.depth == depth
            depth += 1
        elif isinstance(ev, CallExited):
            depth -= 1
            assert ev.depth == depth
    assert depth == 0


@pytest.mark.parametrize("fn,args,value", [
    ("deposit", ("ACTOR",), 9),
    ("withdraw", (5,), 0),
    ("withdraw_a", (5,), 0),
    ("withdraw_b", (5,), 0),
])
def test_total_gas_audit(fn, args, value):
    # total consumption == sum of traced operation costs minus the part
    # of child work the value-transfer stipends funded
    state, actor, dao = fresh_dao()
    assert run(state, actor, dao, "deposit", (actor,), 100).ok
    args = tuple(actor if a == "ACTOR" else a for a in args)
    out = run(state, actor, dao, fn, args, value)
    assert out.ok
    ops = sum(ev.gas_cost for ev in out.trace if isinstance(ev, OpExecuted))
    stipends = sum(ev.stipend_used for ev in out.trace if isinstance(ev, CallExited))
    assert out.gas_consumed == ops - stipends


# -- schedule files -----------------------------------------------------------


def test_schedule_file_round_trip(tmp_path):
    path = tmp_path / "sched.txt"
    path.write_text("# tweaked\nsload = 333\nblock_gas_limit = 1_000_000\n")
    sched = load_schedule(str(path))
    assert sched.sload == 333
    assert sched.block_gas_limit == 1_000_000
    assert sched.base_tx == 21_000  # untouched keys keep defaults


def test_schedule_rejects_unknown_keys(tmp_path):
    path = tmp_path / "sched.txt"
    path.write_text("sload_cost = 3\n")
    with pytest.raises(ScheduleError):
        load_schedule(str(path))


def test_schedule_rejects_bad_values(tmp_path):
    path = tmp_path / "sched.txt"
    path.write_text("sstore_set = 10\nsstore_reset = 20\n")
    with pytest.raises(ScheduleError):
        load_schedule(str(path))
    path.write_text("sload = -1\n")
    with pytest.raises(ScheduleError):
        load_schedule(str(path))
    path.write_text("sload three\n")
    with pytest.raises(ScheduleError):
        load_schedule(str(path))
    path.write_text(f"sload = {2**128}\n")
    with pytest.raises(ScheduleError):
        load_schedule(str(path))


# Free calls, or a stipend larger than the surcharge that pays for it,
# let a run make unboundedly many frames; so does a block limit that buys
# more than MAX_FRAMES calls.
@pytest.mark.parametrize("entries,keys", [
    ({"call_base": 0}, "call_base must be positive"),
    ({"stipend": 9_001}, "stipend must not exceed value_transfer_surcharge"),
    ({"value_transfer_surcharge": 0}, "stipend must not exceed value_transfer_surcharge"),
    ({"block_gas_limit": 700 * (MAX_FRAMES + 1)},
     f"block_gas_limit // call_base, the most calls one run can make, must not "
     f"exceed {MAX_FRAMES}"),
    ({"call_base": 1, "block_gas_limit": MAX_FRAMES + 1},
     "block_gas_limit // call_base"),
], ids=["free-calls", "stipend-above-surcharge", "no-surcharge", "block-too-large",
        "cheap-calls"])
def test_schedules_that_leave_runs_unbounded_are_rejected(entries, keys):
    with pytest.raises(ValueError, match=re.escape(keys)):
        GasSchedule(**entries)


def test_schedules_at_the_frame_bound_load():
    assert GasSchedule().block_gas_limit // GasSchedule().call_base == 42_857
    GasSchedule(block_gas_limit=700 * (MAX_FRAMES + 1) - 1)
    GasSchedule(call_base=1, block_gas_limit=MAX_FRAMES, stipend=0,
                value_transfer_surcharge=0)
    GasSchedule(stipend=9_000)


# A block gas limit above the uint maximum used to let `gasleft()` store
# more than a uint holds.
def test_gasleft_fits_a_uint_at_the_highest_block_limit(tmp_path):
    path = tmp_path / "sched.txt"
    path.write_text(f"block_gas_limit = {2**128}\n")
    with pytest.raises(ScheduleError):
        load_schedule(str(path))
    # a block limit this high needs calls costly enough to bound a run's frames
    path.write_text(f"block_gas_limit = {UINT_MAX}\ncall_base = {2**112}\n")
    sched = load_schedule(str(path))
    state = WorldState()
    actor = state.create_eoa(0)
    c = deploy(state, parse("contract G { uint y; fn f() { y = gasleft(); } }").contracts[0])
    out = execute(state, Transaction(actor, UINT_MAX, c, "f", (), 0), sched)
    assert out.ok
    assert 0 < state.account(c).storage["y"] <= UINT_MAX
