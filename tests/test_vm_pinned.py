"""The interpreter's whole observable behaviour, pinned.

An optimisation of the VM must leave every run as it was: status, gas,
balance delta, the full trace, the invariance range and the state the run
leaves behind. One digest over the corpus's runs pins all of it, and one
small contract that uses every expression and statement type reaches the
branches the corpus never evaluates.
"""

import hashlib
import typing
from dataclasses import fields, is_dataclass

from mtsc.minisol import ast, parse, validate
from mtsc.agents import AgentKind
from mtsc.scenario import ALL_ACTOR_KINDS, build_environment, load_scenario
from mtsc.vm import (
    CallEntered,
    CallExited,
    ExceptionSwallowed,
    FailReason,
    GasSchedule,
    OpExecuted,
    Transaction,
    WorldState,
    deploy,
    execute,
    failure,
)

from conftest import CORPUS_SCENARIOS, scenario_path
from support import clone, digest

S = GasSchedule()

# sha256 over the runs `test_vm_behaviour_is_pinned` makes
VM_DIGEST = "a8fc03303072d75ec0d3d557f1c31e152555784c04a5822b0a5c3bdfe17c25bf"


def pin(h, outcome, state):
    h.update(repr((outcome.status, outcome.gas_consumed, outcome.balance_delta,
                   outcome.trace, outcome.limits)).encode())
    h.update(digest(state).encode())


# (actor kind, gas limit) of every target run of a serial corpus pass
# whose ranges answered only estimator probes, in the order it ran them
PINNED_INPUTS = {
    "approve_notify_checked": (
        "EOA:30000000 EOA:42178 EOA:84356 EOA:42136 CAH:30000000 CAR:30000000 "
        "CAE:30000000"
    ),
    "counter_baseline": (
        "EOA:30000000 CAH:30000000 CAH:42000 CAH:63001 CAR:30000000 CAR:42000 "
        "CAR:63001 EOA:62519 EOA:125038 CAH:83519 CAH:167038 CAR:83519 CAR:167038 "
        "EOA:62457 CAH:83436 CAR:83436 CAE:30000000"
    ),
    "crowd_pay_guarded": (
        "EOA:30000000 CAH:30000000 CAH:68900 CAH:103351 EOA:62122 EOA:124244 "
        "CAH:127822 CAH:255644 EOA:62060 CAH:127695 CAH:107121 CAH:89341 CAR:30000000 "
        "CAE:30000000"
    ),
    "dividend_vault_payout": (
        "EOA:30000000 CAH:30000000 CAR:30000000 CAR:42000 CAR:63001 EOA:56409 "
        "EOA:112818 CAR:77409 CAR:154818 EOA:56353 CAR:77332 CAE:30000000"
    ),
    "simple_dao_withdraw": (
        "EOA:30000000 CAH:30000000 CAH:42000 CAH:63001 CAR:30000000 CAR:42000 "
        "CAR:63001 EOA:36216 EOA:72432 CAH:75016 CAH:150032 CAR:57216 CAR:114432 "
        "EOA:36180 CAH:74941 CAH:69766 CAR:57159"
    ),
    "simple_dao_withdraw_a": (
        "EOA:30000000 EOA:36216 CAH:30000000 CAH:42000 CAR:30000000 CAR:42000 "
        "CAR:57216 EOA:38516 EOA:77032 CAH:59516 CAH:119032 CAR:59516 CAR:119032 "
        "EOA:38478 CAH:59457 CAR:59457 CAE:30000000"
    ),
    "simple_dao_withdraw_b": (
        "EOA:30000000 CAH:30000000 CAH:42000 CAR:30000000 CAR:42000 EOA:36216 "
        "EOA:72432 CAH:57216 CAH:114432 CAR:57216 CAR:114432 EOA:36180 CAH:57159 "
        "CAR:57159"
    ),
    "token_ether_transfer": (
        "EOA:30000000 CAH:30000000 CAH:42000 CAH:63001 CAR:30000000 CAR:42000 "
        "CAR:63001 EOA:41584 EOA:83168 CAH:80384 CAH:160768 CAR:62584 CAR:125168 "
        "EOA:41543 CAH:80304 CAH:79984 CAH:62144 CAR:62522 CAE:30000000"
    ),
}


def test_vm_behaviour_is_pinned():
    """Full runs of the inputs of `PINNED_INPUTS`, each on a copy of its
    scenario's context; every actor kind at limits 0, `base_tx` and the
    block gas limit; and every context setup replay builds."""
    assert list(PINNED_INPUTS) == CORPUS_SCENARIOS
    h = hashlib.sha256()
    for name, inputs in PINNED_INPUTS.items():
        env = build_environment(load_scenario(scenario_path(name)), S)
        for item in inputs.split():
            kind, limit = item.split(":")
            state = clone(env.state)
            pin(h, env.run_target(state, AgentKind(kind), int(limit), ops=True), state)
    assert sum(len(inputs.split()) for inputs in PINNED_INPUTS.values()) == 117
    for name in CORPUS_SCENARIOS:
        env = build_environment(load_scenario(scenario_path(name)), S)
        h.update(digest(env.state).encode())
        for kind in ALL_ACTOR_KINDS:
            for limit in (0, S.base_tx, S.block_gas_limit):
                state = clone(env.state)
                pin(h, env.run_target(state, kind, limit, ops=True), state)
    assert h.hexdigest() == VM_DIGEST


# -- every node type ----------------------------------------------------------

EVERY_NODE = """
contract All {
    uint n;
    bool flag;
    addr who;
    map m;

    fn f(k: uint) payable {
        let a = k + 2;
        if (!flag) {
            flag = true;
        } else {
            revert();
        }
        who = msg.sender;
        m[this] += msg.value * a;
        n = m[this] + balance(this);
        require(gasleft() > 1000 && k >= 1);
        lowcall this.fail();
        emit Done(a);
        return a;
    }

    fn fail() {
        revert();
    }
}
"""

# the trace's op names that charge another schedule entry's cost
PRICED_AS = {"local": "arith"}


def node_types(node) -> set:
    """The types of `node` and of every node below it."""
    if isinstance(node, list):
        return set().union(*map(node_types, node))
    if not is_dataclass(node):
        return set()
    return {type(node)}.union(*(node_types(getattr(node, f.name)) for f in fields(node)))


def ops_and_gas(outcome):
    ops = [ev.op for ev in outcome.trace if type(ev) is OpExecuted]
    return ops, sum(getattr(S, PRICED_AS.get(op, op)) for op in ops)


def test_every_node_type_runs():
    unit = parse(EVERY_NODE)
    contract = unit.contracts[0]
    # `balance(this)` reads the contract's own address as an AddrLit, which
    # only generated code contains; deploy assigns the second address
    assign_n = contract.functions_by_name.get("f").body[4]
    assign_n.value.right.target = ast.AddrLit(value="0x0002")
    assert node_types(unit) >= set(typing.get_args(ast.Expr)) | set(typing.get_args(ast.Stmt))
    assert validate(unit) == []

    state = WorldState()
    actor = state.create_eoa(1_000)
    addr = deploy(state, contract, 500)
    assert addr == "0x0002"

    out = execute(state, Transaction(actor, 200_000, addr, "f", (3,), 10), S)
    assert out.status.ok
    assert out.balance_delta == -10
    assert state.account(addr).storage == {
        "flag": True, "who": actor, ("m", addr): 50, "n": 50 + 510}
    ops, gas = ops_and_gas(out)
    assert ops == [
        "base_tx", "dispatch",
        "local", "arith",                      # let a = k + 2
        "logic", "sload", "sstore_set",        # if (!flag) { flag = true; }
        "sstore_set",                          # who = msg.sender
        "arith", "sload", "arith", "sstore_set",          # m[this] += ...
        "arith", "sload", "balance_of", "sstore_set",     # n = ...
        "require", "logic", "compare", "gasleft", "compare",
        "call_base", "dispatch", "revert",     # lowcall this.fail()
        "emit",
    ]
    assert out.gas_consumed == gas == 102_934
    calls = [ev for ev in out.trace if type(ev) is not OpExecuted]
    assert [type(ev) for ev in calls] == [CallEntered, CallExited, ExceptionSwallowed]
    assert calls[1].reason == calls[2].reason == FailReason.REVERT

    # the flag is set now, so the `else` branch reverts the transaction
    out = execute(state, Transaction(actor, 200_000, addr, "f", (3,), 0), S)
    assert out.status == failure(FailReason.REVERT)
    ops, gas = ops_and_gas(out)
    assert ops == ["base_tx", "dispatch", "local", "arith", "logic", "sload", "revert"]
    assert out.gas_consumed == gas == 21_309
