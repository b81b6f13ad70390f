"""Agent contract synthesis and the agent-wrapped interaction view."""

import json

import pytest

from mtsc.agents import (
    AGENT_CALL,
    AGENT_KINDS,
    AgentKind,
    AgentSpec,
    agent_interact,
    build_agent_contract,
    make_agent,
)
from mtsc.inputs import InputError
from mtsc.minisol import ast, parse, validate
from mtsc.scenario import build_environment, load_scenario
from mtsc.traces import paired_calls
from mtsc.vm import FailReason, GasSchedule, Transaction, WorldState, deploy, execute

from conftest import scenario_path
from support import clone

S = GasSchedule()
def spec_for(kind, target="0x0002", **kw):
    return AgentSpec(kind=kind, target=target, function="withdraw", args=(1_000,), value=0,
                     stipend=S.stipend, **kw)


@pytest.mark.parametrize("kind", [AgentKind.CAO, AgentKind.CAH,
                                  AgentKind.CAR, AgentKind.CAE])
def test_generated_contracts_validate_clean(kind):
    contract = build_agent_contract(spec_for(kind))
    unit = ast.SourceUnit(contracts=[contract], source_name="<agent>")
    assert validate(unit) == []
    assert contract.functions_by_name.get(AGENT_CALL) is not None
    assert contract.fallback is not None and contract.fallback.payable


@pytest.mark.parametrize("kind", AGENT_KINDS)
def test_agent_fallbacks_are_functions_with_no_name_and_no_parameters(kind):
    contract = build_agent_contract(spec_for(kind))
    assert type(contract.fallback) is ast.FunctionDef
    assert (contract.fallback.name, contract.fallback.params) == ("", [])
    assert contract.fallback not in contract.functions_by_name.values()


def test_cae_fallback_is_a_single_revert():
    contract = build_agent_contract(spec_for(AgentKind.CAE))
    assert contract.fallback.body == [ast.Revert()]


def test_cao_fallback_is_empty():
    contract = build_agent_contract(spec_for(AgentKind.CAO))
    assert contract.fallback.body == []


def test_cah_fallback_writes_fresh_slots():
    contract = build_agent_contract(spec_for(AgentKind.CAH, cah_iterations=3))
    body = contract.fallback.body
    assert len(body) == 3
    targets = {stmt.target.name for stmt in body}
    assert len(targets) == 3  # distinct slots keep every write zero-to-nonzero


def test_car_fallback_guards_on_remaining_gas():
    contract = build_agent_contract(spec_for(AgentKind.CAR, car_gas_guard=60_000))
    guard = contract.fallback.body[0]
    assert isinstance(guard, ast.If)
    assert isinstance(guard.condition.left, ast.GasLeft)
    assert guard.condition.op == ">"
    assert guard.condition.right.value == 60_000
    reentry = guard.then[0].expr
    assert isinstance(reentry, ast.Call) and reentry.form == "lowcall"
    assert reentry.function == "withdraw"
    assert reentry.value is None  # the re-issued call carries no value


def test_agent_call_stores_target_then_calls():
    contract = build_agent_contract(spec_for(AgentKind.CAO))
    body = contract.functions_by_name.get(AGENT_CALL).body
    assert isinstance(body[0], ast.Assign) and body[0].target.name == "target_contract"
    assert isinstance(body[-1], ast.ExprStmt)
    assert isinstance(body[-1].expr, ast.Call) and body[-1].expr.form == "lowcall"


def test_spec_validation():
    with pytest.raises(ValueError):
        spec_for(AgentKind.EOA, target="0x0001")
    with pytest.raises(ValueError):
        spec_for(AgentKind.CAR, target="0x0001", car_gas_guard=2_300)
    with pytest.raises(ValueError):
        spec_for(AgentKind.CAH, target="0x0001", cah_iterations=0)
    # the guard is checked against the stipend of the schedule in use
    AgentSpec(kind=AgentKind.CAR, target="0x0001", function="withdraw", args=(1_000,),
              value=0, car_gas_guard=2_000, stipend=1_000)


def test_make_agent_requires_deployed_target():
    state = WorldState()
    with pytest.raises(ValueError):
        make_agent(state, spec_for(AgentKind.CAO, target="0x0099"))


def test_cah_fallback_cost_exceeds_the_stipend():
    # full-forwarding call: the heavy fallback completes and its frame
    # consumption is visible on the trace
    src = "contract P { fn pay(t: addr) { require(lowcall t value 1); } }"
    state = WorldState()
    actor = state.create_eoa(0)
    payer = deploy(state, parse(src).contracts[0], 100)
    agent = make_agent(state, spec_for(AgentKind.CAH, target=payer))
    out = execute(state, Transaction(actor, S.block_gas_limit, payer, "pay",
                                     (agent,), 0), S)
    assert out.ok
    (enter, exited), = paired_calls(out.trace)
    assert enter.callee == agent
    assert exited.success
    assert exited.gas_used > 2_300


def test_cao_matches_eoa_for_every_corpus_scenario(environments):
    for name, env in environments.items():
        eoa = env.run_target(clone(env.state), AgentKind.EOA, S.block_gas_limit)
        cao = env.run_target(clone(env.state), AgentKind.CAO, S.block_gas_limit)
        assert eoa.ok == cao.ok, name
        assert eoa.balance_delta == cao.balance_delta, name


def test_car_extracts_more_than_the_requested_amount(environments):
    env = environments["simple_dao_withdraw"]
    out = env.run_target(clone(env.state), AgentKind.CAR, S.block_gas_limit, ops=True)
    assert out.ok
    assert out.balance_delta > 1_000_000
    assert out.balance_delta == 63 * 1_000_000  # depth-capped recursion
    # the total-gas audit holds even across deep nesting, swallowed
    # depth failures, and stipend grants
    from mtsc.vm import CallExited, OpExecuted

    ops = sum(ev.gas_cost for ev in out.trace if isinstance(ev, OpExecuted))
    stipends = sum(ev.stipend_used for ev in out.trace if isinstance(ev, CallExited))
    assert out.gas_consumed == ops - stipends


def test_car_recursion_always_terminates(environments):
    env = environments["simple_dao_withdraw"]
    out = env.run_target(clone(env.state), AgentKind.CAR, S.block_gas_limit)
    max_depth = max(ev.depth for ev in out.trace)
    assert max_depth < 128


def test_heavy_agent_starves_the_stipend_limited_send(environments):
    # the transaction succeeds, yet the agent received nothing and the
    # vault's ledger was debited anyway
    env = environments["simple_dao_withdraw_b"]
    state = clone(env.state)
    dao = env.roles["SimpleDAO"]
    agent = env.actor_accounts[AgentKind.CAH]
    deposited = state.account(dao).storage[("balances", agent)]
    out = env.run_target(state, AgentKind.CAH, S.block_gas_limit)
    assert out.ok
    assert out.balance_delta == 0
    assert state.account(dao).storage[("balances", agent)] == deposited - 1_000_000


def test_cae_fails_transfer_based_payout(environments):
    env = environments["dividend_vault_payout"]
    out = env.run_target(clone(env.state), AgentKind.CAE, S.block_gas_limit)
    assert not out.ok
    assert out.status.reason == FailReason.REVERT
    assert out.balance_delta == 0


def test_interaction_status_read_from_target_call():
    # AgentCall itself succeeds even when the target call dies; the
    # reported status must reflect the target call
    src = "contract C { fn f() { revert(); } }"
    state = WorldState()
    driver = state.create_eoa(0)
    c = deploy(state, parse(src).contracts[0])
    agent = make_agent(state, AgentSpec(kind=AgentKind.CAO, target=c, function="f",
                                        args=(), value=0, stipend=S.stipend))
    out = agent_interact(state, agent, c, driver, S.block_gas_limit, S)
    assert not out.ok
    assert out.status.reason == FailReason.REVERT


def nodes(value):
    """Every AST node in `value`, itself included."""
    if isinstance(value, ast.Node):
        yield value
        for name in value._fields:
            yield from nodes(getattr(value, name))
    elif isinstance(value, list):
        for item in value:
            yield from nodes(item)


# The target call used to hold the agent's own address as a literal, predicted
# from the address counter before the agent was deployed.
@pytest.mark.parametrize("kind", AGENT_KINDS)
def test_an_agent_names_itself_this_in_its_target_call(kind):
    env = build_environment(load_scenario(scenario_path("token_ether_transfer")), S)
    agent = env.actor_accounts[kind]
    code = env.state.account(agent).code
    call = code.functions_by_name.get(AGENT_CALL).body[-1].expr
    assert call.function == "eT" and isinstance(call.args[0], ast.This)  # ($ACTOR, ...)
    everything = list(nodes(code))
    assert sum(type(n) is ast.This for n in everything) == (2 if kind == AgentKind.CAR else 1)
    assert [n.value for n in everything if type(n) is ast.AddrLit] == [
        env.roles["TokenEther"]]


def flag_scenario(tmp_path, args):
    """A scenario whose target takes (addr, bool), called with `args`."""
    (tmp_path / "flag.msol").write_text(
        "contract Flag { fn set(who: addr, on: bool) { } }\n")
    path = tmp_path / "flag.scenario.json"
    path.write_text(json.dumps({"schema": "scenario-v1", "sources": ["flag.msol"],
                                "balances": {"owner": 0, "$ACTOR": 0},
                                "target": {"callee": "Flag", "function": "set",
                                           "args": args}}))
    return load_scenario(path)


def test_an_agent_embeds_an_addr_role_and_a_bool_in_its_target_call(tmp_path):
    env = build_environment(flag_scenario(tmp_path, ["owner", True]), S)
    for kind in AGENT_KINDS:
        code = env.state.account(env.actor_accounts[kind]).code
        call = code.functions_by_name.get(AGENT_CALL).body[-1].expr
        assert call.args == [ast.AddrLit(value=env.roles["owner"]), ast.BoolLit(value=True)]


def test_a_bool_target_argument_must_be_a_bool(tmp_path):
    with pytest.raises(InputError) as err:
        build_environment(flag_scenario(tmp_path, ["owner", 1]), S)
    assert str(err.value) == "target: argument on of set must be bool, got 1"


def test_agent_balance_delta_not_the_drivers():
    env = build_environment(load_scenario(scenario_path("simple_dao_withdraw")), S)
    state = clone(env.state)
    driver_before = state.balance_of(env.driver)
    out = env.run_target(state, AgentKind.CAO, S.block_gas_limit)
    assert out.ok
    assert out.balance_delta == 1_000_000          # the agent received the payout
    assert state.balance_of(env.driver) == driver_before
