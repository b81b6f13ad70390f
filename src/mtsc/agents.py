"""Synthesis of agent contract accounts that wrap an EOA's interaction.

Every agent exposes the same `AgentCall` entry point: it stores the
target address (and the call value, when one is set) in its own storage
and then issues a low-level call carrying the configured payload. The
kinds differ only in their fallback function:

* CAO - empty fallback; behaviourally an EOA
* CAH - heavy fallback: fresh zero-to-nonzero storage writes, so its
  cost exceeds the 2300-gas transfer stipend
* CAE - fallback that reverts unconditionally
* CAR - fallback that re-issues the stored payload (value 0) while
  enough gas remains, probing for reentrancy

Agent contracts are built directly as ASTs; addresses appear as literal
nodes that have no surface syntax in the language.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

from .minisol import ast
from .vm import GasSchedule, Outcome, Transaction, WorldState, deploy, execute

AGENT_CALL = "AgentCall"
TARGET_SLOT = "target_contract"
VALUE_SLOT = "call_value"

DEFAULT_CAR_GAS_GUARD = 50_000


class AgentKind(str, Enum):
    EOA = "EOA"
    CAO = "CAO"
    CAH = "CAH"
    CAR = "CAR"
    CAE = "CAE"


AGENT_KINDS = (AgentKind.CAO, AgentKind.CAH, AgentKind.CAR, AgentKind.CAE)


@dataclass(frozen=True)
class CallPayload:
    function: Optional[str]
    args: tuple = ()
    value: int = 0


@dataclass(frozen=True)
class AgentSpec:
    kind: AgentKind
    target: str
    payload: CallPayload
    car_gas_guard: int = DEFAULT_CAR_GAS_GUARD
    cah_iterations: int = 1
    stipend: int = GasSchedule().stipend  # of the schedule the agent runs under

    def __post_init__(self):
        if self.kind == AgentKind.EOA:
            raise ValueError("EOA is the identity actor; no agent to deploy")
        if self.kind == AgentKind.CAR and self.car_gas_guard <= self.stipend:
            raise ValueError("the recursion guard must exceed the transfer stipend")
        if self.kind == AgentKind.CAH and self.cah_iterations < 1:
            raise ValueError("the heavy fallback needs at least one storage write")


def _lit(value) -> ast.Node:
    if isinstance(value, bool):
        return ast.BoolLit(value=value)
    if isinstance(value, int):
        return ast.IntLit(value=value)
    if isinstance(value, str):
        return ast.AddrLit(value=value)
    raise TypeError(f"cannot embed payload argument {value!r}")


def _payload_call(payload: CallPayload, value_from_storage: bool) -> ast.LowCall:
    value_expr = None
    if value_from_storage and payload.value > 0:
        value_expr = ast.Var(name=VALUE_SLOT)
    return ast.LowCall(target=ast.Var(name=TARGET_SLOT),
                       function=payload.function,
                       args=[_lit(a) for a in payload.args],
                       value=value_expr)


def build_agent_contract(spec: AgentSpec, name: str) -> ast.ContractDef:
    state_vars = [ast.StateVar(name=TARGET_SLOT, kind=ast.Kind.ADDR)]
    body = [ast.Assign(target=ast.Var(name=TARGET_SLOT), op="=",
                       value=ast.AddrLit(value=spec.target))]
    if spec.payload.value > 0:
        state_vars.append(ast.StateVar(name=VALUE_SLOT, kind=ast.Kind.UINT))
        body.append(ast.Assign(target=ast.Var(name=VALUE_SLOT), op="=",
                               value=ast.IntLit(value=spec.payload.value)))
    body.append(ast.ExprStmt(expr=_payload_call(spec.payload, value_from_storage=True)))
    agent_call = ast.FunctionDef(name=AGENT_CALL, params=[], payable=False, body=body)

    if spec.kind == AgentKind.CAO:
        fallback_body = []
    elif spec.kind == AgentKind.CAH:
        for i in range(spec.cah_iterations):
            state_vars.append(ast.StateVar(name=f"hoard_{i}", kind=ast.Kind.UINT))
        fallback_body = [ast.Assign(target=ast.Var(name=f"hoard_{i}"), op="=",
                                    value=ast.IntLit(value=1))
                         for i in range(spec.cah_iterations)]
    elif spec.kind == AgentKind.CAE:
        fallback_body = [ast.Revert()]
    else:  # CAR: re-enter the stored target while gas allows
        reentry = _payload_call(spec.payload, value_from_storage=False)
        fallback_body = [ast.If(
            condition=ast.Binary(op=">", left=ast.GasLeft(),
                                 right=ast.IntLit(value=spec.car_gas_guard)),
            then=[ast.ExprStmt(expr=reentry)],
            otherwise=[])]

    return ast.ContractDef(
        name=name,
        state_vars=state_vars,
        functions=[agent_call],
        fallback=ast.FallbackDef(payable=True, body=fallback_body),
    )


def make_agent(state: WorldState, spec: AgentSpec, name: Optional[str] = None) -> str:
    """Deploy the agent contract for a spec; the target must exist."""
    if not state.has_account(spec.target):
        raise ValueError(f"agent target {spec.target} is not deployed")
    contract = build_agent_contract(spec, name or f"Agent{spec.kind.value}")
    return deploy(state, contract)


def agent_interact(state: WorldState, agent: str, spec: AgentSpec, driver: str,
                   gas_limit: int, schedule: GasSchedule) -> Outcome:
    """Run driver -> agent.AgentCall and report the interaction as the
    agent experienced it: balance delta of the agent account, status of
    the agent's call into the target (the wrapper's own low-level call
    would otherwise swallow every target failure)."""
    before = state.balance_of(agent)
    raw = execute(state, Transaction(driver, gas_limit, agent, AGENT_CALL, (), 0),
                  schedule, reports=spec.target)
    return replace(raw, balance_delta=state.balance_of(agent) - before)
