"""Synthesis of agent contract accounts that wrap an EOA's interaction.

Every agent exposes the same `AgentCall` entry point: it stores the
target address (and the call value, when one is set) in its own storage
and then makes the spec's target call as a low-level call. The kinds
differ only in their fallback function:

* CAO - empty fallback; behaviourally an EOA
* CAH - heavy fallback: fresh zero-to-nonzero storage writes, so its
  cost exceeds the 2300-gas transfer stipend
* CAE - fallback that reverts unconditionally
* CAR - fallback that re-issues the target call (value 0) while
  enough gas remains, probing for reentrancy

Agent contracts are built directly as ASTs; the target's address appears
as a literal node that has no surface syntax in the language, and a
call argument naming the agent itself is `this`.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

from .minisol import ast
from .minisol.record import FrozenRecord
from .vm import GasSchedule, Outcome, Transaction, WorldState, deploy, execute

AGENT_CALL = "AgentCall"
TARGET_SLOT = "target_contract"
VALUE_SLOT = "call_value"

DEFAULT_CAR_GAS_GUARD = 50_000
DEFAULT_CAH_ITERATIONS = 1  # storage writes of a CAH fallback


class AgentKind(str, Enum):
    EOA = "EOA"
    CAO = "CAO"
    CAH = "CAH"
    CAR = "CAR"
    CAE = "CAE"


AGENT_KINDS = (AgentKind.CAO, AgentKind.CAH, AgentKind.CAR, AgentKind.CAE)


def actor_kinds(names) -> tuple:
    """The kinds `names` name; ValueError names the first that names none."""
    if isinstance(names, str):
        raise ValueError(f"actor kinds must be a list, not the string {names!r}")
    kinds = []
    for name in names:
        try:
            kinds.append(AgentKind(name))
        except ValueError:
            raise ValueError(f"unknown actor kind {name!r}") from None
    return tuple(kinds)


class AgentSpec(FrozenRecord):
    __slots__ = _fields = ("kind", "target", "function", "args", "value", "stipend",
                           "car_gas_guard", "cah_iterations")

    def __init__(self, kind: AgentKind, target: str,
                 function: Optional[str],  # the target call; None = plain value transfer
                 args: tuple, value: int,
                 stipend: int,  # of the schedule the agent runs under
                 car_gas_guard: int = DEFAULT_CAR_GAS_GUARD,
                 cah_iterations: int = DEFAULT_CAH_ITERATIONS):
        self._set(locals())
        if kind == AgentKind.EOA:
            raise ValueError("EOA is the identity actor; no agent to deploy")
        if kind == AgentKind.CAR and car_gas_guard <= stipend:
            raise ValueError("the recursion guard must exceed the transfer stipend")
        if kind == AgentKind.CAH and cah_iterations < 1:
            raise ValueError("the heavy fallback needs at least one storage write")


def _lit(value) -> ast.Node:
    if isinstance(value, ast.Node):
        return value
    if isinstance(value, bool):
        return ast.BoolLit(value=value)
    if isinstance(value, int):
        return ast.IntLit(value=value)
    if isinstance(value, str):
        return ast.AddrLit(value=value)
    raise TypeError(f"cannot embed call argument {value!r}")


def _target_call(spec: AgentSpec, value_from_storage: bool) -> ast.Call:
    value_expr = None
    if value_from_storage and spec.value > 0:
        value_expr = ast.Var(name=VALUE_SLOT)
    return ast.Call(form="lowcall", target=ast.Var(name=TARGET_SLOT),
                    function=spec.function,
                    args=[_lit(a) for a in spec.args],
                    value=value_expr)


def build_agent_contract(spec: AgentSpec) -> ast.ContractDef:
    state_vars = [ast.StateVar(name=TARGET_SLOT, kind=ast.Kind.ADDR)]
    body = [ast.Assign(target=ast.Var(name=TARGET_SLOT), op="=",
                       value=ast.AddrLit(value=spec.target))]
    if spec.value > 0:
        state_vars.append(ast.StateVar(name=VALUE_SLOT, kind=ast.Kind.UINT))
        body.append(ast.Assign(target=ast.Var(name=VALUE_SLOT), op="=",
                               value=ast.IntLit(value=spec.value)))
    body.append(ast.ExprStmt(expr=_target_call(spec, value_from_storage=True)))
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
        reentry = _target_call(spec, value_from_storage=False)
        fallback_body = [ast.If(
            condition=ast.Binary(op=">", left=ast.GasLeft(),
                                 right=ast.IntLit(value=spec.car_gas_guard)),
            then=[ast.ExprStmt(expr=reentry)],
            otherwise=[])]

    return ast.ContractDef(
        name=f"Agent{spec.kind.value}",
        state_vars=state_vars,
        functions=[agent_call],
        fallback=ast.FunctionDef(payable=True, body=fallback_body),
    )


def make_agent(state: WorldState, spec: AgentSpec) -> str:
    """Deploy the agent contract for a spec; the target must exist."""
    if spec.target not in state.accounts:
        raise ValueError(f"agent target {spec.target} is not deployed")
    return deploy(state, build_agent_contract(spec))


def agent_interact(state: WorldState, agent: str, target: str, driver: str,
                   gas_limit: int, schedule: GasSchedule, *, ops: bool = True) -> Outcome:
    """Run driver -> agent.AgentCall and report the interaction as the
    agent experienced it: balance delta of the agent account, status of
    the agent's call into `target` (the wrapper's own low-level call
    would otherwise swallow every target failure). `ops` is `execute`'s."""
    return execute(state, Transaction(driver, gas_limit, agent, AGENT_CALL, (), 0),
                   schedule, reports=target, ops=ops)
