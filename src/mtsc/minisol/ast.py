"""AST node definitions for the MiniSol contract language.

Nodes carry source positions for diagnostics; positions are excluded from
equality so that parse -> pretty-print -> parse round-trips compare equal.
Agent synthesis builds these nodes directly, without going through the
parser, so every node is constructible with plain values.

The four call forms (`lowcall`, `dcall`, `send`, `transfer`) share one
node, `Call`, named by its `form`; `SWALLOWING` and `STIPEND_ONLY` name
the forms that swallow a failed call and that forward no gas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Optional, Union

UINT_MAX = 2**128 - 1  # values and balances are unsigned 128-bit
ZERO_ADDR = ""         # the address default; no account has it

CALL_FORMS = ("lowcall", "dcall", "send", "transfer")
SWALLOWING = ("lowcall", "send")     # a failed call yields false
STIPEND_ONLY = ("send", "transfer")  # the callee gets the value stipend only


class Kind(str, Enum):
    """Declared kinds for state variables and parameters; they print as
    spelled in source."""

    UINT = "uint"
    BOOL = "bool"
    ADDR = "addr"
    MAP = "map"  # addr -> uint; state variables only

    def __str__(self):
        return self.value


def _pos():
    return field(default=0, compare=False)


@dataclass
class Node:
    line: int = _pos()
    col: int = _pos()


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


@dataclass
class IntLit(Node):
    value: int = 0


@dataclass
class BoolLit(Node):
    value: bool = False


@dataclass
class AddrLit(Node):
    """Literal account address. Not produced by the parser; used by
    generated code (agent contracts) that must reference concrete accounts."""

    value: str = ""


@dataclass
class Var(Node):
    """Reference to a parameter, local, or scalar state variable."""

    name: str = ""


@dataclass
class MapIndex(Node):
    name: str = ""
    key: "Expr" = None


@dataclass
class Binary(Node):
    op: str = ""  # + - * == != < <= > >= && ||
    left: "Expr" = None
    right: "Expr" = None


@dataclass
class Not(Node):
    operand: "Expr" = None


@dataclass
class MsgSender(Node):
    pass


@dataclass
class MsgValue(Node):
    pass


@dataclass
class This(Node):
    pass


@dataclass
class GasLeft(Node):
    pass


@dataclass
class BalanceOf(Node):
    target: "Expr" = None


@dataclass
class Call(Node):
    """A call in one of the four forms. `function` None is a plain value
    transfer, the only kind `send` and `transfer` make; only `lowcall`
    takes a `gas` clause. Forms in SWALLOWING yield bool and turn a
    failed call into false; the others yield nothing and re-raise it.
    Forms in STIPEND_ONLY forward none of the caller's gas."""

    form: str = "lowcall"  # one of CALL_FORMS
    target: "Expr" = None
    function: Optional[str] = None
    args: list = field(default_factory=list)
    value: Optional["Expr"] = None
    gas: Optional["Expr"] = None


Expr = Union[
    IntLit, BoolLit, AddrLit, Var, MapIndex, Binary, Not,
    MsgSender, MsgValue, This, GasLeft, BalanceOf, Call,
]


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


@dataclass
class Require(Node):
    condition: Expr = None


@dataclass
class Revert(Node):
    pass


@dataclass
class If(Node):
    condition: Expr = None
    then: list = field(default_factory=list)
    otherwise: list = field(default_factory=list)


@dataclass
class Let(Node):
    name: str = ""
    value: Expr = None


@dataclass
class Assign(Node):
    target: Union[Var, MapIndex] = None
    op: str = "="  # = += -=
    value: Expr = None


@dataclass
class Return(Node):
    value: Optional[Expr] = None


@dataclass
class Emit(Node):
    """Event emission placeholder: fixed gas cost, no other effect."""

    name: str = ""
    args: list = field(default_factory=list)


@dataclass
class ExprStmt(Node):
    expr: Expr = None


Stmt = Union[Require, Revert, If, Let, Assign, Return, Emit, ExprStmt]


# --------------------------------------------------------------------------
# Declarations
# --------------------------------------------------------------------------


@dataclass
class Param(Node):
    name: str = ""
    kind: Kind = Kind.UINT


@dataclass
class StateVar(Node):
    name: str = ""
    kind: Kind = Kind.UINT


@dataclass
class FunctionDef(Node):
    name: str = ""
    params: list = field(default_factory=list)
    payable: bool = False
    body: list = field(default_factory=list)


@dataclass
class FallbackDef(Node):
    payable: bool = False
    body: list = field(default_factory=list)


@dataclass
class ContractDef(Node):
    name: str = ""
    state_vars: list = field(default_factory=list)
    functions: list = field(default_factory=list)
    fallback: Optional[FallbackDef] = None

    # Lookup tables, built at the first lookup: declarations do not change
    # after parsing or agent synthesis. The first declaration of a name wins.

    @cached_property
    def functions_by_name(self) -> dict:
        return {fn.name: fn for fn in reversed(self.functions)}

    @cached_property
    def defaults(self) -> dict:
        """Scalar state variable name -> its value before the first write."""
        value = {Kind.UINT: 0, Kind.BOOL: False, Kind.ADDR: ZERO_ADDR}
        return {sv.name: value[sv.kind] for sv in reversed(self.state_vars)
                if sv.kind in value}


@dataclass
class SourceUnit(Node):
    contracts: list = field(default_factory=list)
    source_name: str = "<string>"

    def contract(self, name: str) -> Optional[ContractDef]:
        for c in self.contracts:
            if c.name == name:
                return c
        return None
