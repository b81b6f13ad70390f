"""AST node definitions for the MiniSol contract language.

Nodes carry source positions for diagnostics; positions are excluded from
equality so that parse -> pretty-print -> parse round-trips compare equal.
Agent synthesis builds these nodes directly, without going through the
parser, so every node is constructible with plain values.

Nodes are mutable records (`record.Record`): each class names its fields,
positions aside, in `_fields`, which equality compares and a walk over a
tree follows. Its `__init__` is written out, taking `line` and `col`
first and every field by keyword with a default; the nodes that hold
nothing but a position share one, from `_Positioned`.

Every body a call can run is a `FunctionDef`: a contract's fallback is
one with no name and no parameters, kept apart from the named functions.

The four call forms (`lowcall`, `dcall`, `send`, `transfer`) share one
node, `Call`, named by its `form`; `SWALLOWING` and `STIPEND_ONLY` name
the forms that swallow a failed call and that forward no gas.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Union

from .record import Record, field_repr

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


class Node(Record):
    __slots__ = ("line", "col")

    def __repr__(self):
        return field_repr(self, ("line", "col") + self._fields)


class _Positioned(Node):
    """A node that holds its position and no field."""

    __slots__ = ()

    def __init__(self, line=0, col=0):
        self.line = line
        self.col = col


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


class IntLit(Node):
    __slots__ = _fields = ("value",)

    def __init__(self, line=0, col=0, value=0):
        self.line = line
        self.col = col
        self.value = value


class BoolLit(Node):
    __slots__ = _fields = ("value",)

    def __init__(self, line=0, col=0, value=False):
        self.line = line
        self.col = col
        self.value = value


class AddrLit(Node):
    """Literal account address. Not produced by the parser; used by
    generated code (agent contracts) that must reference concrete accounts."""

    __slots__ = _fields = ("value",)

    def __init__(self, line=0, col=0, value=""):
        self.line = line
        self.col = col
        self.value = value


class Var(Node):
    """Reference to a parameter, local, or scalar state variable."""

    __slots__ = _fields = ("name",)

    def __init__(self, line=0, col=0, name=""):
        self.line = line
        self.col = col
        self.name = name


class MapIndex(Node):
    __slots__ = _fields = ("name", "key")

    def __init__(self, line=0, col=0, name="", key: Expr = None):
        self.line = line
        self.col = col
        self.name = name
        self.key = key


class Binary(Node):
    __slots__ = _fields = ("op", "left", "right")

    def __init__(self, line=0, col=0, op="", left: Expr = None, right: Expr = None):
        self.line = line
        self.col = col
        self.op = op  # + - * == != < <= > >= && ||
        self.left = left
        self.right = right


class Not(Node):
    __slots__ = _fields = ("operand",)

    def __init__(self, line=0, col=0, operand: Expr = None):
        self.line = line
        self.col = col
        self.operand = operand


class MsgSender(_Positioned):
    __slots__ = ()


class MsgValue(_Positioned):
    __slots__ = ()


class This(_Positioned):
    __slots__ = ()


class GasLeft(_Positioned):
    __slots__ = ()


class BalanceOf(Node):
    __slots__ = _fields = ("target",)

    def __init__(self, line=0, col=0, target: Expr = None):
        self.line = line
        self.col = col
        self.target = target


class Call(Node):
    """A call in one of the four forms. `function` None is a plain value
    transfer, the only kind `send` and `transfer` make; only `lowcall`
    takes a `gas` clause. Forms in SWALLOWING yield bool and turn a
    failed call into false; the others yield nothing and re-raise it.
    Forms in STIPEND_ONLY forward none of the caller's gas."""

    __slots__ = _fields = ("form", "target", "function", "args", "value", "gas")

    def __init__(self, line=0, col=0, form="lowcall", target: Expr = None,
                 function: Optional[str] = None, args: list = None,
                 value: Optional[Expr] = None, gas: Optional[Expr] = None):
        self.line = line
        self.col = col
        self.form = form  # one of CALL_FORMS
        self.target = target
        self.function = function
        self.args = [] if args is None else args
        self.value = value
        self.gas = gas


Expr = Union[
    IntLit, BoolLit, AddrLit, Var, MapIndex, Binary, Not,
    MsgSender, MsgValue, This, GasLeft, BalanceOf, Call,
]


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


class Require(Node):
    __slots__ = _fields = ("condition",)

    def __init__(self, line=0, col=0, condition: Expr = None):
        self.line = line
        self.col = col
        self.condition = condition


class Revert(_Positioned):
    __slots__ = ()


class If(Node):
    __slots__ = _fields = ("condition", "then", "otherwise")

    def __init__(self, line=0, col=0, condition: Expr = None, then: list = None,
                 otherwise: list = None):
        self.line = line
        self.col = col
        self.condition = condition
        self.then = [] if then is None else then
        self.otherwise = [] if otherwise is None else otherwise


class Let(Node):
    __slots__ = _fields = ("name", "value")

    def __init__(self, line=0, col=0, name="", value: Expr = None):
        self.line = line
        self.col = col
        self.name = name
        self.value = value


class Assign(Node):
    __slots__ = _fields = ("target", "op", "value")

    def __init__(self, line=0, col=0, target: Union[Var, MapIndex] = None, op="=",
                 value: Expr = None):
        self.line = line
        self.col = col
        self.target = target
        self.op = op  # = += -=
        self.value = value


class Return(Node):
    __slots__ = _fields = ("value",)

    def __init__(self, line=0, col=0, value: Optional[Expr] = None):
        self.line = line
        self.col = col
        self.value = value


class Emit(Node):
    """Event emission placeholder: fixed gas cost, no other effect."""

    __slots__ = _fields = ("name", "args")

    def __init__(self, line=0, col=0, name="", args: list = None):
        self.line = line
        self.col = col
        self.name = name
        self.args = [] if args is None else args


class ExprStmt(Node):
    __slots__ = _fields = ("expr",)

    def __init__(self, line=0, col=0, expr: Expr = None):
        self.line = line
        self.col = col
        self.expr = expr


Stmt = Union[Require, Revert, If, Let, Assign, Return, Emit, ExprStmt]


# --------------------------------------------------------------------------
# Declarations
# --------------------------------------------------------------------------


class Param(Node):
    __slots__ = _fields = ("name", "kind")

    def __init__(self, line=0, col=0, name="", kind=Kind.UINT):
        self.line = line
        self.col = col
        self.name = name
        self.kind = kind


class StateVar(Node):
    __slots__ = _fields = ("name", "kind")

    def __init__(self, line=0, col=0, name="", kind=Kind.UINT):
        self.line = line
        self.col = col
        self.name = name
        self.kind = kind


class FunctionDef(Node):
    __slots__ = _fields = ("name", "params", "payable", "body")

    def __init__(self, line=0, col=0, name="", params: list = None, payable=False,
                 body: list = None):
        self.line = line
        self.col = col
        self.name = name
        self.params = [] if params is None else params
        self.payable = payable
        self.body = [] if body is None else body


class ContractDef(Node):
    # `fallback` is None or a FunctionDef with no name and no parameters;
    # it is not in `functions`, so no lookup by name finds it
    _fields = ("name", "state_vars", "functions", "fallback")
    # and two lookup tables, built here from declarations that the parser
    # and agent synthesis pass complete and never change
    __slots__ = _fields + ("functions_by_name", "defaults")

    def __init__(self, line=0, col=0, name="", state_vars: list = None,
                 functions: list = None, fallback: Optional[FunctionDef] = None):
        self.line = line
        self.col = col
        self.name = name
        self.state_vars = [] if state_vars is None else state_vars
        self.functions = [] if functions is None else functions
        self.fallback = fallback
        # the first declaration of a name wins
        self.functions_by_name = {fn.name: fn for fn in reversed(self.functions)}
        # scalar state variable name -> its value before the first write
        zero = {Kind.UINT: 0, Kind.BOOL: False, Kind.ADDR: ZERO_ADDR}
        self.defaults = {sv.name: zero[sv.kind] for sv in reversed(self.state_vars)
                         if sv.kind in zero}


class SourceUnit(Node):
    __slots__ = _fields = ("contracts", "source_name")

    def __init__(self, line=0, col=0, contracts: list = None, source_name="<string>"):
        self.line = line
        self.col = col
        self.contracts = [] if contracts is None else contracts
        self.source_name = source_name

    def contract(self, name: str) -> Optional[ContractDef]:
        for c in self.contracts:
            if c.name == name:
                return c
        return None
