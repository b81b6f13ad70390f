"""AST node definitions for the MiniSol contract language.

Nodes carry source positions for diagnostics; positions are excluded from
equality so that parse -> pretty-print -> parse round-trips compare equal.
Agent synthesis builds these nodes directly, without going through the
parser, so every node is constructible with plain values.

Nodes are mutable records (`record.Record`): each class names its fields,
positions aside, in `_fields`, which equality compares and a walk over a
tree follows, and their defaults in `_defaults`, from which `Node`
compiles its `__init__`: `line` and `col` first, then every field with
its default; a list default gives each node a fresh list. The nodes that
hold only a position share `_Positioned`'s written-out one; `ContractDef`
writes its own, which also builds its lookup tables.

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


def _initializer(cls):
    """`__init__(self, line=0, col=0, <field>=<default>, ...)` compiled from
    the `_fields` and `_defaults` of the node class `cls`: the code a
    written-out one would be, one assignment per field. A list default
    stands for a fresh list per node. The defaults are the function's
    globals, never formatted into its source."""
    params, lines, env = "self, line=0, col=0", ["self.line = line", "self.col = col"], {}
    for name, default in zip(cls._fields, cls._defaults, strict=True):
        fresh = isinstance(default, list)
        env["_" + name] = None if fresh else default
        params += f", {name}=_{name}"
        lines.append(f"self.{name} = " + (f"[] if {name} is None else {name}" if fresh else name))
    exec(f"def __init__({params}):\n    " + "\n    ".join(lines), env)
    init = env["__init__"]
    init.__qualname__, init.__module__ = f"{cls.__qualname__}.__init__", cls.__module__
    return init


class Node(Record):
    __slots__ = ("line", "col")

    def __init_subclass__(cls):
        if "_defaults" in vars(cls):
            cls.__init__ = _initializer(cls)

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
    _defaults = (0,)


class BoolLit(Node):
    __slots__ = _fields = ("value",)
    _defaults = (False,)


class AddrLit(Node):
    """Literal account address. Not produced by the parser; used by
    generated code (agent contracts) that must reference concrete accounts."""

    __slots__ = _fields = ("value",)
    _defaults = ("",)


class Var(Node):
    """Reference to a parameter, local, or scalar state variable."""

    __slots__ = _fields = ("name",)
    _defaults = ("",)


class MapIndex(Node):
    __slots__ = _fields = ("name", "key")
    _defaults = ("", None)


class Binary(Node):
    __slots__ = _fields = ("op", "left", "right")
    _defaults = ("", None, None)  # op: + - * == != < <= > >= && ||


class Not(Node):
    __slots__ = _fields = ("operand",)
    _defaults = (None,)


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
    _defaults = (None,)


class Call(Node):
    """A call in one of the four forms. `function` None is a plain value
    transfer, the only kind `send` and `transfer` make; only `lowcall`
    takes a `gas` clause. Forms in SWALLOWING yield bool and turn a
    failed call into false; the others yield nothing and re-raise it.
    Forms in STIPEND_ONLY forward none of the caller's gas."""

    __slots__ = _fields = ("form", "target", "function", "args", "value", "gas")
    _defaults = ("lowcall", None, None, [], None, None)  # form: one of CALL_FORMS


Expr = Union[
    IntLit, BoolLit, AddrLit, Var, MapIndex, Binary, Not,
    MsgSender, MsgValue, This, GasLeft, BalanceOf, Call,
]


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


class Require(Node):
    __slots__ = _fields = ("condition",)
    _defaults = (None,)


class Revert(_Positioned):
    __slots__ = ()


class If(Node):
    __slots__ = _fields = ("condition", "then", "otherwise")
    _defaults = (None, [], [])


class Let(Node):
    __slots__ = _fields = ("name", "value")
    _defaults = ("", None)


class Assign(Node):
    __slots__ = _fields = ("target", "op", "value")
    _defaults = (None, "=", None)  # op: = += -=


class Return(Node):
    __slots__ = _fields = ("value",)
    _defaults = (None,)


class Emit(Node):
    """Event emission placeholder: fixed gas cost, no other effect."""

    __slots__ = _fields = ("name", "args")
    _defaults = ("", [])


class ExprStmt(Node):
    __slots__ = _fields = ("expr",)
    _defaults = (None,)


Stmt = Union[Require, Revert, If, Let, Assign, Return, Emit, ExprStmt]


# --------------------------------------------------------------------------
# Declarations
# --------------------------------------------------------------------------


class Param(Node):
    __slots__ = _fields = ("name", "kind")
    _defaults = ("", Kind.UINT)


class StateVar(Node):
    __slots__ = _fields = ("name", "kind")
    _defaults = ("", Kind.UINT)


class FunctionDef(Node):
    __slots__ = _fields = ("name", "params", "payable", "body")
    _defaults = ("", [], False, [])


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
    _defaults = ([], "<string>")

    def contract(self, name: str) -> Optional[ContractDef]:
        for c in self.contracts:
            if c.name == name:
                return c
        return None
