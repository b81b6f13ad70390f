"""Semantic validation for parsed MiniSol units.

Checks the name and type rules the interpreter relies on:

* contract / function / state-variable / parameter names unique
* every referenced name is declared; map indexing only on map state vars
* a `Call` carries only its form's clauses: `gas` on `lowcall` alone, a
  function never on `send`/`transfer`, always on `dcall`
* expression kinds line up (uint / bool / addr); a `Call` in a
  swallowing form (`lowcall`, `send`) yields bool, one in the other forms
  (`dcall`, `transfer`) yields nothing and may only appear as an
  expression statement
* a `let` is visible to the rest of its block and to the blocks inside
  it; local names are unique within a function and never shadow params or
  state variables (keeps the runtime environment flat)

Validation is pure: it returns a list of errors and touches nothing.
Messages spell kinds as in source (`uint`, `bool`, `addr`, `map`).
"""

from __future__ import annotations

from . import ast
from .ast import Kind
from .record import Record

UINT, BOOL, ADDR = Kind.UINT, Kind.BOOL, Kind.ADDR
NONE = "none"  # dcall / transfer: no usable result


class SemanticError(Record):
    __slots__ = _fields = ("line", "col", "code", "message")

    def __init__(self, line: int, col: int, code: str, message: str):
        self.line = line
        self.col = col
        self.code = code
        self.message = message

    def __str__(self):
        return f"{self.line}:{self.col}: [{self.code}] {self.message}"


class _ContractChecker:
    def __init__(self, contract: ast.ContractDef, errors: list):
        self.contract = contract
        self.errors = errors
        self.state_kinds = {sv.name: sv.kind for sv in contract.state_vars}
        self.env: dict[str, Kind] = {}   # the names in scope
        self.names: set = set()           # every name the function declares

    def error(self, node, code: str, message: str):
        self.errors.append(SemanticError(node.line, node.col, code, message))

    # -- declarations ------------------------------------------------------

    def check(self):
        seen = set()
        for sv in self.contract.state_vars:
            if sv.name in seen:
                self.error(sv, "duplicate-state-var",
                           f"state variable {sv.name!r} declared twice")
            seen.add(sv.name)
        fn_names = set()
        for fn in self.contract.functions:
            if fn.name in fn_names:
                self.error(fn, "duplicate-function",
                           f"function {fn.name!r} declared twice")
            fn_names.add(fn.name)
            self.check_function(fn)
        if self.contract.fallback is not None:
            self.check_function(self.contract.fallback)

    def check_function(self, fn: ast.FunctionDef):
        self.env = {}
        seen = set()
        for p in fn.params:
            if p.name in seen:
                self.error(p, "duplicate-param", f"parameter {p.name!r} declared twice")
            if p.name in self.state_kinds:
                self.error(p, "shadows-state",
                           f"parameter {p.name!r} shadows a state variable")
            seen.add(p.name)
            self.env[p.name] = p.kind
        self.names = seen
        self.check_block(fn.body)

    # -- statements ----------------------------------------------------------

    def check_block(self, stmts):
        outer, self.env = self.env, dict(self.env)
        for stmt in stmts:
            self.check_stmt(stmt)
        self.env = outer

    def check_stmt(self, stmt):
        if isinstance(stmt, ast.Require):
            self.expect_kind(stmt.condition, BOOL, "require condition")
        elif isinstance(stmt, ast.Revert):
            pass
        elif isinstance(stmt, ast.If):
            self.expect_kind(stmt.condition, BOOL, "if condition")
            self.check_block(stmt.then)
            self.check_block(stmt.otherwise)
        elif isinstance(stmt, ast.Let):
            kind = self.infer(stmt.value)
            if stmt.name in self.names or stmt.name in self.state_kinds:
                self.error(stmt, "duplicate-local",
                           f"name {stmt.name!r} is already in use")
            self.names.add(stmt.name)
            if kind == NONE:  # infer reported it; go on as if it gave a uint
                kind = UINT
            self.env[stmt.name] = kind
        elif isinstance(stmt, ast.Assign):
            target_kind = self.infer(stmt.target)
            value_kind = self.infer(stmt.value)
            if stmt.op in ("+=", "-=") and UINT not in (target_kind,):
                self.error(stmt, "type-mismatch",
                           f"{stmt.op} requires a uint target")
            elif value_kind != NONE and target_kind != value_kind:
                self.error(stmt, "type-mismatch",
                           f"cannot assign {value_kind} to {target_kind} target")
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.infer(stmt.value)
        elif isinstance(stmt, ast.Emit):
            for arg in stmt.args:
                self.infer(arg)
        elif isinstance(stmt, ast.ExprStmt):
            self.infer(stmt.expr, statement=True)
        else:
            raise TypeError(f"unknown statement {stmt!r}")

    # -- expressions ---------------------------------------------------------

    def expect_kind(self, expr, kind, what: str):
        got = self.infer(expr)
        if got != kind:
            self.error(expr, "type-mismatch", f"{what} must be {kind}, got {got}")

    def infer(self, expr, statement: bool = False):
        if isinstance(expr, ast.IntLit):
            return UINT
        if isinstance(expr, ast.BoolLit):
            return BOOL
        if isinstance(expr, ast.AddrLit):
            return ADDR
        if isinstance(expr, ast.Var):
            if expr.name in self.env:
                return self.env[expr.name]
            kind = self.state_kinds.get(expr.name)
            if kind is None:
                self.error(expr, "undeclared", f"name {expr.name!r} is not declared")
                return UINT
            if kind == Kind.MAP:
                self.error(expr, "type-mismatch",
                           f"map {expr.name!r} must be indexed")
                return UINT
            return kind
        if isinstance(expr, ast.MapIndex):
            kind = self.state_kinds.get(expr.name)
            if kind is None:
                self.error(expr, "undeclared", f"name {expr.name!r} is not declared")
            elif kind != Kind.MAP:
                self.error(expr, "type-mismatch",
                           f"{expr.name!r} is {kind}, not a map")
            self.expect_kind(expr.key, ADDR, "map key")
            return UINT
        if isinstance(expr, ast.Binary):
            if expr.op in ("+", "-", "*"):
                self.expect_kind(expr.left, UINT, f"left operand of {expr.op}")
                self.expect_kind(expr.right, UINT, f"right operand of {expr.op}")
                return UINT
            if expr.op in ("==", "!="):
                left = self.infer(expr.left)
                right = self.infer(expr.right)
                if NONE in (left, right):
                    self.error(expr, "no-result", "dcall/transfer cannot be compared")
                elif left != right:
                    self.error(expr, "type-mismatch",
                               f"cannot compare {left} with {right}")
                return BOOL
            if expr.op in ("<", "<=", ">", ">="):
                self.expect_kind(expr.left, UINT, f"left operand of {expr.op}")
                self.expect_kind(expr.right, UINT, f"right operand of {expr.op}")
                return BOOL
            if expr.op in ("&&", "||"):
                self.expect_kind(expr.left, BOOL, f"left operand of {expr.op}")
                self.expect_kind(expr.right, BOOL, f"right operand of {expr.op}")
                return BOOL
            raise TypeError(f"unknown operator {expr.op!r}")
        if isinstance(expr, ast.Not):
            self.expect_kind(expr.operand, BOOL, "operand of !")
            return BOOL
        if isinstance(expr, (ast.MsgSender, ast.This)):
            return ADDR
        if isinstance(expr, (ast.MsgValue, ast.GasLeft)):
            return UINT
        if isinstance(expr, ast.BalanceOf):
            self.expect_kind(expr.target, ADDR, "balance() argument")
            return UINT
        if isinstance(expr, ast.Call):
            # send and transfer name themselves; the other forms say "call"
            what = expr.form if expr.form in ast.STIPEND_ONLY else "call"
            # the clauses the parser takes for each form, for built trees
            if expr.gas is not None and expr.form != "lowcall":
                self.error(expr, "bad-call", f"only lowcall takes gas, not {expr.form}")
            if expr.function is not None and expr.form in ast.STIPEND_ONLY:
                self.error(expr, "bad-call", f"{expr.form} calls no function")
            if expr.function is None and expr.form == "dcall":
                self.error(expr, "bad-call", "dcall must name a function")
            if expr.function is None and expr.args:
                self.error(expr, "bad-call",
                           f"a plain-transfer {expr.form} takes no arguments")
            self.expect_kind(expr.target, ADDR, f"{what} target")
            for arg in expr.args:
                if self.infer(arg) == NONE:
                    self.error(arg, "no-result", "dcall/transfer cannot be an argument")
            if expr.value is not None:
                self.expect_kind(expr.value, UINT, f"{what} value")
            if expr.gas is not None:
                self.expect_kind(expr.gas, UINT, "call gas")
            if expr.form in ast.SWALLOWING:
                return BOOL
            if not statement:
                self.error(expr, "no-result",
                           f"{expr.form} has no result; use it as a statement")
            return NONE
        raise TypeError(f"unknown expression {expr!r}")


def validate(unit: ast.SourceUnit) -> list[SemanticError]:
    """Check all name/type invariants; returns [] when the unit is sound."""
    errors: list[SemanticError] = []
    names = set()
    for contract in unit.contracts:
        if contract.name in names:
            errors.append(SemanticError(contract.line, contract.col,
                                        "duplicate-contract",
                                        f"contract {contract.name!r} declared twice"))
        names.add(contract.name)
        _ContractChecker(contract, errors).check()
    return errors
