"""Pretty-printer for MiniSol ASTs, for the round-trip tests.

Emits canonical source that re-parses to an equal AST (positions are not
compared). Parenthesizes every compound sub-expression, which keeps the
printer oblivious to precedence. AddrLit nodes only occur in generated
contracts and have no surface syntax; they print as `addr("...")` for
debugging and do not round-trip. A `Call` prints its form keyword and
the clauses it carries, which are the ones its form's syntax allows.
"""

from __future__ import annotations

from mtsc.minisol import ast


def _operand(e) -> str:
    """Calls greedily consume value/gas clauses and cannot start a
    call target; parenthesize them (and bare negations in target
    position) so the surrounding expression re-parses unchanged."""
    if isinstance(e, ast.Call):
        return f"({_expr(e)})"
    return _expr(e)


def _target(e) -> str:
    if isinstance(e, (ast.Call, ast.Not)):
        return f"({_expr(e)})"
    return _expr(e)


def _expr(e) -> str:
    if isinstance(e, ast.IntLit):
        return str(e.value)
    if isinstance(e, ast.BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, ast.AddrLit):
        return f'addr("{e.value}")'
    if isinstance(e, ast.Var):
        return e.name
    if isinstance(e, ast.MapIndex):
        return f"{e.name}[{_expr(e.key)}]"
    if isinstance(e, ast.Binary):
        return f"({_operand(e.left)} {e.op} {_operand(e.right)})"
    if isinstance(e, ast.Not):
        return f"!({_expr(e.operand)})"
    if isinstance(e, ast.MsgSender):
        return "msg.sender"
    if isinstance(e, ast.MsgValue):
        return "msg.value"
    if isinstance(e, ast.This):
        return "this"
    if isinstance(e, ast.GasLeft):
        return "gasleft()"
    if isinstance(e, ast.BalanceOf):
        return f"balance({_expr(e.target)})"
    if isinstance(e, ast.Call):
        out = f"{e.form} {_target(e.target)}"
        if e.function is not None:
            out += f".{e.function}({', '.join(_expr(a) for a in e.args)})"
        if e.value is not None:
            out += f" value {_operand(e.value)}"
        if e.gas is not None:
            out += f" gas {_operand(e.gas)}"
        return out
    raise TypeError(f"unknown expression {e!r}")


def _stmt(s, indent: str) -> list[str]:
    if isinstance(s, ast.Require):
        return [f"{indent}require({_expr(s.condition)});"]
    if isinstance(s, ast.Revert):
        return [f"{indent}revert();"]
    if isinstance(s, ast.If):
        lines = [f"{indent}if ({_expr(s.condition)}) {{"]
        for sub in s.then:
            lines.extend(_stmt(sub, indent + "    "))
        if s.otherwise:
            lines.append(f"{indent}}} else {{")
            for sub in s.otherwise:
                lines.extend(_stmt(sub, indent + "    "))
        lines.append(f"{indent}}}")
        return lines
    if isinstance(s, ast.Let):
        return [f"{indent}let {s.name} = {_expr(s.value)};"]
    if isinstance(s, ast.Assign):
        return [f"{indent}{_expr(s.target)} {s.op} {_expr(s.value)};"]
    if isinstance(s, ast.Return):
        if s.value is None:
            return [f"{indent}return;"]
        return [f"{indent}return {_expr(s.value)};"]
    if isinstance(s, ast.Emit):
        return [f"{indent}emit {s.name}({', '.join(_expr(a) for a in s.args)});"]
    if isinstance(s, ast.ExprStmt):
        return [f"{indent}{_expr(s.expr)};"]
    raise TypeError(f"unknown statement {s!r}")


def pretty(unit: ast.SourceUnit) -> str:
    lines: list[str] = []
    for contract in unit.contracts:
        lines.append(f"contract {contract.name} {{")
        for sv in contract.state_vars:
            lines.append(f"    {sv.kind.value} {sv.name};")
        for fn in contract.functions:
            params = ", ".join(f"{p.name}: {p.kind.value}" for p in fn.params)
            payable = " payable" if fn.payable else ""
            lines.append(f"    fn {fn.name}({params}){payable} {{")
            for stmt in fn.body:
                lines.extend(_stmt(stmt, "        "))
            lines.append("    }")
        if contract.fallback is not None:
            payable = " payable" if contract.fallback.payable else ""
            lines.append(f"    fallback{payable} {{")
            for stmt in contract.fallback.body:
                lines.extend(_stmt(stmt, "        "))
            lines.append("    }")
        lines.append("}")
    return "\n".join(lines) + "\n"
