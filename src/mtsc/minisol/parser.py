"""Recursive-descent parser for MiniSol.

Grammar (frozen in the README). Operator precedence, loosest first:
`||`, `&&`, comparisons (non-associative), `+ -`, `*`, unary `!`, primary.
Call forms (lowcall / dcall / send / transfer) parse as primary expressions;
their target is a primary expression and their `value`/`gas` operands parse
at additive precedence, so comparisons around a call need parentheses.

Expressions and blocks nest at most MAX_NESTING levels deep; deeper input
raises ParseError instead of exhausting the Python stack of the passes
that walk the tree. Every binary operator counts as a level, a chain of
one left-associative operator included: `1 + 1 + 1` nests three levels
deep, two operators above the first literal.
"""

from __future__ import annotations

from contextlib import contextmanager

from . import ast
from .lexer import ParseError, Token, tokenize

KIND_TOKENS = {"uint": ast.Kind.UINT, "bool": ast.Kind.BOOL,
               "addr": ast.Kind.ADDR, "map": ast.Kind.MAP}

ASSIGN_OPS = {"=", "+=", "-="}
COMPARE_OPS = {"==", "!=", "<", "<=", ">", ">="}

# binary operators by precedence, loosest first, and whether they chain
BINARY_LEVELS = (({"||"}, True), ({"&&"}, True), (COMPARE_OPS, False),
                 ({"+", "-"}, True), ({"*"}, True))
ADDITIVE = 3  # index of `+ -` in BINARY_LEVELS

# Levels are blocks, primary expressions, `!` and binary operators. Every
# recursive rule passes through a primary expression, a `!` or a block; one
# level of parentheses costs about ten Python frames.
MAX_NESTING = 64


class _Parser:
    def __init__(self, tokens: list[Token], source_name: str):
        self.tokens = tokens
        self.pos = 0
        self.source_name = source_name
        self.depth = 0  # levels above the node being parsed
        self.reach = 0  # deepest level the tree reaches so far

    # -- token plumbing ----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.type != "EOF":
            self.pos += 1
        return tok

    def check(self, ttype: str) -> bool:
        return self.peek().type == ttype

    def accept(self, ttype: str) -> Token | None:
        if self.check(ttype):
            return self.advance()
        return None

    def expect(self, ttype: str, what: str = "") -> Token:
        tok = self.peek()
        if tok.type != ttype:
            want = what or repr(ttype)
            raise ParseError(tok.line, tok.col,
                             f"expected {want}, found {tok.text or 'end of input'!r}")
        return self.advance()

    def deepen(self, level: int, tok: Token):
        """Record that the tree reaches `level` levels deep at `tok`."""
        if level > MAX_NESTING:
            raise ParseError(tok.line, tok.col,
                             f"nesting deeper than {MAX_NESTING} levels")
        self.reach = max(self.reach, level)

    @contextmanager
    def nested(self):
        self.deepen(self.depth + 1, self.peek())
        self.depth += 1
        try:
            yield
        finally:
            self.depth -= 1

    # -- declarations ------------------------------------------------------

    def parse_unit(self) -> ast.SourceUnit:
        contracts = []
        while not self.check("EOF"):
            contracts.append(self.parse_contract())
        if not contracts:
            tok = self.peek()
            raise ParseError(tok.line, tok.col, "expected at least one contract")
        first = contracts[0]
        return ast.SourceUnit(line=first.line, col=first.col,
                              contracts=contracts, source_name=self.source_name)

    def parse_contract(self) -> ast.ContractDef:
        kw = self.expect("contract")
        name = self.expect("IDENT", "contract name").text
        self.expect("{")
        state_vars, functions = [], []
        fallback = None
        while not self.accept("}"):
            tok = self.peek()
            if tok.type in KIND_TOKENS:
                state_vars.append(self.parse_state_var())
            elif tok.type == "fn":
                functions.append(self.parse_function())
            elif tok.type == "fallback":
                fb = self.parse_fallback()
                if fallback is not None:
                    raise ParseError(fb.line, fb.col,
                                     f"contract {name} already declares a fallback")
                fallback = fb
            else:
                raise ParseError(tok.line, tok.col,
                                 f"expected state variable, fn, or fallback, found {tok.text!r}")
        return ast.ContractDef(line=kw.line, col=kw.col, name=name,
                               state_vars=state_vars, functions=functions,
                               fallback=fallback)

    def parse_state_var(self) -> ast.StateVar:
        kind_tok = self.advance()
        name = self.expect("IDENT", "state variable name")
        self.expect(";")
        return ast.StateVar(line=kind_tok.line, col=kind_tok.col,
                            name=name.text, kind=KIND_TOKENS[kind_tok.type])

    def parse_function(self) -> ast.FunctionDef:
        kw = self.expect("fn")
        name = self.expect("IDENT", "function name").text
        self.expect("(")
        params = []
        if not self.check(")"):
            params.append(self.parse_param())
            while self.accept(","):
                params.append(self.parse_param())
        self.expect(")")
        payable = self.accept("payable") is not None
        body = self.parse_block()
        return ast.FunctionDef(line=kw.line, col=kw.col, name=name,
                               params=params, payable=payable, body=body)

    def parse_param(self) -> ast.Param:
        name = self.expect("IDENT", "parameter name")
        self.expect(":")
        kind_tok = self.peek()
        if kind_tok.type not in ("uint", "bool", "addr"):
            raise ParseError(kind_tok.line, kind_tok.col,
                             f"expected parameter kind, found {kind_tok.text!r}")
        self.advance()
        return ast.Param(line=name.line, col=name.col, name=name.text,
                         kind=KIND_TOKENS[kind_tok.type])

    def parse_fallback(self) -> ast.FallbackDef:
        kw = self.expect("fallback")
        payable = self.accept("payable") is not None
        body = self.parse_block()
        return ast.FallbackDef(line=kw.line, col=kw.col, payable=payable, body=body)

    # -- statements ----------------------------------------------------------

    def parse_block(self) -> list:
        self.expect("{")
        stmts = []
        with self.nested():
            while not self.accept("}"):
                stmts.append(self.parse_stmt())
        return stmts

    def parse_stmt(self):
        tok = self.peek()
        if tok.type == "require":
            self.advance()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            self.expect(";")
            return ast.Require(line=tok.line, col=tok.col, condition=cond)
        if tok.type == "revert":
            self.advance()
            self.expect("(")
            self.expect(")")
            self.expect(";")
            return ast.Revert(line=tok.line, col=tok.col)
        if tok.type == "if":
            self.advance()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then = self.parse_block()
            otherwise = self.parse_block() if self.accept("else") else []
            return ast.If(line=tok.line, col=tok.col, condition=cond,
                          then=then, otherwise=otherwise)
        if tok.type == "let":
            self.advance()
            name = self.expect("IDENT", "local name").text
            self.expect("=")
            value = self.parse_expr()
            self.expect(";")
            return ast.Let(line=tok.line, col=tok.col, name=name, value=value)
        if tok.type == "return":
            self.advance()
            value = None if self.check(";") else self.parse_expr()
            self.expect(";")
            return ast.Return(line=tok.line, col=tok.col, value=value)
        if tok.type == "emit":
            self.advance()
            name = self.expect("IDENT", "event name").text
            self.expect("(")
            args = []
            if not self.check(")"):
                args.append(self.parse_expr())
                while self.accept(","):
                    args.append(self.parse_expr())
            self.expect(")")
            self.expect(";")
            return ast.Emit(line=tok.line, col=tok.col, name=name, args=args)

        expr = self.parse_expr()
        nxt = self.peek()
        if nxt.type in ASSIGN_OPS:
            if not isinstance(expr, (ast.Var, ast.MapIndex)):
                raise ParseError(nxt.line, nxt.col,
                                 "assignment target must be a name or map index")
            self.advance()
            value = self.parse_expr()
            self.expect(";")
            return ast.Assign(line=expr.line, col=expr.col, target=expr,
                              op=nxt.type, value=value)
        self.expect(";")
        return ast.ExprStmt(line=expr.line, col=expr.col, expr=expr)

    # -- expressions ---------------------------------------------------------

    def parse_expr(self):
        return self.parse_binary(0)

    def parse_binary(self, level: int):
        """Operands of `BINARY_LEVELS[level]` and tighter, joined left-
        associatively by that level's operators.

        Each operator puts its node above everything the chain has parsed
        so far, so it deepens all of it by one level; its right operand
        starts one level below the node.
        """
        if level == len(BINARY_LEVELS):
            return self.parse_unary()
        ops, chained = BINARY_LEVELS[level]
        outer, self.reach = self.reach, self.depth
        left = self.parse_binary(level + 1)
        while self.peek().type in ops:
            op = self.advance()
            self.deepen(self.reach + 1, op)
            with self.nested():
                right = self.parse_binary(level + 1)
            left = ast.Binary(line=op.line, col=op.col, op=op.type, left=left, right=right)
            if not chained:
                break
        self.reach = max(outer, self.reach)
        return left

    def parse_unary(self):
        if self.check("!"):
            with self.nested():
                op = self.advance()
                return ast.Not(line=op.line, col=op.col, operand=self.parse_unary())
        return self.parse_primary()

    def parse_call_args(self) -> list:
        self.expect("(")
        args = []
        if not self.check(")"):
            args.append(self.parse_expr())
            while self.accept(","):
                args.append(self.parse_expr())
        self.expect(")")
        return args

    def parse_primary(self):
        with self.nested():
            return self.parse_primary_unguarded()

    def parse_primary_unguarded(self):
        tok = self.peek()

        if tok.type == "INT":
            self.advance()
            return ast.IntLit(line=tok.line, col=tok.col,
                              value=int(tok.text.replace("_", "")))
        if tok.type in ("true", "false"):
            self.advance()
            return ast.BoolLit(line=tok.line, col=tok.col, value=tok.type == "true")
        if tok.type == "msg":
            self.advance()
            self.expect(".")
            member = self.peek()
            if member.type == "value":  # `value` is also a keyword
                self.advance()
                return ast.MsgValue(line=tok.line, col=tok.col)
            if member.type == "IDENT" and member.text == "sender":
                self.advance()
                return ast.MsgSender(line=tok.line, col=tok.col)
            raise ParseError(member.line, member.col,
                             f"expected 'sender' or 'value', found {member.text!r}")
        if tok.type == "this":
            self.advance()
            return ast.This(line=tok.line, col=tok.col)
        if tok.type == "gasleft":
            self.advance()
            self.expect("(")
            self.expect(")")
            return ast.GasLeft(line=tok.line, col=tok.col)
        if tok.type == "balance":
            self.advance()
            self.expect("(")
            target = self.parse_expr()
            self.expect(")")
            return ast.BalanceOf(line=tok.line, col=tok.col, target=target)
        if tok.type == "lowcall":
            self.advance()
            target = self.parse_primary()
            function, args = None, []
            if self.accept("."):
                function = self.expect("IDENT", "function name").text
                args = self.parse_call_args()
            value = self.parse_binary(ADDITIVE) if self.accept("value") else None
            gas = self.parse_binary(ADDITIVE) if self.accept("gas") else None
            return ast.LowCall(line=tok.line, col=tok.col, target=target,
                               function=function, args=args, value=value, gas=gas)
        if tok.type == "dcall":
            self.advance()
            target = self.parse_primary()
            self.expect(".")
            function = self.expect("IDENT", "function name").text
            args = self.parse_call_args()
            value = self.parse_binary(ADDITIVE) if self.accept("value") else None
            return ast.DirectCall(line=tok.line, col=tok.col, target=target,
                                  function=function, args=args, value=value)
        if tok.type in ("send", "transfer"):
            self.advance()
            target = self.parse_primary()
            self.expect("value")
            value = self.parse_binary(ADDITIVE)
            cls = ast.Send if tok.type == "send" else ast.Transfer
            return cls(line=tok.line, col=tok.col, target=target, value=value)
        if tok.type == "(":
            self.advance()
            expr = self.parse_expr()
            self.expect(")")
            return expr
        if tok.type == "IDENT":
            self.advance()
            if self.accept("["):
                key = self.parse_expr()
                self.expect("]")
                return ast.MapIndex(line=tok.line, col=tok.col, name=tok.text, key=key)
            return ast.Var(line=tok.line, col=tok.col, name=tok.text)

        raise ParseError(tok.line, tok.col,
                         f"expected expression, found {tok.text or 'end of input'!r}")


def parse(source: str, source_name: str = "<string>") -> ast.SourceUnit:
    """Parse MiniSol text into a SourceUnit; raises ParseError on bad input."""
    parser = _Parser(tokenize(source), source_name)
    return parser.parse_unit()
