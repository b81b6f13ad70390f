"""Recursive-descent parser for MiniSol.

Grammar (frozen in the README). Operator precedence, loosest first:
`||`, `&&`, comparisons (non-associative), `+ -`, `*`, unary `!`, primary.
The four call forms (lowcall / dcall / send / transfer) parse as primary
expressions in one rule, into one `ast.Call` node: the target is a primary
expression, `.name(args)` follows it in a dcall and may in a lowcall,
`value` is required by send/transfer and optional otherwise, and only a
lowcall takes `gas`. The `value`/`gas` operands parse at additive
precedence, so comparisons around a call need parentheses. Integer
literals above the uint maximum, 2**128 - 1, are a ParseError.

Expressions and blocks nest at most MAX_NESTING levels deep; deeper input
raises ParseError instead of exhausting the Python stack of the passes
that walk the tree. Every binary operator counts as a level, a chain of
one left-associative operator included: `1 + 1 + 1` nests three levels
deep, two operators above the first literal.
"""

from __future__ import annotations

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

UINT_DIGITS = len(str(ast.UINT_MAX))

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

    def peek(self) -> Token:
        # `advance` stops at the closing EOF token, so `pos` always indexes one
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.type != "EOF":
            self.pos += 1
        return tok

    def check(self, ttype: str) -> bool:
        return self.tokens[self.pos].type == ttype

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
        if level > self.reach:
            self.reach = level

    def enter(self):
        """Go one level deeper, at the next token. The caller comes back up
        with `self.depth -= 1`; a ParseError ends the parse, so it need not."""
        self.depth += 1
        self.deepen(self.depth, self.tokens[self.pos])

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
                                 "expected state variable, fn, or fallback, "
                                 f"found {tok.text or 'end of input'!r}")
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
        self.enter()
        while not self.accept("}"):
            stmts.append(self.parse_stmt())
        self.depth -= 1
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
            args = self.parse_call_args()
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
        while self.tokens[self.pos].type in ops:
            op = self.advance()
            self.deepen(self.reach + 1, op)
            self.enter()
            right = self.parse_binary(level + 1)
            self.depth -= 1
            left = ast.Binary(line=op.line, col=op.col, op=op.type, left=left, right=right)
            if not chained:
                break
        if outer > self.reach:
            self.reach = outer
        return left

    def parse_unary(self):
        if self.check("!"):
            self.enter()
            op = self.advance()
            node = ast.Not(line=op.line, col=op.col, operand=self.parse_unary())
            self.depth -= 1
            return node
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
        self.enter()
        node = self.parse_primary_unguarded()
        self.depth -= 1
        return node

    def parse_primary_unguarded(self):
        tok = self.peek()

        if tok.type == "INT":
            self.advance()
            digits = tok.text.replace("_", "").lstrip("0") or "0"
            # the digit count first: int() refuses very long digit strings
            if len(digits) > UINT_DIGITS or int(digits) > ast.UINT_MAX:
                raise ParseError(tok.line, tok.col,
                                 f"integer literal exceeds the uint maximum {ast.UINT_MAX}")
            return ast.IntLit(line=tok.line, col=tok.col, value=int(digits))
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
        if tok.type in ast.CALL_FORMS:
            form = self.advance().type
            target = self.parse_primary()
            function, args, value, gas = None, [], None, None
            if form == "dcall" or form == "lowcall" and self.check("."):
                self.expect(".")
                function = self.expect("IDENT", "function name").text
                args = self.parse_call_args()
            # send and transfer require the value clause
            if self.accept("value") or form in ast.STIPEND_ONLY and self.expect("value"):
                value = self.parse_binary(ADDITIVE)
            if form == "lowcall" and self.accept("gas"):
                gas = self.parse_binary(ADDITIVE)
            return ast.Call(line=tok.line, col=tok.col, form=form, target=target,
                            function=function, args=args, value=value, gas=gas)
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
