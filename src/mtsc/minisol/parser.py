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

Binary expressions are read by one loop over the operator table
`BINARY`, which gives each operator its precedence level and whether it
chains; the right operand of an operator is read by a recursive call that
takes only tighter operators.

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

# binary operator -> (precedence level, loosest 0, and whether it chains)
BINARY = {"||": (0, True), "&&": (1, True),
          **dict.fromkeys(("==", "!=", "<", "<=", ">", ">="), (2, False)),
          "+": (3, True), "-": (3, True), "*": (4, True)}
NOT_BINARY = (-1, False)  # below every level
ADDITIVE, TIGHTEST = 3, 4  # the levels of `+ -` and of `*`

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
    # `pos` moves only past a token of a type other than EOF, so it always
    # indexes a token

    def accept(self, ttype: str) -> Token | None:
        tok = self.tokens[self.pos]
        if tok.type != ttype:
            return None
        self.pos += 1
        return tok

    def expect(self, ttype: str, what: str = "") -> Token:
        tok = self.tokens[self.pos]
        if tok.type != ttype:
            want = what or repr(ttype)
            raise ParseError(tok.line, tok.col,
                             f"expected {want}, found {tok.text or 'end of input'!r}")
        self.pos += 1
        return tok

    def deepen(self, level: int, tok: Token):
        """Record that the tree reaches `level` levels deep at `tok`."""
        if level > MAX_NESTING:
            raise ParseError(tok.line, tok.col,
                             f"nesting deeper than {MAX_NESTING} levels")
        if level > self.reach:
            self.reach = level

    # -- declarations ------------------------------------------------------

    def parse_unit(self) -> ast.SourceUnit:
        contracts = []
        while self.tokens[self.pos].type != "EOF":
            contracts.append(self.parse_contract())
        if not contracts:
            tok = self.tokens[self.pos]
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
            tok = self.tokens[self.pos]
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
        kind_tok = self.tokens[self.pos]
        self.pos += 1
        name = self.expect("IDENT", "state variable name")
        self.expect(";")
        return ast.StateVar(line=kind_tok.line, col=kind_tok.col,
                            name=name.text, kind=KIND_TOKENS[kind_tok.type])

    def parse_function(self) -> ast.FunctionDef:
        kw = self.expect("fn")
        name = self.expect("IDENT", "function name").text
        self.expect("(")
        params = []
        if self.tokens[self.pos].type != ")":
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
        kind_tok = self.tokens[self.pos]
        if kind_tok.type not in ("uint", "bool", "addr"):
            raise ParseError(kind_tok.line, kind_tok.col, "expected parameter kind, "
                             f"found {kind_tok.text or 'end of input'!r}")
        self.pos += 1
        return ast.Param(line=name.line, col=name.col, name=name.text,
                         kind=KIND_TOKENS[kind_tok.type])

    def parse_fallback(self) -> ast.FunctionDef:
        kw = self.expect("fallback")
        payable = self.accept("payable") is not None
        body = self.parse_block()
        return ast.FunctionDef(line=kw.line, col=kw.col, payable=payable, body=body)

    # -- statements ----------------------------------------------------------

    def parse_block(self) -> list:
        self.expect("{")
        stmts = []
        # one level deeper; a ParseError ends the parse, so only a block
        # that closes comes back up
        self.depth += 1
        self.deepen(self.depth, self.tokens[self.pos])
        while not self.accept("}"):
            stmts.append(self.parse_stmt())
        self.depth -= 1
        return stmts

    def parse_stmt(self):
        tok = self.tokens[self.pos]
        if tok.type == "require":
            self.pos += 1
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            self.expect(";")
            return ast.Require(line=tok.line, col=tok.col, condition=cond)
        if tok.type == "revert":
            self.pos += 1
            self.expect("(")
            self.expect(")")
            self.expect(";")
            return ast.Revert(line=tok.line, col=tok.col)
        if tok.type == "if":
            self.pos += 1
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then = self.parse_block()
            otherwise = self.parse_block() if self.accept("else") else []
            return ast.If(line=tok.line, col=tok.col, condition=cond,
                          then=then, otherwise=otherwise)
        if tok.type == "let":
            self.pos += 1
            name = self.expect("IDENT", "local name").text
            self.expect("=")
            value = self.parse_expr()
            self.expect(";")
            return ast.Let(line=tok.line, col=tok.col, name=name, value=value)
        if tok.type == "return":
            self.pos += 1
            value = None if self.tokens[self.pos].type == ";" else self.parse_expr()
            self.expect(";")
            return ast.Return(line=tok.line, col=tok.col, value=value)
        if tok.type == "emit":
            self.pos += 1
            name = self.expect("IDENT", "event name").text
            args = self.parse_call_args()
            self.expect(";")
            return ast.Emit(line=tok.line, col=tok.col, name=name, args=args)

        expr = self.parse_expr()
        nxt = self.tokens[self.pos]
        if nxt.type in ASSIGN_OPS:
            if not isinstance(expr, (ast.Var, ast.MapIndex)):
                raise ParseError(nxt.line, nxt.col,
                                 "assignment target must be a name or map index")
            self.pos += 1
            value = self.parse_expr()
            self.expect(";")
            return ast.Assign(line=expr.line, col=expr.col, target=expr,
                              op=nxt.type, value=value)
        self.expect(";")
        return ast.ExprStmt(line=expr.line, col=expr.col, expr=expr)

    # -- expressions ---------------------------------------------------------

    def parse_expr(self, lowest: int = 0):
        """Operands joined left-associatively by the binary operators of
        level `lowest` and tighter.

        Each operator puts its node above everything the loop has parsed
        so far, so it deepens all of it by one level; its right operand
        starts one level below the node and takes only tighter operators.
        After an operator of level L the loop takes operators of level L
        or looser if it chains, and only looser ones if it does not.
        """
        tokens = self.tokens
        outer, self.reach = self.reach, self.depth
        left = self.parse_unary()
        highest = TIGHTEST
        while True:
            op = tokens[self.pos]
            level, chained = BINARY.get(op.type, NOT_BINARY)
            if level < lowest or level > highest:
                break
            self.pos += 1
            self.deepen(self.reach + 1, op)
            self.depth += 1  # the left operand already reaches this level
            right = self.parse_expr(level + 1)
            self.depth -= 1
            left = ast.Binary(line=op.line, col=op.col, op=op.type, left=left, right=right)
            highest = level if chained else level - 1
        if outer > self.reach:
            self.reach = outer
        return left

    def parse_unary(self):
        tok = self.tokens[self.pos]
        if tok.type != "!":
            return self.parse_primary()
        self.depth += 1
        self.deepen(self.depth, tok)
        self.pos += 1
        node = ast.Not(line=tok.line, col=tok.col, operand=self.parse_unary())
        self.depth -= 1
        return node

    def parse_call_args(self) -> list:
        self.expect("(")
        args = []
        if self.tokens[self.pos].type != ")":
            args.append(self.parse_expr())
            while self.accept(","):
                args.append(self.parse_expr())
        self.expect(")")
        return args

    def parse_primary(self):
        tok = self.tokens[self.pos]
        ttype = tok.type
        self.depth += 1
        self.deepen(self.depth, tok)
        if ttype == "IDENT":
            self.pos += 1
            if self.accept("["):
                key = self.parse_expr()
                self.expect("]")
                node = ast.MapIndex(line=tok.line, col=tok.col, name=tok.text, key=key)
            else:
                node = ast.Var(line=tok.line, col=tok.col, name=tok.text)
        elif ttype == "INT":
            self.pos += 1
            digits = tok.text.replace("_", "").lstrip("0") or "0"
            # the digit count first: int() refuses very long digit strings
            if len(digits) > UINT_DIGITS or int(digits) > ast.UINT_MAX:
                raise ParseError(tok.line, tok.col,
                                 f"integer literal exceeds the uint maximum {ast.UINT_MAX}")
            node = ast.IntLit(line=tok.line, col=tok.col, value=int(digits))
        elif ttype == "true" or ttype == "false":
            self.pos += 1
            node = ast.BoolLit(line=tok.line, col=tok.col, value=ttype == "true")
        elif ttype == "msg":
            self.pos += 1
            self.expect(".")
            member = self.tokens[self.pos]
            if member.type == "value":  # `value` is also a keyword
                node = ast.MsgValue(line=tok.line, col=tok.col)
            elif member.type == "IDENT" and member.text == "sender":
                node = ast.MsgSender(line=tok.line, col=tok.col)
            else:
                raise ParseError(member.line, member.col, "expected 'sender' or 'value', "
                                 f"found {member.text or 'end of input'!r}")
            self.pos += 1
        elif ttype == "this":
            self.pos += 1
            node = ast.This(line=tok.line, col=tok.col)
        elif ttype == "gasleft":
            self.pos += 1
            self.expect("(")
            self.expect(")")
            node = ast.GasLeft(line=tok.line, col=tok.col)
        elif ttype == "balance":
            self.pos += 1
            self.expect("(")
            target = self.parse_expr()
            self.expect(")")
            node = ast.BalanceOf(line=tok.line, col=tok.col, target=target)
        elif ttype in ast.CALL_FORMS:
            self.pos += 1
            target = self.parse_primary()
            function, args, value, gas = None, [], None, None
            if ttype == "dcall" or ttype == "lowcall" and self.tokens[self.pos].type == ".":
                self.expect(".")
                function = self.expect("IDENT", "function name").text
                args = self.parse_call_args()
            # send and transfer require the value clause
            if self.accept("value") or ttype in ast.STIPEND_ONLY and self.expect("value"):
                value = self.parse_expr(ADDITIVE)
            if ttype == "lowcall" and self.accept("gas"):
                gas = self.parse_expr(ADDITIVE)
            node = ast.Call(line=tok.line, col=tok.col, form=ttype, target=target,
                            function=function, args=args, value=value, gas=gas)
        elif ttype == "(":
            self.pos += 1
            node = self.parse_expr()
            self.expect(")")
        else:
            raise ParseError(tok.line, tok.col,
                             f"expected expression, found {tok.text or 'end of input'!r}")
        self.depth -= 1
        return node


def parse(source: str, source_name: str = "<string>") -> ast.SourceUnit:
    """Parse MiniSol text into a SourceUnit; raises ParseError on bad input."""
    parser = _Parser(tokenize(source), source_name)
    return parser.parse_unit()
