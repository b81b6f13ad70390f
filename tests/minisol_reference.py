"""The MiniSol front end's earlier tokenizer and binary-expression parser,
kept as the reference that `test_front_end_reference.py` compares the
program's one-pass lexer and operator loop against.

`tokenize` makes one named-group match per lexeme; `ReferenceParser`
reads binary expressions with one recursive call per precedence level per
operand. Both are kept as they were; the rest of the parser is the
program's own.
"""

from __future__ import annotations

import re

from mtsc.minisol import ast
from mtsc.minisol.lexer import PUNCT, KEYWORDS, ParseError, Token, new
from mtsc.minisol.parser import _Parser

# one alternative per token class, tried in order; PUNCT lists two-character
# operators before their one-character prefixes
TOKEN = re.compile("|".join([
    r"(?P<newline>\n)",
    r"(?P<space>[ \t\r]+)",
    r"(?P<comment>//[^\n]*)",
    r"(?P<INT>[0-9][0-9_]*)",
    r"(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)",
    "(?P<PUNCT>" + "|".join(re.escape(p) for p in PUNCT) + ")",
]))


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        match = TOKEN.match(source, i)
        if match is None:
            raise ParseError(line, col, f"unexpected character {source[i]!r}")
        kind, text, i = match.lastgroup, match.group(), match.end()
        if kind == "newline":
            line, col = line + 1, 1
        else:
            if kind not in ("space", "comment"):
                ttype = text if kind == "PUNCT" or text in KEYWORDS else kind
                tokens.append(new(Token, (ttype, text, line, col)))
            col += len(text)
    tokens.append(Token("EOF", "", line, col))
    return tokens


COMPARE_OPS = {"==", "!=", "<", "<=", ">", ">="}

# binary operators by precedence, loosest first, and whether they chain
BINARY_LEVELS = (({"||"}, True), ({"&&"}, True), (COMPARE_OPS, False),
                 ({"+", "-"}, True), ({"*"}, True))


class ReferenceParser(_Parser):
    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.type != "EOF":
            self.pos += 1
        return tok

    def enter(self):
        """Go one level deeper, at the next token. The caller comes back up
        with `self.depth -= 1`; a ParseError ends the parse, so it need not."""
        self.depth += 1
        self.deepen(self.depth, self.tokens[self.pos])

    def parse_expr(self, lowest: int = 0):
        # the levels of the program's operator table index BINARY_LEVELS
        return self.parse_binary(lowest)

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


def parse(source: str, source_name: str = "<string>") -> ast.SourceUnit:
    return ReferenceParser(tokenize(source), source_name).parse_unit()
