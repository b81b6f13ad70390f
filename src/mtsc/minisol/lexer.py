"""Tokenizer for MiniSol source text.

Token set (frozen, documented in the README): ASCII identifiers
(`[A-Za-z_][A-Za-z0-9_]*`), unsigned decimal integer literals
(`[0-9][0-9_]*`), punctuation, and the keyword list below; any other
character outside a comment is a ParseError. `msg.sender` and `msg.value`
are lexed as three tokens and assembled by the parser.
"""

from __future__ import annotations

import re
from typing import NamedTuple


class ParseError(Exception):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
        self.message = message

    def __reduce__(self):
        # the default rebuilds from `args`, the one formatted string
        return ParseError, (self.line, self.column, self.message)


KEYWORDS = {
    "contract", "fn", "fallback", "payable",
    "uint", "bool", "addr", "map",
    "require", "revert", "if", "else", "let", "return", "emit",
    "lowcall", "dcall", "send", "transfer", "value", "gas",
    "msg", "this", "gasleft", "balance",
    "true", "false",
}

PUNCT = [
    "&&", "||", "==", "!=", "<=", ">=", "+=", "-=",
    "{", "}", "(", ")", "[", "]", ";", ",", ".", ":",
    "=", "<", ">", "+", "-", "*", "!",
]


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


class Token(NamedTuple):
    type: str  # keyword text, punct text, "IDENT", "INT", or "EOF"
    text: str
    line: int
    col: int


new = tuple.__new__  # builds a token without its Python-level __new__


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
