"""Tokenizer for MiniSol source text.

Token set (frozen, documented in the README): ASCII identifiers
(`[A-Za-z_][A-Za-z0-9_]*`), unsigned decimal integer literals
(`[0-9][0-9_]*`), punctuation, and the keyword list below; any other
character outside a comment is a ParseError. `msg.sender` and `msg.value`
are lexed as three tokens and assembled by the parser.

One `findall` splits the source into lexemes, blanks and newlines
included; a lexeme that is a keyword or punctuation is its own token
type, any other is classed by its first character. Columns count
characters, so a tab is one column.
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


# alternatives tried in order: newline, blanks, comment, INT, IDENT, the
# punctuation (two-character operators before their one-character
# prefixes), then any other single character, which is an error
TOKEN = re.compile("|".join([
    r"\n", r"[ \t\r]+", r"//[^\n]*", r"[0-9][0-9_]*", r"[A-Za-z_][A-Za-z0-9_]*",
    *(re.escape(p) for p in PUNCT), ".",
]))

TYPES = {text: text for text in (*KEYWORDS, *PUNCT)}
# the class of any other lexeme by its first character: a token type, or
# "" for blanks; newlines, comments and errors are not listed
CLASSES = {**dict.fromkeys("0123456789", "INT"), **dict.fromkeys(" \t\r", ""),
           **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_",
                           "IDENT")}


class Token(NamedTuple):
    type: str  # keyword text, punct text, "IDENT", "INT", or "EOF"
    text: str
    line: int
    col: int


new = tuple.__new__  # builds a token without its Python-level __new__


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    for text in TOKEN.findall(source):
        ttype = TYPES.get(text)
        if ttype is None:
            ttype = CLASSES.get(text[0])
            if ttype is None:
                if text == "\n":
                    line, col = line + 1, 1
                    continue
                if text[:2] != "//":
                    raise ParseError(line, col, f"unexpected character {text!r}")
            elif ttype:
                tokens.append(new(Token, (ttype, text, line, col)))
        else:
            tokens.append(new(Token, (ttype, text, line, col)))
        col += len(text)
    tokens.append(Token("EOF", "", line, col))
    return tokens
