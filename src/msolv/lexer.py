"""Tokenizer for MicroSol source text.

Line comments (``//``) are accepted even though the published grammar omits
them; real corpus files carry them.
"""

from __future__ import annotations

import re

from .errors import MicroSolSyntaxError
from .record import Record

KEYWORDS = {
    "contract", "constructor", "function", "public", "require", "assert",
    "return", "if", "while", "new", "mapping", "address", "uint", "bool",
    "true", "false", "this", "msg",
}

# Longest match first for the two-character operators.
_TWO_CHAR = ("==", "!=", "&&", "||", "=>")
_ONE_CHAR = "{}()[];,=<>+-*/!."

# One alternative per token class, tried in order. Numerals are ASCII only
# (\d also takes "٣"); \w takes what str.isalnum takes, plus "_".
_PATTERN = re.compile("|".join((
    r"(?P<newline>\n)", r"[ \t\r]+", r"//[^\n]*", r"(?P<int>[0-9]+)", r"(?P<word>\w+)",
    "(?P<op>" + "|".join(map(re.escape, (*_TWO_CHAR, *_ONE_CHAR))) + ")")))


class Token(Record):
    kind: str   # keyword text, operator text, "ident", "int", or "eof"
    text: str
    line: int
    col: int

    @property
    def value(self) -> int:
        return int(self.text)


def tokenize(source: str) -> list[Token]:
    toks: list[Token] = []
    line, line_start, i = 1, 0, 0
    while i < len(source):
        m = _PATTERN.match(source, i)
        col = i - line_start + 1
        if m is None or m.lastgroup == "word" and not (source[i].isalpha() or source[i] == "_"):
            raise MicroSolSyntaxError(f"unexpected character {source[i]!r}", line, col)
        kind, text, i = m.lastgroup, m.group(), m.end()
        if kind == "newline":
            line, line_start = line + 1, i
        elif kind == "int":
            try:
                int(text)
            except ValueError:  # over the interpreter's digit limit
                raise MicroSolSyntaxError(
                    f"numeral of {len(text)} digits is too long", line, col) from None
            toks.append(Token("int", text, line, col))
        elif kind == "word":
            toks.append(Token(text if text in KEYWORDS else "ident", text, line, col))
        elif kind == "op":
            toks.append(Token(text, text, line, col))
    toks.append(Token("eof", "", line, len(source) - line_start + 1))
    return toks
