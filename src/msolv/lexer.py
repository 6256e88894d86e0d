"""Tokenizer for MicroSol source text.

Line comments (``//``) are accepted even though the published grammar omits
them; real corpus files carry them.
"""

from __future__ import annotations

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
_DIGITS = "0123456789"  # ASCII only: str.isdigit also takes "²" and "٣"


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
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        two = source[i:i + 2]
        if two in _TWO_CHAR:
            toks.append(Token(two, two, line, col))
            i += 2
            col += 2
            continue
        if ch in _DIGITS:
            j = i
            while j < n and source[j] in _DIGITS:
                j += 1
            try:
                int(source[i:j])
            except ValueError:  # over the interpreter's digit limit
                raise MicroSolSyntaxError(
                    f"numeral of {j - i} digits is too long", line, col) from None
            toks.append(Token("int", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            kind = word if word in KEYWORDS else "ident"
            toks.append(Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        if ch in _ONE_CHAR:
            toks.append(Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise MicroSolSyntaxError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks
