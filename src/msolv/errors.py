"""Exception hierarchy shared across the toolchain, and the time-budget
check behind every ``BudgetExceeded("time budget exceeded")``."""

from __future__ import annotations

import time
from typing import Iterable, Iterator, TypeVar

_T = TypeVar("_T")


class MsolvError(Exception):
    """Base class for all tool errors."""


class MicroSolSyntaxError(MsolvError):
    """Raised by the lexer/parser on malformed source, at ``line:col``; the
    message names what would have been accepted there."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class ValidationError(MsolvError):
    """Semantic rejection of a parsed contract.

    ``rule`` is a stable identifier (e.g. ``no-numeric-cast``) that tests
    assert on; ``line``/``col`` point at the offending node.
    """

    def __init__(self, rule: str, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: [{rule}] {message}")
        self.rule = rule
        self.line = line
        self.col = col


class UnknownFunction(MsolvError):
    """A function name was looked up that the bundle does not define."""


class TooFewUsers(MsolvError):
    """An address set too small to host the zero account and the contract."""


class InputError(MsolvError):
    """Malformed input other than source or spec syntax: a data width out of
    range, a time budget that is NaN, a file that is not UTF-8, or a
    simulate trace that is not a list of declared actions."""


class SpecSyntaxError(MsolvError):
    """Malformed property/invariant spec text."""


class SpecBindingError(MsolvError):
    """A spec referenced an unknown or out-of-range role/data/map/slot."""


class BudgetExceeded(MsolvError):
    """An exhaustive enumeration hit its configured bound."""


def within(deadline: float, items: Iterable[_T]) -> Iterator[_T]:
    """``items`` one at a time, until ``time.monotonic()`` passes
    ``deadline``; then BudgetExceeded. Every enumeration whose size the
    input sets runs through here, so ``--budget-secs`` bounds it."""
    for item in items:
        if time.monotonic() > deadline:
            raise BudgetExceeded("time budget exceeded")
        yield item


class ResourceExhausted(MsolvError):
    """Runaway execution (loop fuel or call depth) aborted; a tool error, not
    a verdict."""
