"""Resolved intermediate form consumed by the interpreter and analyses.

The validator lowers the surface AST into these nodes: every variable
reference is replaced by its storage class and index, bools are folded to
{0,1}, ``this`` becomes the contract's account address, and cross-contract
calls are bound to their static instance with their msg.sender spelled out.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RNum:
    value: int


@dataclass(frozen=True)
class RAddrLit:
    """A literal address (incl. ``this``); evaluation checks it is in scope."""

    value: int


@dataclass(frozen=True)
class RRole:
    index: int


@dataclass(frozen=True)
class RData:
    index: int


@dataclass(frozen=True)
class RClient:
    slot: int  # 0 is msg.sender


@dataclass(frozen=True)
class RArg:
    index: int


@dataclass(frozen=True)
class RLocal:
    slot: int
    is_address: bool


@dataclass(frozen=True)
class RMapRead:
    map_index: int
    key: "RExpr"


@dataclass(frozen=True)
class RBin:
    op: str
    left: "RExpr"
    right: "RExpr"
    address_compare: bool = False


@dataclass(frozen=True)
class RNot:
    operand: "RExpr"


@dataclass(frozen=True)
class SRole:
    index: int
    value: object


@dataclass(frozen=True)
class SData:
    index: int
    value: object


@dataclass(frozen=True)
class SLocal:
    slot: int
    value: object


@dataclass(frozen=True)
class SMapWrite:
    map_index: int
    key: object
    value: object


@dataclass(frozen=True)
class SRequire:
    cond: object


@dataclass(frozen=True)
class SAssert:
    cond: object


@dataclass(frozen=True)
class SReturn:
    pass


@dataclass(frozen=True)
class SIf:
    cond: object
    body: tuple


@dataclass(frozen=True)
class SWhile:
    cond: object
    body: tuple


@dataclass(frozen=True)
class SCall:
    """Bound call: ``callee`` is (contract_index, function_name).

    ``client_exprs[i]`` is the callee's client slot i. Slot 0, its
    msg.sender, is ``RClient(0)`` for an internal call, which keeps the
    caller's sender, and the calling contract's ``this`` literal for a
    cross-contract call or ``new``.
    """

    callee: tuple[int, str]
    client_exprs: tuple
    arg_exprs: tuple


@dataclass(frozen=True)
class IRFunction:
    name: str
    n_clients: int   # includes msg.sender at slot 0
    n_args: int
    n_locals: int
    body: tuple
