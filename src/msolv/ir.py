"""Resolved intermediate form consumed by the interpreter and analyses.

The validator lowers the surface AST into these nodes: every variable
reference is replaced by its storage class and index, bools are folded to
{0,1}, ``this`` becomes the contract's account address, and cross-contract
calls are bound to their static instance with their msg.sender spelled out.
"""

from __future__ import annotations

from .record import Record


class RNum(Record):
    value: int


class RAddrLit(Record):
    """A literal address (incl. ``this``); evaluation checks it is in scope."""

    value: int


class RRole(Record):
    index: int


class RData(Record):
    index: int


class RClient(Record):
    slot: int  # 0 is msg.sender


class RArg(Record):
    index: int


class RLocal(Record):
    slot: int
    is_address: bool


class RMapRead(Record):
    map_index: int
    key: "RExpr"


class RBin(Record):
    op: str
    left: "RExpr"
    right: "RExpr"
    address_compare: bool = False


class RNot(Record):
    operand: "RExpr"


class SRole(Record):
    index: int
    value: object


class SData(Record):
    index: int
    value: object


class SLocal(Record):
    slot: int
    value: object


class SMapWrite(Record):
    map_index: int
    key: object
    value: object


class SRequire(Record):
    cond: object


class SAssert(Record):
    cond: object


class SReturn(Record):
    pass


class SIf(Record):
    cond: object
    body: tuple


class SWhile(Record):
    cond: object
    body: tuple


class SCall(Record):
    """Bound call: ``callee`` is (contract_index, function_name).

    ``client_exprs[i]`` is the callee's client slot i. Slot 0, its
    msg.sender, is ``RClient(0)`` for an internal call, which keeps the
    caller's sender, and the calling contract's ``this`` literal for a
    cross-contract call or ``new``.
    """

    callee: tuple[int, str]
    client_exprs: tuple
    arg_exprs: tuple


class IRFunction(Record):
    name: str
    n_clients: int   # includes msg.sender at slot 0
    n_args: int
    n_locals: int
    body: tuple
