"""Executable N-user bundle semantics.

States are immutable; :func:`step` is a deterministic function. Function
bodies are compiled once per bundle into Python closures over a mutable
frame; a transaction either commits (fresh state), reverts (input state
returned unchanged), or faults to the absorbing error state ``BOTTOM``.

Failure modes:
  * failed ``require``, a sum or product of 2**w or more, a difference
    below 0, division by zero: revert, i.e. the transaction is a no-op.
    Nothing else checks the domain: a literal wider than it is stored as
    written;
  * failed ``assert`` or any use of an address value that no current user
    holds: ``BOTTOM``;
  * runaway loops and call chains deeper than Python's stack:
    :class:`ResourceExhausted` (a tool error, not a state).

Address values are plain integers. Using an address (equality comparison,
mapping access, literal evaluation, the implicit zero-account and
contract-account guards) requires a user with that id to exist. Mapping
cells travel with the user's id, not the user's slot, which is what makes
address swaps commute with transactions.

The implicit guards read only the sender, the transaction name,
``ctor_done`` and which ids are present, so :func:`_settle` decides them
before any frame is built: once per :func:`step` call and once per
:func:`explore` call, never again for a replay after a fork. Only a
transaction they let through runs its body, in :func:`_run_transaction`.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterable, Iterator, NamedTuple, Union

from . import ir
from .errors import InputError, ResourceExhausted, TooFewUsers, UnknownFunction
from .record import Record
from .validator import ContractBundle, ZERO_ACCOUNT

DEFAULT_FUEL = 1 << 16


class DataDomain(Record):
    """Numeric values are integers in [0, 2**width); width is configurable."""

    width: int = 8

    def __post_init__(self):
        if not 1 <= self.width <= 64:
            raise InputError(f"domain width must be between 1 and 64 bits, got {self.width}")

    @property
    def limit(self) -> int:
        return 1 << self.width

    def values(self) -> range:
        return range(self.limit)


class Bottom:
    """The absorbing error state marker."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "s_bottom"


BOTTOM = Bottom()


class ControlState(NamedTuple):
    roles: tuple[int, ...]
    data: tuple[int, ...]
    ctor_done: int = 0


class UserRecord(NamedTuple):
    id: int
    map_vals: tuple[int, ...]


class BundleState(NamedTuple):
    control: Union[ControlState, Bottom]
    users: tuple[UserRecord, ...]

    @property
    def is_bottom(self) -> bool:
        return isinstance(self.control, Bottom)


class Action(NamedTuple):
    tx: str
    clients: tuple[int, ...]
    args: tuple[int, ...]


def init_state(bundle: ContractBundle, addresses: Iterable[int]) -> BundleState:
    """All-zero initial state with one user per address, in the given order."""
    addrs = tuple(addresses)
    if len(addrs) < 2:
        raise TooFewUsers(
            f"need at least the zero account and the contract account, got {len(addrs)}")
    if len(set(addrs)) != len(addrs):
        raise ValueError("addresses must be distinct")
    zeros = (0,) * bundle.n_maps
    control = ControlState((0,) * bundle.n_roles, (0,) * bundle.n_data, 0)
    return BundleState(control, tuple(UserRecord(a, zeros) for a in addrs))


def enumerate_actions(bundle: ContractBundle, addresses: Iterable[int],
                      domain: DataDomain) -> Iterator[Action]:
    """Every (tx, clients, args) combination exactly once, in a fixed order:
    transactions in declaration order (constructor first), then clients and
    arguments lexicographically over the sorted address set."""
    addrs = sorted(addresses)
    for name in bundle.tx_order:
        sig = bundle.signature(name)
        for clients in itertools.product(addrs, repeat=sig.clients):
            for args in itertools.product(domain.values(), repeat=sig.args):
                yield Action(name, clients, args)


def swap_addresses(obj, x: int, y: int):
    """Exchange addresses x and y wherever they appear as ids, role values,
    or action clients; map values and numeric data are untouched."""
    def sw(a: int) -> int:
        if a == x:
            return y
        if a == y:
            return x
        return a

    if isinstance(obj, BundleState):
        control = obj.control
        if not isinstance(control, Bottom):
            control = ControlState(tuple(sw(r) for r in control.roles),
                                   control.data, control.ctor_done)
        return BundleState(control,
                           tuple(UserRecord(sw(u.id), u.map_vals) for u in obj.users))
    if isinstance(obj, ControlState):
        return ControlState(tuple(sw(r) for r in obj.roles), obj.data, obj.ctor_done)
    if isinstance(obj, Action):
        return Action(obj.tx, tuple(sw(c) for c in obj.clients), obj.args)
    if isinstance(obj, UserRecord):
        return UserRecord(sw(obj.id), obj.map_vals)
    raise TypeError(f"cannot swap addresses in {type(obj).__name__}")


# --------------------------------------------------------------------------
# transaction execution machinery
# --------------------------------------------------------------------------

class _Revert(Exception):
    pass


class _Return(Exception):
    pass


class _Fault(Exception):
    """Raised for transitions into BOTTOM."""


class NeedChoice(Exception):
    """Internal: a choice-mode read hit a user slot with no assigned value."""

    def __init__(self, slot: int):
        super().__init__(slot)
        self.slot = slot


class TaggedAddress(int):
    """An address value carrying the provenance of its occurrence (client
    slot, role index, or literal). Behaves as a plain int everywhere; the
    logging interpreter uses the tag to classify participation."""

    def __new__(cls, value: int, origins: tuple):
        self = super().__new__(cls, value)
        self.origins = origins
        return self


def apply_writes(vec: tuple[int, ...], cells: dict[int, int] | None) -> tuple[int, ...]:
    """``vec`` with the cells one slot's writes overwrote."""
    if not cells:
        return vec
    out = list(vec)
    for c, v in cells.items():
        out[c] = v
    return tuple(out)


class _Frame:
    """The one mutable object of a transaction run: ``base`` holds the map
    vectors it may read, ``{slot: vector}``, and ``writes`` the cells it
    wrote, ``{slot: {cell: value}}``."""

    __slots__ = ("roles", "data", "slot_of", "base", "writes", "limit", "fuel",
                 "uses", "clients", "args", "locs", "functions")

    def __init__(self, roles, data, slot_of, base, limit, uses, functions):
        self.roles = roles
        self.data = data
        self.slot_of = slot_of
        self.base = base
        self.writes: dict[int, dict[int, int]] = {}
        self.limit = limit
        self.fuel = DEFAULT_FUEL
        self.uses = uses
        self.clients: tuple[int, ...] = ()
        self.args: tuple[int, ...] = ()
        self.locs: list[int] = []
        self.functions = functions

    def use_address(self, a: int) -> int:
        if self.uses is not None:
            self.uses.setdefault(int(a), set()).update(getattr(a, "origins", ()))
        if a not in self.slot_of:
            raise _Fault
        return a

    def read(self, address: int, cell: int) -> int:
        slot = self.slot_of[self.use_address(address)]
        cells = self.writes.get(slot)
        if cells is not None and cell in cells:
            return cells[cell]
        vec = self.base.get(slot)
        if vec is None:
            raise NeedChoice(slot)
        return vec[cell]


# -- expression compilation -------------------------------------------------

def _compile_expr(e):
    if isinstance(e, ir.RNum):
        v = e.value
        return lambda f: v
    if isinstance(e, ir.RAddrLit):
        # A fixed address is tagged once, here.
        a = TaggedAddress(e.value, (("implicit", e.value),))
        return lambda f: f.use_address(a)
    if isinstance(e, ir.RRole):
        i = e.index
        return lambda f: f.roles[i]
    if isinstance(e, ir.RData):
        i = e.index
        return lambda f: f.data[i]
    if isinstance(e, ir.RClient):
        i = e.slot
        return lambda f: f.clients[i]
    if isinstance(e, ir.RArg):
        i = e.index
        return lambda f: f.args[i]
    if isinstance(e, ir.RLocal):
        i = e.slot
        return lambda f: f.locs[i]
    if isinstance(e, ir.RMapRead):
        m, key = e.map_index, _compile_expr(e.key)
        return lambda f: f.read(key(f), m)
    if isinstance(e, ir.RNot):
        op = _compile_expr(e.operand)
        return lambda f: 1 if op(f) == 0 else 0
    if isinstance(e, ir.RBin):
        return _compile_bin(e)
    raise TypeError(f"cannot compile {e!r}")


_CMP = {"==": operator.eq, "!=": operator.ne, "<": operator.lt, ">": operator.gt}
_GROW = {"+": operator.add, "*": operator.mul}  # can only leave the domain upward


def _compile_bin(e: ir.RBin):
    op = e.op
    left = _compile_expr(e.left)
    right = _compile_expr(e.right)
    if op == "&&":
        return lambda f: 1 if (left(f) != 0 and right(f) != 0) else 0
    if op == "||":
        return lambda f: 1 if (left(f) != 0 or right(f) != 0) else 0
    if op in _CMP:
        cmp = _CMP[op]
        if e.address_compare:
            return lambda f: 1 if cmp(f.use_address(left(f)), f.use_address(right(f))) else 0
        return lambda f: 1 if cmp(left(f), right(f)) else 0
    if op in _GROW:
        grow = _GROW[op]
        def arith(f):
            v = grow(left(f), right(f))
            if v >= f.limit:
                raise _Revert  # a sum or product past the domain reverts
            return v
        return arith
    if op == "-":
        def sub(f):
            v = left(f) - right(f)
            if v < 0:
                raise _Revert
            return v
        return sub
    if op == "/":
        def div(f):
            r = right(f)
            if r == 0:
                raise _Revert  # on-chain style: division by zero reverts
            return left(f) // r
        return div
    raise TypeError(f"unknown operator {op}")


def _compile_stmt(s):
    if isinstance(s, ir.SRole):
        i, val = s.index, _compile_expr(s.value)
        def st(f):
            f.roles[i] = val(f)
        return st
    if isinstance(s, ir.SData):
        i, val = s.index, _compile_expr(s.value)
        def st(f):
            f.data[i] = val(f)
        return st
    if isinstance(s, ir.SLocal):
        i, val = s.slot, _compile_expr(s.value)
        def st(f):
            f.locs[i] = val(f)
        return st
    if isinstance(s, ir.SMapWrite):
        m, key, val = s.map_index, _compile_expr(s.key), _compile_expr(s.value)
        def st(f):
            slot = f.slot_of[f.use_address(key(f))]
            f.writes.setdefault(slot, {})[m] = val(f)
        return st
    if isinstance(s, (ir.SRequire, ir.SAssert)):
        cond = _compile_expr(s.cond)
        # A class, not a shared instance, which would keep every traceback alive.
        failure = _Revert if isinstance(s, ir.SRequire) else _Fault
        def st(f):
            if cond(f) == 0:
                raise failure
        return st
    if isinstance(s, ir.SReturn):
        def st(f):
            raise _Return
        return st
    if isinstance(s, ir.SIf):
        cond = _compile_expr(s.cond)
        body = [_compile_stmt(x) for x in s.body]
        def st(f):
            if cond(f) != 0:
                for b in body:
                    b(f)
        return st
    if isinstance(s, ir.SWhile):
        cond = _compile_expr(s.cond)
        body = [_compile_stmt(x) for x in s.body]
        def st(f):
            while cond(f) != 0:
                f.fuel -= 1
                if f.fuel <= 0:
                    raise ResourceExhausted("loop fuel exhausted")
                for b in body:
                    b(f)
        return st
    if isinstance(s, ir.SCall):
        callee = s.callee
        client_exprs = [_compile_expr(c) for c in s.client_exprs]
        arg_exprs = [_compile_expr(a) for a in s.arg_exprs]
        def st(f):
            clients = tuple(c(f) for c in client_exprs)
            args = tuple(a(f) for a in arg_exprs)
            saved = (f.clients, f.args, f.locs)
            try:
                f.functions[callee](f, clients, args)
            finally:
                f.clients, f.args, f.locs = saved
        return st
    raise TypeError(f"cannot compile statement {s!r}")


def _compile_function(fn: ir.IRFunction):
    body = [_compile_stmt(s) for s in fn.body]
    n_locals = fn.n_locals

    def invoke(f: _Frame, clients: tuple[int, ...], args: tuple[int, ...]) -> None:
        f.clients = clients
        f.args = args
        f.locs = [0] * n_locals
        try:
            for st in body:
                st(f)
        except _Return:
            pass
    return invoke


class _CompiledBundle(NamedTuple):
    guards: tuple[int, ...]  # the senders the implicit guards turn away
    functions: dict  # {(contract, name): invoke}


def _compiled(bundle: ContractBundle) -> _CompiledBundle:
    cb = getattr(bundle, "_compiled_cache", None)
    if cb is None:
        cb = _CompiledBundle((ZERO_ACCOUNT, *bundle.contract_accounts),
                             {key: _compile_function(fn)
                              for key, fn in bundle.all_functions.items()})
        bundle._compiled_cache = cb  # type: ignore[attr-defined]
    return cb


_SLOTOF_CACHE: dict[tuple[int, ...], dict[int, int]] = {}


def _slot_of(ids: tuple[int, ...]) -> dict[int, int]:
    m = _SLOTOF_CACHE.get(ids)
    if m is None:
        m = {a: i for i, a in enumerate(ids)}
        _SLOTOF_CACHE[ids] = m
    return m


def _settle(cb: _CompiledBundle, control: ControlState, slot_of: dict[int, int],
            action: Action, uses) -> str | None:
    """The implicit guards, decided from the sender, the transaction name,
    ``ctor_done`` and which ids are present, before any frame exists.
    Returns the outcome they settle the transaction with, "bottom" or
    "revert", or None when its body must run. When ``uses`` is a dict, the
    addresses the guards use are logged into it.

    In order: an undeclared transaction is an error; an unrepresented
    sender faults; then for each guard account (the zero account, then the
    contract accounts) an unrepresented account faults and one equal to the
    sender reverts; last, the constructor runs once and only once, and
    nothing else runs before it.
    """
    if (0, action.tx) not in cb.functions:
        raise UnknownFunction(action.tx)
    sender = action.clients[0]
    if uses is not None:
        uses[sender] = {("explicit", 0)}
    if sender not in slot_of:
        return "bottom"
    for acct in cb.guards:
        if uses is not None:
            uses.setdefault(acct, set()).add(("implicit", acct))
        if acct not in slot_of:
            return "bottom"
        if sender == acct:
            return "revert"
    if action.tx == "constructor":
        return "revert" if control.ctor_done else None
    return None if control.ctor_done else "revert"


def _run_transaction(cb: _CompiledBundle, control: ControlState,
                     slot_of: dict[int, int], base: dict[int, tuple[int, ...]],
                     action: Action, limit: int,
                     uses) -> tuple[str, ControlState | None, dict[int, dict[int, int]]]:
    """Run the body of a transaction that :func:`_settle` let through, from
    ``control`` over the map vectors ``base``. Returns ``(outcome,
    control_after, writes)`` as :class:`Leaf` has them: the writes of an
    "ok" run, none otherwise.

    A read of a slot ``base`` has no vector for raises NeedChoice. When
    ``uses`` is a dict, every use is logged with its provenance: clients
    and roles are tagged here, fixed addresses when they are compiled.
    """
    roles = list(control.roles)
    f = _Frame(roles, list(control.data), slot_of, base, limit, uses, cb.functions)
    clients = action.clients
    if uses is not None:
        clients = tuple(TaggedAddress(c, (("explicit", i),))
                        for i, c in enumerate(clients))
        for i, v in enumerate(roles):
            roles[i] = TaggedAddress(v, (("transient", i),))
    try:
        cb.functions[(0, action.tx)](f, clients, action.args)
    except _Revert:
        return "revert", control, {}
    except _Fault:
        return "bottom", None, {}
    except RecursionError:  # a call chain deeper than Python's stack
        raise ResourceExhausted("call depth exhausted") from None
    # Only a first constructor run or a run after construction gets here.
    return "ok", ControlState(tuple(map(int, roles)), tuple(f.data), 1), f.writes


def step(bundle: ContractBundle, state: BundleState, action: Action,
         domain: DataDomain) -> BundleState:
    """Deterministic transition function over full bundle states."""
    control = state.control
    if control is BOTTOM:
        raise ValueError("cannot step from the error state")
    cb = _compiled(bundle)
    users = state.users
    slot_of = _slot_of(tuple([u.id for u in users]))
    outcome = _settle(cb, control, slot_of, action, None)
    if outcome is None:
        outcome, post, writes = _run_transaction(
            cb, control, slot_of, {i: u.map_vals for i, u in enumerate(users)},
            action, domain.limit, None)
        if outcome == "ok":
            out = list(users)
            for slot, cells in writes.items():
                u = out[slot]
                out[slot] = UserRecord(u.id, apply_writes(u.map_vals, cells))
            return BundleState(post, tuple(out))
    if outcome == "revert":
        return state
    return BundleState(BOTTOM, users)


# --------------------------------------------------------------------------
# choice-mode exploration: one transaction over per-user value domains
# --------------------------------------------------------------------------

class Leaf(NamedTuple):
    """One execution path of an action from a control state.

    ``assignment`` fixes the map vectors of the user slots the execution
    read, ``{slot: vector}``; ``outcome`` is "ok", "revert", or "bottom".
    ``control_after`` is the post control state (the pre control for
    "revert", None for "bottom") and ``writes`` the user cells an "ok" path
    overwrote, ``{slot: {cell: value}}``. ``uses`` maps every address value
    whose representation the run required to the provenance of its
    occurrences (logged only when requested, else empty).
    """

    assignment: dict[int, tuple[int, ...]]
    outcome: str
    control_after: ControlState | None
    writes: dict[int, dict[int, int]]
    uses: dict[int, set]


def explore(bundle: ContractBundle, control: ControlState, ids: tuple[int, ...],
            domains, action: Action, domain: DataDomain,
            log_uses: bool = False) -> list[Leaf]:
    """All execution paths of ``action`` when each user slot's map vector
    ranges over ``domains[slot]``, a sequence of tuples in ascending order.
    Deterministic order: depth-first, forked values in the given order."""
    cb = _compiled(bundle)
    slot_of = _slot_of(ids)
    guard_uses = {} if log_uses else None
    settled = _settle(cb, control, slot_of, action, guard_uses)
    if settled is not None:
        return [Leaf({}, settled, control if settled == "revert" else None, {},
                     guard_uses or {})]
    leaves: list[Leaf] = []

    def run(assignment: dict[int, tuple[int, ...]]):
        uses = None if guard_uses is None else {
            a: set(origins) for a, origins in guard_uses.items()}
        try:
            outcome, post, writes = _run_transaction(cb, control, slot_of, assignment,
                                                     action, domain.limit, uses)
        except NeedChoice as nc:
            for v in domains[nc.slot]:
                run({**assignment, nc.slot: v})
            return
        leaves.append(Leaf(assignment, outcome, post, writes, uses or {}))

    run({})
    return leaves
