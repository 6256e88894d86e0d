"""Executable N-user bundle semantics.

States are immutable; :func:`step` is a deterministic function. Each
function body is compiled once per bundle from generated Python source and
bound plain or logging (tagged fixed addresses, a slot map that logs every
use); a transaction either commits (fresh state), reverts (input state
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
before any generated code runs: once per :func:`step` call and once per
:func:`explore` call, never again for a replay after a fork. Only a
transaction they let through runs its body, in :func:`_run_transaction`.
:func:`step` memoises the split of the last users tuple it was given (its
slot map and map vectors), keyed by identity, so stepping one state through
every action splits its users once.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, NamedTuple

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


BOTTOM = None  # the absorbing error state's control, as in a faulting Leaf


class ControlState(NamedTuple):
    roles: tuple[int, ...]
    data: tuple[int, ...]
    ctor_done: int = 0


class UserRecord(NamedTuple):
    id: int
    map_vals: tuple[int, ...]


class BundleState(NamedTuple):
    control: ControlState | None
    users: tuple[UserRecord, ...]

    @property
    def is_bottom(self) -> bool:
        return self.control is None


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
        fn = bundle.signature(name)
        for clients in itertools.product(addrs, repeat=fn.n_clients):
            for args in itertools.product(domain.values(), repeat=fn.n_args):
                yield Action(name, clients, args)


def swap_addresses(obj, x: int, y: int):
    """A state or action with addresses x and y exchanged as ids, role
    values and clients; map values and numeric data are untouched."""
    def sw(a: int) -> int:
        if a == x:
            return y
        if a == y:
            return x
        return a

    if isinstance(obj, BundleState):
        control = obj.control
        if control is not None:
            control = ControlState(tuple(sw(r) for r in control.roles),
                                   control.data, control.ctor_done)
        return BundleState(control,
                           tuple(UserRecord(sw(u.id), u.map_vals) for u in obj.users))
    if isinstance(obj, Action):
        return Action(obj.tx, tuple(sw(c) for c in obj.clients), obj.args)
    raise TypeError(f"cannot swap addresses in {type(obj).__name__}")


# --------------------------------------------------------------------------
# transaction execution machinery
# --------------------------------------------------------------------------

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


class _Touched(list):
    """A run's roles or data in the logging mode, noting in ``seen`` the
    index of every read."""

    __slots__ = ("seen",)

    def __init__(self, values, seen: set):
        super().__init__(values)
        self.seen = seen

    def __getitem__(self, i):
        self.seen.add(i)
        return list.__getitem__(self, i)


class _LoggedSlots(dict):
    """A slot map that logs each address it is asked about, by ``get`` or
    ``in``, with the address's origins into ``uses``."""

    __slots__ = ("uses",)

    def get(self, a, default=None):
        self.uses.setdefault(int(a), set()).update(getattr(a, "origins", ()))
        return dict.get(self, a, default)

    def __contains__(self, a):
        return self.get(a) is not None


def apply_writes(vec: tuple[int, ...], cells: dict[int, int] | None) -> tuple[int, ...]:
    """``vec`` with the cells one slot's writes overwrote."""
    if not cells:
        return vec
    out = list(vec)
    for c, v in cells.items():
        out[c] = v
    return tuple(out)


# -- code generation ----------------------------------------------------------
#
# Each IR function becomes one generated Python function. Its parameters are
# the run's state, then the tuples of its clients ``c<i>`` and of its
# arguments ``a<i>``; its locals are ``l<i>``. It returns 0 when it
# completes, 1 when it reverts and 2 when it faults, and a caller passes a
# non-zero code up. Every value that can fail or fork is computed into its
# own temporary ``t<i>``, in the order the semantics fixes, so no check runs
# ahead of an earlier read. The source holds only integers and the
# generator's own names.

# roles, data, slot_of, writes, base (by slot, the map vector the run may
# read, or None), the domain limit, and a one-element list holding the loop fuel
_STATE = ("R", "D", "S", "W", "B", "L", "F")
# an IR operator to the generator's own spelling of it
_CMP = {op: op for op in ("==", "!=", "<", ">")}
_ARITH = {op: op for op in ("+", "*", "-")}
# CPython compiles at most 20 nested loops and 100 levels of indentation, so
# a block nested deeper than this becomes a helper function of its own.
_MAX_DEPTH = 16


def _tuple(names) -> str:
    return "".join(n + ", " for n in names)


class _Gen:
    """The Python source of one IR function, in ``defs``, with a helper for
    each over-deep block. A fixed address N is the global ``kN``; ``fixed``
    collects every N."""

    def __init__(self, fn: ir.IRFunction, name: str, names: dict):
        self.name, self.names, self.fixed = name, names, set()
        clients = [f"c{i}" for i in range(fn.n_clients)]
        args = [f"a{i}" for i in range(fn.n_args)]
        self.head = [*_STATE, *clients, *args]  # a helper's first parameters
        self.locals = [f"l{i}" for i in range(fn.n_locals)]
        self.defs: list[str] = []
        self.temps = 0
        self.outs = None  # a helper returns (code, *outs); the function itself just the code
        self.lines = [f"def {name}({', '.join(_STATE)}, C, A):"]
        for params, given in ((clients, "C"), (args, "A")):
            if params:
                self.emit(1, f"{_tuple(params)} = {given}")
        if self.locals:
            self.emit(1, f"{' = '.join(self.locals)} = 0")
        self.block(fn.body, 1)
        self.emit(1, "return 0")
        self.defs.append("\n".join(self.lines))

    def emit(self, ind: int, line: str) -> None:
        self.lines.append(" " * ind + line)

    def temp(self) -> str:
        self.temps += 1
        return f"t{self.temps}"

    def exit(self, code: str) -> str:
        if self.outs is None:
            return f"return {code}"
        return f"return ({code}, {_tuple(self.outs)})"

    def nested(self, ind: int, body, extra: tuple = ()) -> None:
        """``body(ind)`` emits a block. Past ``_MAX_DEPTH`` it goes into a
        helper that takes and returns the locals and ``extra``, with a code:
        0 to go on, 1 revert, 2 fault, 3 a MicroSol ``return``."""
        if ind <= _MAX_DEPTH:
            body(ind)
            return
        helper, outs = f"{self.name}_{self.temp()}", (*self.locals, *extra)
        args = ", ".join([*self.head, *outs])
        saved = self.lines, self.outs
        self.lines, self.outs = [f"def {helper}({args}):"], outs
        body(1)
        self.emit(1, self.exit("0"))
        self.defs.append("\n".join(self.lines))
        self.lines, self.outs = saved
        self.emit(ind, f"r, {_tuple(outs)} = {helper}({args})")
        self.emit(ind, f"if r: {self.exit('r % 3' if self.outs is None else 'r')}")

    def block(self, stmts: tuple, ind: int) -> None:
        for s in stmts:
            self.stmt(s, ind)
        if not stmts:
            self.emit(ind, "pass")

    def stmt(self, s, ind: int) -> None:
        if isinstance(s, (ir.SRole, ir.SData, ir.SLocal)):
            target = (f"l{s.slot:d}" if isinstance(s, ir.SLocal)
                      else f"{'R' if isinstance(s, ir.SRole) else 'D'}[{s.index:d}]")
            self.emit(ind, f"{target} = {self.value(s.value, ind)}")
        elif isinstance(s, ir.SMapWrite):
            slot = self.slot(self.value(s.key, ind), ind)  # the key is used before the value runs
            value = self.value(s.value, ind)
            self.emit(ind, f"W.setdefault({slot}, {{}})[{s.map_index:d}] = {value}")
        elif isinstance(s, (ir.SRequire, ir.SAssert)):
            code = "1" if isinstance(s, ir.SRequire) else "2"
            self.emit(ind, f"if not ({self.test(s.cond, ind)}): {self.exit(code)}")
        elif isinstance(s, ir.SReturn):
            self.emit(ind, self.exit("0" if self.outs is None else "3"))
        elif isinstance(s, ir.SIf):
            self.emit(ind, f"if {self.test(s.cond, ind)}:")
            self.nested(ind + 1, lambda i: self.block(s.body, i))
        elif isinstance(s, ir.SWhile):
            self.emit(ind, "while True:")
            self.emit(ind + 1, f"if not ({self.test(s.cond, ind + 1)}): break")
            self.emit(ind + 1, "F[0] -= 1")
            self.emit(ind + 1, 'if F[0] <= 0: raise ResourceExhausted("loop fuel exhausted")')
            self.nested(ind + 1, lambda i: self.block(s.body, i))
        elif isinstance(s, ir.SCall):
            clients = [self.value(x, ind) for x in s.client_exprs]
            args = [self.value(x, ind) for x in s.arg_exprs]
            call = f"{', '.join(_STATE)}, ({_tuple(clients)}), ({_tuple(args)})"
            self.emit(ind, f"r = {self.names[s.callee]}({call})")
            self.emit(ind, f"if r: {self.exit('r')}")
        else:
            raise TypeError(f"cannot compile statement {s!r}")

    def slot(self, a: str, ind: int) -> str:
        """Use the address ``a``: fault unless a user holds it, and return
        the temporary that holds its slot."""
        slot = self.temp()
        self.emit(ind, f"{slot} = S.get({a})")
        self.emit(ind, f"if {slot} is None: {self.exit('2')}")
        return slot

    def test(self, e, ind: int) -> str:
        """Emit what ``e`` runs before its truth value; return that value as
        a Python condition."""
        if isinstance(e, ir.RNot):
            return f"{self.value(e.operand, ind)} == 0"
        if isinstance(e, ir.RBin) and e.op in _CMP:
            left = self.value(e.left, ind)
            if e.address_compare:  # the left address is used before the right operand runs
                self.slot(left, ind)
            right = self.value(e.right, ind)
            if e.address_compare:
                self.slot(right, ind)
            return f"{left} {_CMP[e.op]} {right}"
        return self.value(e, ind)

    def value(self, e, ind: int) -> str:
        """Emit what ``e`` runs before its value; return the value: an
        integer, a temporary, or a read that no expression can change."""
        if isinstance(e, ir.RNum):
            return f"{e.value:d}"
        if isinstance(e, ir.RRole):
            return f"R[{e.index:d}]"
        if isinstance(e, ir.RData):
            return f"D[{e.index:d}]"
        if isinstance(e, ir.RClient):
            return f"c{e.slot:d}"
        if isinstance(e, ir.RArg):
            return f"a{e.index:d}"
        if isinstance(e, ir.RLocal):
            return f"l{e.slot:d}"
        if isinstance(e, ir.RAddrLit):
            a = f"k{e.value:d}"
            self.fixed.add(e.value)
            self.slot(a, ind)
            return a
        t = self.temp()
        if isinstance(e, ir.RMapRead):
            slot, cells, m = self.slot(self.value(e.key, ind), ind), self.temp(), e.map_index
            self.emit(ind, f"{cells} = W.get({slot})")
            self.emit(ind, f"if {cells} is not None and {m:d} in {cells}: {t} = {cells}[{m:d}]")
            self.emit(ind, "else:")
            self.emit(ind + 1, f"{cells} = B[{slot}]")
            self.emit(ind + 1, f"if {cells} is None: raise NeedChoice({slot})")
            self.emit(ind + 1, f"{t} = {cells}[{m:d}]")
        elif isinstance(e, ir.RBin) and e.op in ("&&", "||"):
            left = self.test(e.left, ind)
            if e.op == "&&":
                self.emit(ind, f"{t} = 0")
                self.emit(ind, f"if {left}:")
            else:
                self.emit(ind, f"{t} = 1")
                self.emit(ind, f"if not ({left}):")
            self.nested(ind + 1, lambda i: self.emit(i, f"{t} = 1 if {self.test(e.right, i)} else 0"),
                        (t,))
        elif isinstance(e, ir.RBin) and e.op == "/":
            right = self.value(e.right, ind)  # the divisor runs first
            self.emit(ind, f"if {right} == 0: {self.exit('1')}")
            self.emit(ind, f"{t} = {self.value(e.left, ind)} // {right}")
        elif isinstance(e, ir.RBin) and e.op in _ARITH:
            left = self.value(e.left, ind)
            right = self.value(e.right, ind)
            self.emit(ind, f"{t} = {left} {_ARITH[e.op]} {right}")
            # a difference below 0, or a sum or product past the domain, reverts
            self.emit(ind, f"if {t} {'< 0' if e.op == '-' else '>= L'}: {self.exit('1')}")
        elif isinstance(e, ir.RNot) or isinstance(e, ir.RBin) and e.op in _CMP:
            self.emit(ind, f"{t} = 1 if {self.test(e, ind)} else 0")
        else:
            raise TypeError(f"cannot compile {e!r}")
        return t


class _CompiledBundle(NamedTuple):
    guards: tuple[int, ...]  # the senders the implicit guards turn away
    functions: dict  # {(contract, name): generated function}


def _generate(bundle: ContractBundle) -> tuple[_CompiledBundle, _CompiledBundle]:
    """The plain and the logging binding of every IR function's one code
    object, which is named like ``<msolv Auction.bid>`` for profiles and
    tracebacks; the logging one tags the fixed addresses and the guards."""
    names = {key: f"f{i}" for i, key in enumerate(bundle.all_functions)}
    guards = (ZERO_ACCOUNT, *bundle.contract_accounts)
    codes, fixed = [], set()
    for (contract, name), fn in bundle.all_functions.items():
        gen = _Gen(fn, names[contract, name], names)
        fixed |= gen.fixed
        where = f"<msolv {bundle.unit.contracts[contract].name}.{name}>"
        codes.append(compile("\n".join(gen.defs), where, "exec"))
    modes = []
    for tag in (int, lambda a: TaggedAddress(a, (("implicit", a),))):
        ns = {"NeedChoice": NeedChoice, "ResourceExhausted": ResourceExhausted,
              **{f"k{a:d}": tag(a) for a in fixed}}
        for code in codes:
            exec(code, ns)
        modes.append(_CompiledBundle(tuple(map(tag, guards)),
                                     {key: ns[name] for key, name in names.items()}))
    return tuple(modes)


def _compiled(bundle: ContractBundle) -> tuple[_CompiledBundle, _CompiledBundle]:
    cbs = getattr(bundle, "_compiled_cache", None)
    if cbs is None:  # kept in the read-only bundle's __dict__, as cached_property does
        cbs = bundle.__dict__["_compiled_cache"] = _generate(bundle)
    return cbs


_SLOTOF_CACHE: dict[tuple[int, ...], dict[int, int]] = {}


def _slot_of(ids: tuple[int, ...]) -> dict[int, int]:
    m = _SLOTOF_CACHE.get(ids)
    if m is None:
        m = {a: i for i, a in enumerate(ids)}
        _SLOTOF_CACHE[ids] = m
    return m


def _settle(cb: _CompiledBundle, control: ControlState, slot_of: dict[int, int],
            action: Action) -> str | None:
    """The implicit guards, decided from the sender, the transaction name,
    ``ctor_done`` and which ids are present, before any frame exists.
    Returns the outcome they settle the transaction with, "bottom" or
    "revert", or None when its body must run.

    In order: an undeclared transaction is an error; an unrepresented
    sender faults; then for each guard account (the zero account, then the
    contract accounts) an unrepresented account faults and one equal to the
    sender reverts; last, the constructor runs once and only once, and
    nothing else runs before it.
    """
    if (0, action.tx) not in cb.functions:
        raise UnknownFunction(action.tx)
    sender = action.clients[0]
    if sender not in slot_of:
        return "bottom"
    for acct in cb.guards:
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
                     touched=None) -> tuple[str, ControlState | None, dict[int, dict[int, int]]]:
    """Run the body of a transaction that :func:`_settle` let through, from
    ``control`` over ``base``, each slot's map vector or None. Returns ``(outcome,
    control_after, writes)`` as :class:`Leaf` has them: the writes of an
    "ok" run, none otherwise.

    A read of a slot whose vector is None raises NeedChoice. When
    ``touched`` is a pair of sets, the roles are tagged with their indices
    and the indices of the roles and data the run reads are added to it.
    """
    roles, data, writes = list(control.roles), list(control.data), {}
    if touched is not None:
        roles = _Touched((TaggedAddress(v, (("transient", i),)) for i, v in enumerate(roles)),
                         touched[0])
        data = _Touched(data, touched[1])
    try:
        code = cb.functions[0, action.tx](roles, data, slot_of, writes, base, limit,
                                          [DEFAULT_FUEL], action.clients, action.args)
    except RecursionError:  # a call chain deeper than Python's stack
        raise ResourceExhausted("call depth exhausted") from None
    if code == 1:
        return "revert", control, {}
    if code == 2:
        return "bottom", None, {}
    # Only a first constructor run or a run after construction gets here.
    return "ok", ControlState(tuple(map(int, roles)), tuple(data), 1), writes


# The users tuple step split last, its slot map and its map vectors. It
# holds the tuple itself, so no other tuple can take the identity it is
# keyed by while it is here.
_last_split: tuple = (None, None, None)


def step(bundle: ContractBundle, state: BundleState, action: Action,
         domain: DataDomain) -> BundleState:
    """Deterministic transition function over full bundle states.

    The split of ``state.users`` into a slot map and map vectors is kept for
    the last users tuple, by identity: a caller that steps one state through
    every action, as ``global_oracle`` does, splits it once."""
    global _last_split
    control = state.control
    if control is BOTTOM:
        raise ValueError("cannot step from the error state")
    cb = _compiled(bundle)[0]
    users = state.users
    last, slot_of, vectors = _last_split
    if users is not last:
        ids, vectors = zip(*users)
        slot_of = _slot_of(ids)
        _last_split = (users, slot_of, vectors)
    outcome = _settle(cb, control, slot_of, action)
    if outcome is None:
        outcome, post, writes = _run_transaction(cb, control, slot_of, vectors, action,
                                                 domain.limit)
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
    "revert", ``BOTTOM`` for "bottom") and ``writes`` the user cells an "ok" path
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
            domains, action: Action, domain: DataDomain, touched=None) -> list[Leaf]:
    """All execution paths of ``action`` when each user slot's map vector
    ranges over ``domains[slot]``, a sequence of tuples in ascending order.
    Deterministic order: depth-first, forked values in the given order.

    With ``touched``, a pair of sets, each leaf's ``uses`` is logged, and
    ``touched`` receives the role and data indices that any run read, a run
    stopped by a fork included. The leaves are then a function of
    ``ctor_done`` and those fields' values: a control that agrees with
    ``control`` on them gives the same leaves, apart from ``control_after``,
    where a field the path did not write keeps each control's own value.
    """
    logged = touched is not None
    cb = _compiled(bundle)[logged]
    slot_of = _slot_of(ids)
    if logged:
        slot_of = _LoggedSlots(slot_of)
        slot_of.uses = guard_uses = {}
        action = action._replace(clients=tuple(
            TaggedAddress(c, (("explicit", i),)) for i, c in enumerate(action.clients)))
    settled = _settle(cb, control, slot_of, action)
    if settled is not None:
        return [Leaf({}, settled, control if settled == "revert" else None, {},
                     guard_uses if logged else {})]
    leaves: list[Leaf] = []

    def run(assignment: dict[int, tuple[int, ...]], base: list):
        if logged:  # each run logs its uses after the guards'
            slot_of.uses = {a: set(origins) for a, origins in guard_uses.items()}
        try:
            outcome, post, writes = _run_transaction(cb, control, slot_of, base,
                                                     action, domain.limit, touched)
        except NeedChoice as nc:
            # One copy serves every value of nc.slot: a run only reads its
            # base, and a deeper fork copies it again.
            fork = list(base)
            for v in domains[nc.slot]:
                fork[nc.slot] = v
                run({**assignment, nc.slot: v}, fork)
            return
        leaves.append(Leaf(assignment, outcome, post, writes, slot_of.uses if logged else {}))

    run({}, [None] * len(ids))
    return leaves
