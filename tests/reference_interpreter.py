"""A tree-walking reference for the transaction interpreter.

It walks the IR node by node, with Python exceptions for revert, fault and
``return``, and keeps each call's clients, arguments and locals in a frame
of its own. It follows the rules the ``semantics`` module docstring states:
operands run left to right, except that ``/`` runs its divisor first;
``&&`` and ``||`` short-circuit; an address comparison uses its left
address before its right operand runs; a map write uses its key before its
value runs; one loop fuel serves a whole transaction run. A logged use
carries the provenance of the value's occurrence: the client slot, the role
index, or the literal. The differential tests compare ``semantics.step``
and ``semantics.explore`` with it, leaf for leaf.
"""

from __future__ import annotations

from msolv import ir
from msolv.errors import ResourceExhausted, UnknownFunction
from msolv.semantics import (BOTTOM, DEFAULT_FUEL, BundleState, ControlState, Leaf,
                             NeedChoice, UserRecord, apply_writes)
from msolv.validator import ZERO_ACCOUNT


class Revert(Exception):
    pass


class Fault(Exception):
    pass


class Return(Exception):
    pass


class Tagged(int):
    def __new__(cls, value: int, origins: tuple):
        self = super().__new__(cls, value)
        self.origins = origins
        return self


class _Run:
    def __init__(self, bundle, roles, data, slot_of, base, limit, uses):
        self.functions = bundle.all_functions
        self.roles, self.data, self.slot_of, self.base = roles, data, slot_of, base
        self.limit, self.uses = limit, uses
        self.writes: dict[int, dict[int, int]] = {}
        self.fuel = DEFAULT_FUEL

    def use(self, a) -> int:
        if self.uses is not None:
            self.uses.setdefault(int(a), set()).update(getattr(a, "origins", ()))
        if a not in self.slot_of:
            raise Fault
        return self.slot_of[a]

    def call(self, key, clients: tuple, args: tuple) -> None:
        fn = self.functions[key]
        frame = (clients, args, [0] * fn.n_locals)
        try:
            self.block(fn.body, frame)
        except Return:
            pass

    def block(self, stmts, frame) -> None:
        for s in stmts:
            self.stmt(s, frame)

    def stmt(self, s, frame) -> None:
        if isinstance(s, ir.SRole):
            self.roles[s.index] = self.expr(s.value, frame)
        elif isinstance(s, ir.SData):
            self.data[s.index] = self.expr(s.value, frame)
        elif isinstance(s, ir.SLocal):
            frame[2][s.slot] = self.expr(s.value, frame)
        elif isinstance(s, ir.SMapWrite):
            slot = self.use(self.expr(s.key, frame))
            self.writes.setdefault(slot, {})[s.map_index] = self.expr(s.value, frame)
        elif isinstance(s, ir.SRequire):
            if self.expr(s.cond, frame) == 0:
                raise Revert
        elif isinstance(s, ir.SAssert):
            if self.expr(s.cond, frame) == 0:
                raise Fault
        elif isinstance(s, ir.SReturn):
            raise Return
        elif isinstance(s, ir.SIf):
            if self.expr(s.cond, frame) != 0:
                self.block(s.body, frame)
        elif isinstance(s, ir.SWhile):
            while self.expr(s.cond, frame) != 0:
                self.fuel -= 1
                if self.fuel <= 0:
                    raise ResourceExhausted("loop fuel exhausted")
                self.block(s.body, frame)
        elif isinstance(s, ir.SCall):
            clients = tuple(self.expr(c, frame) for c in s.client_exprs)
            args = tuple(self.expr(a, frame) for a in s.arg_exprs)
            self.call(s.callee, clients, args)
        else:
            raise TypeError(s)

    def expr(self, e, frame) -> int:
        clients, args, locs = frame
        if isinstance(e, ir.RNum):
            return e.value
        if isinstance(e, ir.RAddrLit):
            a = Tagged(e.value, (("implicit", e.value),))
            self.use(a)
            return a
        if isinstance(e, ir.RRole):
            return self.roles[e.index]
        if isinstance(e, ir.RData):
            return self.data[e.index]
        if isinstance(e, ir.RClient):
            return clients[e.slot]
        if isinstance(e, ir.RArg):
            return args[e.index]
        if isinstance(e, ir.RLocal):
            return locs[e.slot]
        if isinstance(e, ir.RMapRead):
            slot = self.use(self.expr(e.key, frame))
            cells = self.writes.get(slot, {})
            if e.map_index in cells:
                return cells[e.map_index]
            if slot not in self.base:
                raise NeedChoice(slot)
            return self.base[slot][e.map_index]
        if isinstance(e, ir.RNot):
            return int(self.expr(e.operand, frame) == 0)
        op = e.op
        if op == "&&":
            return int(self.expr(e.left, frame) != 0 and self.expr(e.right, frame) != 0)
        if op == "||":
            return int(self.expr(e.left, frame) != 0 or self.expr(e.right, frame) != 0)
        if op == "/":
            right = self.expr(e.right, frame)
            if right == 0:
                raise Revert
            return self.expr(e.left, frame) // right
        left = self.expr(e.left, frame)
        if e.address_compare:
            self.use(left)
        right = self.expr(e.right, frame)
        if e.address_compare:
            self.use(right)
        if op in ("==", "!=", "<", ">"):
            return int({"==": left == right, "!=": left != right,
                        "<": left < right, ">": left > right}[op])
        value = {"+": left + right, "*": left * right, "-": left - right}[op]
        if value < 0 or (op != "-" and value >= self.limit):
            raise Revert
        return value


def settle(bundle, control: ControlState, slot_of: dict, action, uses) -> str | None:
    """The implicit guards: "bottom", "revert", or None when the body runs."""
    if (0, action.tx) not in bundle.all_functions:
        raise UnknownFunction(action.tx)
    sender = action.clients[0]
    if uses is not None:
        uses[sender] = {("explicit", 0)}
    if sender not in slot_of:
        return "bottom"
    for acct in (ZERO_ACCOUNT, *bundle.contract_accounts):
        if uses is not None:
            uses.setdefault(acct, set()).add(("implicit", acct))
        if acct not in slot_of:
            return "bottom"
        if sender == acct:
            return "revert"
    if action.tx == "constructor":
        return "revert" if control.ctor_done else None
    return None if control.ctor_done else "revert"


def run_body(bundle, control: ControlState, slot_of: dict, base: dict, action, limit: int,
             uses) -> tuple:
    """``(outcome, control_after, writes)`` of a body the guards let through."""
    roles, clients = list(control.roles), action.clients
    if uses is not None:
        roles = [Tagged(v, (("transient", i),)) for i, v in enumerate(roles)]
        clients = tuple(Tagged(c, (("explicit", i),)) for i, c in enumerate(clients))
    run = _Run(bundle, roles, list(control.data), slot_of, base, limit, uses)
    try:
        run.call((0, action.tx), clients, action.args)
    except Revert:
        return "revert", control, {}
    except Fault:
        return "bottom", None, {}
    return "ok", ControlState(tuple(map(int, roles)), tuple(run.data), 1), run.writes


def step(bundle, state: BundleState, action, limit: int) -> BundleState:
    control, users = state.control, state.users
    slot_of = {u.id: i for i, u in enumerate(users)}
    outcome = settle(bundle, control, slot_of, action, None)
    if outcome is None:
        outcome, post, writes = run_body(bundle, control, slot_of,
                                         {i: u.map_vals for i, u in enumerate(users)},
                                         action, limit, None)
        if outcome == "ok":
            return BundleState(post, tuple(
                UserRecord(u.id, apply_writes(u.map_vals, writes.get(i)))
                for i, u in enumerate(users)))
    if outcome == "revert":
        return state
    return BundleState(BOTTOM, users)


def explore(bundle, control: ControlState, ids: tuple, domains, action, limit: int,
            log_uses: bool = False) -> list[Leaf]:
    """Every path, depth-first, forking a slot over its domain at its first read."""
    slot_of = {a: i for i, a in enumerate(ids)}
    guard_uses = {} if log_uses else None
    settled = settle(bundle, control, slot_of, action, guard_uses)
    if settled is not None:
        return [Leaf({}, settled, control if settled == "revert" else None, {},
                     guard_uses or {})]
    leaves = []

    def run(assignment):
        uses = None if guard_uses is None else {a: set(o) for a, o in guard_uses.items()}
        try:
            outcome, post, writes = run_body(bundle, control, slot_of, assignment, action,
                                             limit, uses)
        except NeedChoice as nc:
            for v in domains[nc.slot]:
                run({**assignment, nc.slot: v})
            return
        leaves.append(Leaf(assignment, outcome, post, writes, uses or {}))

    run({})
    return leaves
