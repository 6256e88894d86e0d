"""Predicate language for safety properties and interference invariants.

Predicates are address-oblivious by construction: atoms reference control
data and per-user mapping values only, never ids. Two user tuples with equal
map vectors therefore always evaluate alike, whatever their addresses.

Spec files are S-expressions::

    (invariant (lit 0 (= (map 0 0) 0)) (else (>= (map 0 0) 0)))
    (property (k 1) (guard-lit 0 slot 0) (xi (= (map 0 0) 0)))

``(map S J)`` reads mapping J of the user bound to slot S; ``(data J)``
reads control datum J. Data/map/role positions take layout names or
indices, and both are always bound against the contract's layout. Arithmetic
wraps modulo the data domain; division by zero evaluates to 0.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from typing import Union

from .errors import SpecBindingError, SpecSyntaxError, within
from .record import Record
from .semantics import BundleState, ControlState, DataDomain, UserRecord
from .validator import VariableLayout

# ---------------------------------------------------------------- s-expressions

Sexpr = Union[int, str, list]


_COMMENT = re.compile(r";[^\n]*")
_TOKEN = re.compile(r"[()]|[^\s();]+")


def _read_sexprs(text: str) -> list[Sexpr]:
    out: list[Sexpr] = []
    stack: list[list] = []
    for t in _TOKEN.findall(_COMMENT.sub("", text)):
        if t == "(":
            stack.append([])
        elif t == ")":
            if not stack:
                raise SpecSyntaxError("unbalanced ')'")
            done = stack.pop()
            (stack[-1] if stack else out).append(done)
        else:
            (stack[-1] if stack else out).append(_atom(t))
    if stack:
        raise SpecSyntaxError("unbalanced '('")
    return out


_NUMERAL = re.compile(r"-?[0-9]+")


def _atom(t: str) -> Sexpr:
    """An integer for an ASCII numeral, else the symbol itself."""
    if not _NUMERAL.fullmatch(t):
        return t
    try:
        return int(t)
    except ValueError:  # over the interpreter's digit limit
        raise SpecSyntaxError(f"numeral of {len(t.lstrip('-'))} digits is too long") from None


def _format_sexpr(s: Sexpr) -> str:
    if isinstance(s, list):
        return "(" + " ".join(_format_sexpr(x) for x in s) + ")"
    return str(s)


def _quote(s: Sexpr) -> str:
    """A spec item for an error message: a list in the spec's own syntax,
    an atom as its repr."""
    return _format_sexpr(s) if isinstance(s, list) else repr(s)


# ---------------------------------------------------------------- predicates

_ARITH = {  # operand values, domain size -> value
    "+": lambda vs, L: sum(vs) % L,
    "-": lambda vs, L: (vs[0] - sum(vs[1:])) % L,
    "*": lambda vs, L: math.prod(vs) % L,
    "/": lambda vs, L: vs[0] // vs[1] % L if vs[1] else 0,
}
_CMP = {"=": operator.eq, "!=": operator.ne, "<": operator.lt, ">": operator.gt,
        "<=": operator.le, ">=": operator.ge}


class ObliviousPredicate(Record):
    """A compiled boolean expression over k user slots and the control state."""

    source: str
    slots: int
    _fn: object

    def evaluate(self, control: ControlState, users: tuple[UserRecord, ...],
                 domain: DataDomain) -> bool:
        maps = tuple(u.map_vals for u in users)
        return self._fn(control.data, maps, domain.limit)


def _bind(names: tuple[str, ...], token, what: str) -> int:
    """The index of a layout position given by index or by name."""
    if isinstance(token, int):
        if not 0 <= token < len(names):
            raise SpecBindingError(f"{what} index {token} out of range")
        return token
    if token in names:
        return names.index(token)
    raise SpecBindingError(f"unknown {what} name {_quote(token)}")


class _PredCompiler:
    def __init__(self, layout: VariableLayout):
        self.layout = layout
        self.max_slot = -1

    def compile(self, s: Sexpr):
        """Returns (type, fn) with type in {'num', 'bool'}."""
        if isinstance(s, int):
            v = s
            return "num", lambda d, m, L: v
        if s == "true":
            return "bool", lambda d, m, L: True
        if s == "false":
            return "bool", lambda d, m, L: False
        if not isinstance(s, list) or not s:
            raise SpecSyntaxError(f"bad expression {_format_sexpr(s)}")
        head = s[0]
        if isinstance(head, list):  # unhashable, so not for the tables below
            raise SpecSyntaxError(f"bad operator {_format_sexpr(head)}")
        if head == "data":
            if len(s) != 2:
                raise SpecSyntaxError("(data INDEX)")
            idx = _bind(self.layout.data, s[1], "data")
            return "num", lambda d, m, L: d[idx]
        if head == "map":
            if len(s) != 3 or not isinstance(s[1], int):
                raise SpecSyntaxError("(map SLOT INDEX)")
            slot = s[1]
            if slot < 0:
                raise SpecSyntaxError("map slot must be non-negative")
            self.max_slot = max(self.max_slot, slot)
            idx = _bind(self.layout.maps, s[2], "map")
            return "num", lambda d, m, L: m[slot][idx]
        if head in _ARITH:
            if len(s) < 3:
                raise SpecSyntaxError(f"({head} ...) needs at least two operands")
            parts = [self._num(x) for x in s[1:]]
            if head == "/" and len(parts) != 2:
                raise SpecSyntaxError("(/ A B) is binary")
            arith = _ARITH[head]
            return "num", lambda d, m, L: arith([p(d, m, L) for p in parts], L)
        if head in _CMP:
            if len(s) != 3:
                raise SpecSyntaxError(f"({head} A B) is binary")
            cmp, a, b = _CMP[head], self._num(s[1]), self._num(s[2])
            return "bool", lambda d, m, L: cmp(a(d, m, L), b(d, m, L))
        if head == "and" or head == "or":
            parts = [self._bool(x) for x in s[1:]]
            if not parts:
                raise SpecSyntaxError(f"({head}) needs operands")
            fold = all if head == "and" else any
            return "bool", lambda d, m, L: fold(p(d, m, L) for p in parts)
        if head == "not":
            if len(s) != 2:
                raise SpecSyntaxError("(not A) is unary")
            a = self._bool(s[1])
            return "bool", lambda d, m, L: not a(d, m, L)
        if head == "=>":
            if len(s) != 3:
                raise SpecSyntaxError("(=> A B) is binary")
            a, b = self._bool(s[1]), self._bool(s[2])
            return "bool", lambda d, m, L: (not a(d, m, L)) or b(d, m, L)
        raise SpecSyntaxError(f"unknown operator {_quote(head)}")

    def _num(self, s: Sexpr):
        typ, fn = self.compile(s)
        if typ != "num":
            raise SpecSyntaxError(f"expected a numeric expression: {_format_sexpr(s)}")
        return fn

    def _bool(self, s: Sexpr):
        typ, fn = self.compile(s)
        if typ != "bool":
            raise SpecSyntaxError(f"expected a boolean expression: {_format_sexpr(s)}")
        return fn


def compile_predicate(s: Sexpr, slots: int, layout: VariableLayout) -> ObliviousPredicate:
    c = _PredCompiler(layout)
    typ, fn = c.compile(s)
    if typ != "bool":
        raise SpecSyntaxError(f"predicate must be boolean: {_format_sexpr(s)}")
    if c.max_slot >= slots:
        raise SpecBindingError(
            f"predicate uses slot {c.max_slot} but only {slots} user slot(s) are bound")
    return ObliviousPredicate(_format_sexpr(s), slots, fn)


def parse_predicate(text: str, layout: VariableLayout, slots: int = 1) -> ObliviousPredicate:
    """Convenience: compile a single predicate expression from text."""
    forms = _read_sexprs(text)
    if len(forms) != 1:
        raise SpecSyntaxError("expected exactly one expression")
    return compile_predicate(forms[0], slots, layout)


# ---------------------------------------------------------------- objects

class GuardedProperty(Record):
    """Guarded k-universal safety property: guards bind user slots to
    literal addresses or role holders; the oblivious core must hold whenever
    every guard matches."""

    k: int
    lits: frozenset[tuple[int, int]]   # (address, slot)
    roles: frozenset[tuple[int, int]]  # (role index, slot)
    xi: ObliviousPredicate
    name: str = "property"


class SplitInvariant(Record):
    """Split interference invariant: one 1-user predicate per literal or
    role guard, plus an else predicate for unguarded users."""

    lits: tuple[tuple[int, ObliviousPredicate], ...]
    roles: tuple[tuple[int, ObliviousPredicate], ...]
    else_pred: ObliviousPredicate

    def binding(self, control: ControlState, user_id: int) -> tuple[ObliviousPredicate, ...]:
        """The predicates a user must satisfy at a control: those of the
        literal guards on its id, then of the role guards it holds there, or
        else the else predicate alone. No predicate reads the id itself."""
        return (tuple(p for a, p in self.lits if a == user_id)
                + tuple(p for r, p in self.roles if control.roles[r] == user_id)
                or (self.else_pred,))


def trivial_invariant() -> SplitInvariant:
    return SplitInvariant((), (), parse_predicate("true", VariableLayout((), (), ())))


class SpecFile(Record):
    properties: tuple[GuardedProperty, ...]
    invariant: SplitInvariant

    @property
    def warnings(self) -> list[str]:
        """One line per property slot with two or more guards: the property
        is vacuous there unless they coincide."""
        out = []
        for p in self.properties:
            slots = [s for _, s in (*p.lits, *p.roles)]
            out += [f"{p.name}: slot {s} carries {slots.count(s)} guards; the "
                    "property is vacuous unless they coincide"
                    for s in sorted(set(slots)) if slots.count(s) > 1]
        return out


def parse_spec(text: str, layout: VariableLayout) -> SpecFile:
    """Parse a spec file holding at most one invariant and any number of
    properties. A missing invariant defaults to the unconstrained one."""
    props: list[GuardedProperty] = []
    invariant: SplitInvariant | None = None
    for form in _read_sexprs(text):
        if not isinstance(form, list) or not form:
            raise SpecSyntaxError("expected (property ...) or (invariant ...)")
        if form[0] == "property":
            props.append(_parse_property(form, layout, f"property-{len(props) + 1}"))
        elif form[0] == "invariant":
            if invariant is not None:
                raise SpecSyntaxError("a spec file may hold at most one invariant")
            invariant = _parse_invariant(form, layout)
        else:
            raise SpecSyntaxError(f"unknown top-level form {_quote(form[0])}")
    return SpecFile(tuple(props), invariant or trivial_invariant())


def _parse_property(form: list, layout: VariableLayout, name: str) -> GuardedProperty:
    rest = form[1:]
    if not rest or not (isinstance(rest[0], list) and rest[0][:1] == ["k"]):
        raise SpecSyntaxError("property must start with (k INT)")
    kform = rest.pop(0)
    if len(kform) != 2 or not isinstance(kform[1], int) or kform[1] < 0:
        raise SpecSyntaxError("(k INT) with INT >= 0")
    k = kform[1]
    lits: set[tuple[int, int]] = set()
    roles: set[tuple[int, int]] = set()
    xi = None
    for item in rest:
        if not isinstance(item, list) or not item:
            raise SpecSyntaxError(f"bad property item {_format_sexpr(item)}")
        if item[0] == "guard-lit" or item[0] == "guard-role":
            if len(item) != 4 or item[2] != "slot" or not isinstance(item[3], int):
                raise SpecSyntaxError(f"({item[0]} X slot INT)")
            slot = item[3]
            if k == 0 or not 0 <= slot < k:
                raise SpecBindingError(f"guard slot {slot} out of range for k={k}")
            if item[0] == "guard-lit":
                if not isinstance(item[1], int) or item[1] < 0:
                    raise SpecSyntaxError("literal guards take a non-negative address")
                lits.add((item[1], slot))
            else:
                roles.add((_bind(layout.roles, item[1], "role"), slot))
        elif item[0] == "xi":
            if len(item) != 2:
                raise SpecSyntaxError("(xi EXPR)")
            if xi is not None:
                raise SpecSyntaxError("property has two (xi ...) forms")
            xi = compile_predicate(item[1], k, layout)
        else:
            raise SpecSyntaxError(f"unknown property item {_quote(item[0])}")
    if xi is None:
        raise SpecSyntaxError("property needs an (xi EXPR)")
    return GuardedProperty(k, frozenset(lits), frozenset(roles), xi, name)


def _parse_invariant(form: list, layout: VariableLayout) -> SplitInvariant:
    lits: list[tuple[int, ObliviousPredicate]] = []
    roles: list[tuple[int, ObliviousPredicate]] = []
    else_pred = None
    for item in form[1:]:
        if not isinstance(item, list) or not item:
            raise SpecSyntaxError(f"bad invariant item {_format_sexpr(item)}")
        if item[0] == "lit":
            if len(item) != 3 or not isinstance(item[1], int) or item[1] < 0:
                raise SpecSyntaxError("(lit ADDRESS EXPR)")
            lits.append((item[1], compile_predicate(item[2], 1, layout)))
        elif item[0] == "role":
            if len(item) != 3:
                raise SpecSyntaxError("(role INDEX EXPR)")
            roles.append((_bind(layout.roles, item[1], "role"),
                          compile_predicate(item[2], 1, layout)))
        elif item[0] == "else":
            if len(item) != 2:
                raise SpecSyntaxError("(else EXPR)")
            if else_pred is not None:
                raise SpecSyntaxError("invariant has two (else ...) forms")
            else_pred = compile_predicate(item[1], 1, layout)
        else:
            raise SpecSyntaxError(f"unknown invariant item {_quote(item[0])}")
    if else_pred is None:
        raise SpecSyntaxError("invariant needs an (else EXPR)")
    return SplitInvariant(tuple(lits), tuple(roles), else_pred)


# ---------------------------------------------------------------- evaluation

def eval_guarded(phi: GuardedProperty, control: ControlState,
                 users: tuple[UserRecord, ...], domain: DataDomain) -> bool:
    """The guarded implication: if every guard binds, the core must hold."""
    if len(users) != phi.k:
        raise ValueError(f"property is {phi.k}-universal, got {len(users)} users")
    for a, slot in phi.lits:
        if users[slot].id != a:
            return True
    for r, slot in phi.roles:
        if control.roles[r] != users[slot].id:
            return True
    return phi.xi.evaluate(control, users, domain)


def check_universal(phi: GuardedProperty, state: BundleState,
                    domain: DataDomain, *, deadline: float = math.inf):
    """True iff the property holds on every ordered tuple of distinct user
    indices; otherwise the lexicographically first violating tuple. There
    are n!/(n-k)! tuples, so BudgetExceeded ends the enumeration once
    ``time.monotonic()`` passes ``deadline``."""
    if state.is_bottom:
        raise ValueError("cannot evaluate properties on the error state")
    users = state.users
    for combo in within(deadline, itertools.permutations(range(len(users)), phi.k)):
        if not eval_guarded(phi, state.control, tuple(users[i] for i in combo), domain):
            return combo
    return True


def eval_split(theta: SplitInvariant, control: ControlState, user: UserRecord,
               domain: DataDomain) -> bool:
    """Per-user split invariant: every predicate binding the user holds."""
    users = (user,)
    return all(p.evaluate(control, users, domain) for p in theta.binding(control, user.id))
