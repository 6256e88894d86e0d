"""Participation analysis: taint summary, derived topology graph, and the
brute-force semantic participation oracle used to test the over-approximation.

The taint side is purely syntactic (per-function, flow- and path-insensitive
over the lowered IR). The semantic side enumerates witness states and
single-user variants and compares transition outcomes; it shares the
interpreter with the semantics module but no code with the taint walk. Both
sides label participation alike: "explicit" (a client slot), "transient" (a
role) and "implicit" (a literal address).
"""

from __future__ import annotations

import itertools
import operator

from . import ast_nodes as A
from . import ir
from .errors import BudgetExceeded
from .record import Record
from .semantics import (Action, BundleState, ControlState, DataDomain, Leaf,
                        UserRecord, apply_writes, explore, step)
from .validator import ContractBundle, ZERO_ACCOUNT

SC = "sc"
STAR = "*"


class TaintSummary(Record):
    """Which client slots, role indices, and literal addresses can reach a
    sink (an address comparison or a mapping access key) in any transaction."""

    args: frozenset[int]
    roles: frozenset[int]
    lits: frozenset[int]


class PtGraph(Record):
    """The participation topology graph, held as its three label classes:
    client slots (explicit), role indices (transient) and literal addresses
    (implicit).

    Drawn as a graph, the vertices are the literal addresses plus the
    contract vertex ``sc`` and the fold-all vertex ``*``; every edge leaves
    ``sc`` and carries ("explicit", i) and ("transient", i) for every class,
    and the edge to a literal a also carries ("implicit", a).
    """

    explicit_indices: frozenset[int]
    transient_indices: frozenset[int]
    implicit_addresses: frozenset[int]

    @property
    def vertices(self) -> frozenset:
        return self.implicit_addresses | {SC, STAR}

    @property
    def edges(self) -> frozenset[tuple]:
        return frozenset((SC, v) for v in self.vertices if v != SC)

    @property
    def labels(self) -> frozenset[tuple]:
        """(edge, label) pairs."""
        shared = ([("explicit", i) for i in self.explicit_indices]
                  + [("transient", i) for i in self.transient_indices])
        return frozenset((e, l) for e in self.edges for l in shared) | {
            ((SC, a), ("implicit", a)) for a in self.implicit_addresses}

    def to_json(self) -> dict:
        return {
            "vertices": sorted(self.vertices, key=str),
            "edges": sorted([list(e) for e in self.edges], key=str),
            "labels": sorted(f"{l[0]}@{l[1]} on ({e[0]},{e[1]})"
                             for e, l in self.labels),
        }

    def to_dot(self) -> str:
        lines = ["digraph ptg {"]
        for v in sorted(self.vertices, key=str):
            shape = "box" if v == SC else "circle"
            lines.append(f'  "{v}" [shape={shape}];')
        labels = self.labels
        for e in sorted(self.edges, key=str):
            label = "\\n".join(sorted(f"{k}@{i}" for edge, (k, i) in labels if edge == e))
            lines.append(f'  "{e[0]}" -> "{e[1]}" [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)


# --------------------------------------------------------------------------
# taint analysis
# --------------------------------------------------------------------------

# ("explicit", client slot) | ("transient", role index) | ("implicit", address),
# the provenance tags the interpreter puts on a TaggedAddress
_Origin = tuple[str, int]


class _FnTaint:
    def __init__(self, fn: ir.IRFunction):
        self.fn = fn
        self.local_origins: dict[int, set[_Origin]] = {}
        self.role_writes: dict[int, set[_Origin]] = {}  # within-function flows
        self.sinks: set[_Origin] = set()  # explicit ones name this fn's slots

    def size(self) -> tuple[int, ...]:
        """Grows whenever the fixpoint iteration learns something."""
        return (len(self.sinks), sum(map(len, self.local_origins.values())),
                sum(map(len, self.role_writes.values())))


def _expr_origins(t: _FnTaint, e) -> set[_Origin]:
    """Address origins an expression's value may carry. Numeric expressions
    carry none; MicroSol has no numeric-to-address route."""
    if isinstance(e, ir.RClient):
        return {("explicit", e.slot)}
    if isinstance(e, ir.RRole):
        return {("transient", e.index)} | t.role_writes.get(e.index, set())
    if isinstance(e, ir.RAddrLit):
        return {("implicit", e.value)}
    if isinstance(e, ir.RLocal) and e.is_address:
        return set(t.local_origins.get(e.slot, set()))
    return set()


def _walk_expr(t: _FnTaint, e) -> None:
    if isinstance(e, ir.RBin):
        _walk_expr(t, e.left)
        _walk_expr(t, e.right)
        if e.address_compare:
            t.sinks |= _expr_origins(t, e.left) | _expr_origins(t, e.right)
    elif isinstance(e, ir.RNot):
        _walk_expr(t, e.operand)
    elif isinstance(e, ir.RMapRead):
        _walk_expr(t, e.key)
        t.sinks |= _expr_origins(t, e.key)


def _walk_stmt(t: _FnTaint, s, taints: dict) -> None:
    if isinstance(s, ir.SRole):
        _walk_expr(t, s.value)
        t.role_writes.setdefault(s.index, set()).update(_expr_origins(t, s.value))
    elif isinstance(s, ir.SData):
        _walk_expr(t, s.value)
    elif isinstance(s, ir.SLocal):
        _walk_expr(t, s.value)
        t.local_origins.setdefault(s.slot, set()).update(_expr_origins(t, s.value))
    elif isinstance(s, ir.SMapWrite):
        _walk_expr(t, s.key)
        t.sinks |= _expr_origins(t, s.key)
        _walk_expr(t, s.value)
    elif isinstance(s, (ir.SRequire, ir.SAssert)):
        _walk_expr(t, s.cond)
    elif isinstance(s, (ir.SIf, ir.SWhile)):
        _walk_expr(t, s.cond)
        for b in s.body:
            _walk_stmt(t, b, taints)
    elif isinstance(s, ir.SCall):
        for e in s.client_exprs:
            _walk_expr(t, e)
        for e in s.arg_exprs:
            _walk_expr(t, e)
        # A callee's client slot reaches a sink here through the addresses
        # passed in it; its roles and literals reach one as they are.
        for kind, i in tuple(taints[s.callee].sinks):
            t.sinks |= (_expr_origins(t, s.client_exprs[i]) if kind == "explicit"
                        else {(kind, i)})


def taint_summary(bundle: ContractBundle) -> TaintSummary:
    """Flow-insensitive over-approximation of participating address classes.

    The zero account and every contract account are always included in the
    literal set, and client slot 0 in the argument set: the transaction
    dispatcher compares each sender against those accounts before any body
    runs, whether or not the source mentions them. This also guarantees the
    derived neighbourhoods always contain a representative able to act.
    """
    taints = {key: _FnTaint(fn) for key, fn in bundle.all_functions.items()}
    changed = True
    while changed:
        changed = False
        for t in taints.values():
            before = t.size()
            for s in t.fn.body:
                _walk_stmt(t, s, taints)
            changed = changed or before != t.size()
    sinks = {("explicit", 0), ("implicit", ZERO_ACCOUNT),
             *(("implicit", a) for a in bundle.contract_accounts)}
    for name in bundle.tx_order:
        sinks |= taints[(0, name)].sinks

    def indices(kind: str) -> frozenset[int]:
        return frozenset(i for k, i in sinks if k == kind)

    return TaintSummary(indices("explicit"), indices("transient"), indices("implicit"))


def build_ptg(summary: TaintSummary) -> PtGraph:
    """The graph of a taint summary: its client slots, role indices and
    literal addresses become the explicit, transient and implicit labels."""
    return PtGraph(summary.args, summary.roles, summary.lits)


# --------------------------------------------------------------------------
# semantic participation (the oracle side of the over-approximation theorem)
# --------------------------------------------------------------------------

class SemanticPT(Record):
    """Participants of one action, classified by how the contract reached
    them: through a client input, a stored role, or a literal address. The
    provenance comes from the interpreter's tagged use log, which is what
    distinguishes, say, a manager compared by role from the same address
    incidentally appearing as an unused argument."""

    explicit: set[tuple[int, int]]   # (client slot, address)
    transient: set[tuple[int, int]]  # (role index, address)
    implicit: set[int]
    participants: set[int]

    def attribute(self, a: int, origins) -> None:
        self.participants.add(a)
        for kind, idx in origins:
            if kind == "explicit":
                self.explicit.add((idx, a))
            elif kind == "transient":
                self.transient.add((idx, a))
            else:
                self.implicit.add(a)


def _fresh_address(bundle: ContractBundle, n: int) -> int:
    lits = [node.value for node in A.walk(bundle.unit) if isinstance(node, A.AddressLit)]
    return max([n - 1, *bundle.contract_accounts, *lits]) + 1


def _controls(bundle: ContractBundle, n: int, domain: DataDomain):
    for roles in itertools.product(range(n), repeat=bundle.n_roles):
        for data in itertools.product(domain.values(), repeat=bundle.n_data):
            for ctor in (0, 1):
                yield ControlState(roles, data, ctor)


def _attribute_leaves(pt: SemanticPT, leaves: list[Leaf], ids: tuple[int, ...]) -> None:
    """Add the participants one control's paths show to ``pt``."""
    for leaf in leaves:
        # influenced-by: a persistent write some base vector can observe
        for slot, cells in leaf.writes.items():
            base = leaf.assignment.get(slot)
            if base is None or apply_writes(base, cells) != base:
                pt.attribute(ids[slot], leaf.uses.get(ids[slot], ()))
        # influence via readdressing: any use of the old address faults
        if leaf.outcome != "bottom":
            for a, origins in leaf.uses.items():
                if a in ids:
                    pt.attribute(a, origins)
    # influence via map variants: two paths part at a slot both read, so a
    # pair stands for two states differing in one user only when their reads
    # differ in that slot alone (a slot one path never read stands for every
    # value of it). Only a pair with one faulting path adds anything: two
    # faults never differ, and the readdressing rule has already attributed
    # every use of two paths that do not fault.
    bottoms = [leaf for leaf in leaves if leaf.outcome == "bottom"]
    ends = [leaf for leaf in leaves if leaf.outcome != "bottom"]
    for x, y in itertools.product(bottoms, ends):
        ax, ay = x.assignment, y.assignment
        differ = [s for s in ax.keys() & ay.keys() if ax[s] != ay[s]]
        if len(differ) == 1:
            a = ids[differ[0]]
            pt.attribute(a, x.uses.get(a, set()) | y.uses.get(a, set()))


def semantic_pt(bundle: ContractBundle, n: int, action: Action,
                domain: DataDomain, budget: int = 2_000_000) -> SemanticPT:
    """Brute-force participation topology of one action in the n-user bundle.

    Covers every control state (reachable or not) and every assignment of
    map vectors, and asks for each user whether some single-user variant of
    the configuration changes the transaction's outcome (influence), or
    whether the transaction permanently changes that user (influenced by).
    Variants cover both map values and readdressing the user to a fresh
    address; a user readdressed away faults the run at the first use of its
    old address, which the interpreter's use log pinpoints exactly.

    The controls are covered by a decision tree over the control flattened
    as ``(ctor_done, *roles, *data)``. A node fixes some positions, and its
    representative sets every other position to its first value. The
    representative is explored unless a control explored before agrees with
    it on ``ctor_done`` and the role and data fields that the earlier one's
    runs read: such a control runs the same paths and attributes nothing
    new, since no rule reads ``control_after``. Every control of the node
    that agrees with the representative on the fields its runs read is
    covered by it; every other one lies under exactly one child, the one for
    the first such field it differs on. ``budget`` caps the paths explored.
    """
    ids = tuple(range(n))
    vectors = tuple(itertools.product(domain.values(), repeat=bundle.n_maps))
    domains = {slot: vectors for slot in range(n)}
    pt = SemanticPT(set(), set(), set(), set())
    work = 0
    n_roles = bundle.n_roles
    # The values of each flat position, the representative's value first.
    values = ((0, 1), *[tuple(range(n))] * n_roles,
              *[tuple(domain.values())] * bundle.n_data)
    # For each set of positions that an explored control's runs read: its
    # getter, and the values there of every control explored with that set.
    explored: dict[tuple, tuple] = {}
    nodes = [{}]  # each node as the positions it fixes, with their values
    while nodes:
        fixed = nodes.pop()
        flat = tuple(fixed.get(p, vals[0]) for p, vals in enumerate(values))
        fields = next((f for f, (get, seen) in explored.items() if get(flat) in seen), None)
        if fields is None:
            touched = (set(), set())
            control = ControlState(flat[1:1 + n_roles], flat[1 + n_roles:], flat[0])
            leaves = explore(bundle, control, ids, domains, action, domain,
                             log_uses=True, touched=touched)
            fields = (0, *sorted(1 + i for i in touched[0]),
                      *sorted(1 + n_roles + i for i in touched[1]))
            get, seen = explored.setdefault(fields, (operator.itemgetter(*fields), set()))
            seen.add(get(flat))
            work += len(leaves)
            if work > budget:
                raise BudgetExceeded(f"semantic_pt budget of {budget} paths exceeded")
            _attribute_leaves(pt, leaves, ids)
        prefix = dict(fixed)
        for p in fields:
            if p not in fixed:
                nodes.extend({**prefix, p: u} for u in values[p][1:])
                prefix[p] = flat[p]
    return pt


def semantic_pt_naive(bundle: ContractBundle, n: int, action: Action,
                      domain: DataDomain) -> SemanticPT:
    """Reference implementation: literal state-pair enumeration through the
    deterministic step function, no path sharing. Influence detection is
    fully independent of :func:`semantic_pt`; classification reuses the
    interpreter's provenance log. Exponentially slower; for tiny instances.
    """
    ids = tuple(range(n))
    fresh = _fresh_address(bundle, n)
    vectors = tuple(itertools.product(domain.values(), repeat=bundle.n_maps))
    pt = SemanticPT(set(), set(), set(), set())

    def users_of(assign: tuple) -> tuple[UserRecord, ...]:
        return tuple(UserRecord(ids[i], assign[i]) for i in range(n))

    def uses_of(state: BundleState) -> dict[int, set]:
        (leaf,) = explore(bundle, state.control, tuple(u.id for u in state.users),
                          [(u.map_vals,) for u in state.users], action, domain,
                          log_uses=True)
        return leaf.uses

    for control in _controls(bundle, n, domain):
        for assign in itertools.product(vectors, repeat=n):
            base_state = BundleState(control, users_of(assign))
            base_post = step(bundle, base_state, action, domain)
            base_uses = uses_of(base_state)

            def attribute(i: int, extra_state=None) -> None:
                origins = set(base_uses.get(ids[i], ()))
                if extra_state is not None:
                    origins.update(uses_of(extra_state).get(ids[i], ()))
                pt.attribute(ids[i], origins)

            for i in range(n):
                if base_post.users[i] != base_state.users[i]:
                    attribute(i)
                variants = [UserRecord(ids[i], v) for v in vectors if v != assign[i]]
                variants.append(UserRecord(fresh, assign[i]))
                for vu in variants:
                    vstate = BundleState(control, base_state.users[:i] + (vu,)
                                         + base_state.users[i + 1:])
                    vpost = step(bundle, vstate, action, domain)
                    if base_post.control != vpost.control or any(
                            base_post.users[j] != vpost.users[j]
                            for j in range(n) if j != i):
                        attribute(i, vstate)
                        break
    return pt


def coverage_violations(ptg: PtGraph, pt: SemanticPT) -> list[str]:
    """Participation classes the graph fails to cover (empty means the
    over-approximation holds for this action)."""
    out = []
    for i, a in sorted(pt.explicit):
        if i not in ptg.explicit_indices:
            out.append(f"explicit@{i} missing (address {a})")
    for i, a in sorted(pt.transient):
        if i not in ptg.transient_indices:
            out.append(f"transient@{i} missing (address {a})")
    for a in sorted(pt.implicit):
        if a not in ptg.implicit_addresses:
            out.append(f"implicit@{a} missing")
    return out
