"""Reachability checkers: the compositionality and safety proof rules over
local bundles, ``check_spec`` that gates the second on the first, and the
exhaustive global oracle they are validated against.

The local engine explores product classes instead of single states: after
interference, every user's map vector ranges over exactly the invariant's
allowed set at the current control state, so a reachable region is
``(control, per-user value sets)``. Transitions fork only on the user cells
a transaction actually reads, which keeps the search small while staying
exact. A class that is neither initial nor frozen is exactly
``(control, allowed(control))``, so it is keyed by its control alone.
Frozen (invariant-violating) successors are reported but never expanded.
Breadth-first levels, each expanded in full and in a fixed order before its
first violation is reported, give minimal and deterministic traces.
"""

from __future__ import annotations

import itertools
import math
import time

from .errors import BudgetExceeded, InputError, within
from .localization import allowed_vectors, rule_neighbourhood
from .properties import (GuardedProperty, SpecFile, SplitInvariant, check_universal,
                         eval_guarded, eval_split)
from .ptg import PtGraph
from .record import Record
from .semantics import (BOTTOM, Action, BundleState, ControlState, DataDomain,
                        Leaf, UserRecord, apply_writes, enumerate_actions, explore,
                        init_state, step)
from .validator import ContractBundle

DEFAULT_BUDGET_STATES = 10_000_000
DEFAULT_BUDGET_SECS = 60.0
DEFAULT_ORACLE_BUDGET_SECS = 300.0


class Stats(Record):
    states: int
    transitions: int
    seconds: float


class Trace(Record):
    """Alternating states and actions; states[0] is initial, states[-1] the
    violation. len(states) == len(actions) + 1."""

    states: tuple[BundleState, ...]
    actions: tuple[Action, ...]

    def __len__(self) -> int:
        return len(self.actions)


class Verdict(Record):
    result: str  # "safe" | "cex_invariant" | "cex_property" | "exhausted"
    stats: Stats
    invariant: tuple[ControlState, ...] = ()
    trace: Trace | None = None
    reason: str = ""

    @property
    def is_safe(self) -> bool:
        return self.result == "safe"


def _control_json(c):
    if isinstance(c, ControlState):
        return {"roles": list(c.roles), "data": list(c.data), "ctor_done": c.ctor_done}
    return "bottom"


def trace_to_json(trace: Trace) -> list[dict]:
    """The initial state, then one ``{action, state}`` entry per step."""
    states = [{"control": _control_json(s.control),
               "users": [{"id": u.id, "maps": list(u.map_vals)} for u in s.users]}
              for s in trace.states]
    return [{"state": states[0]}] + [
        {"action": {"tx": a.tx, "clients": list(a.clients), "args": list(a.args)}, "state": s}
        for a, s in zip(trace.actions, states[1:])]


def verdict_to_json(v: Verdict) -> dict:
    out: dict = {"result": v.result}
    if v.result == "safe":
        out["invariant"] = [_control_json(c) for c in v.invariant]
    if v.trace is not None:
        out["trace"] = trace_to_json(v.trace)
    if v.reason:
        out["reason"] = v.reason
    out["stats"] = {"states": v.stats.states, "transitions": v.stats.transitions,
                    "seconds": v.stats.seconds}
    return out


# --------------------------------------------------------------------------
# the time budget
# --------------------------------------------------------------------------

def _clock(budget_secs: float) -> tuple[float, float]:
    """The start of a search and the deadline its time budget sets."""
    if math.isnan(budget_secs):
        raise InputError("the time budget must be a number of seconds, got nan")
    started = time.monotonic()
    return started, started + budget_secs


# --------------------------------------------------------------------------
# the local-bundle class engine
# --------------------------------------------------------------------------

class _LocalEngine:
    """Breadth-first search over product classes ``(control, domains)``.

    ``domains`` is None for a class that is exactly the invariant's allowed
    sets at its control; only the initial class and frozen classes carry
    explicit per-slot value tuples. ``parents`` maps every recorded class to
    the link ``(pre_key, action_index, leaf)`` that first reached it, and the
    initial class to None. The actions are listed when the search starts
    and the allowed sets as controls are reached, the initial one included,
    all under the time budget.
    """

    def __init__(self, bundle: ContractBundle, theta: SplitInvariant,
                 addresses: tuple[int, ...], domain: DataDomain,
                 budget_states: int, budget_secs: float):
        self.bundle = bundle
        self.theta = theta
        self.ids = tuple(sorted(addresses))
        self.domain = domain
        self.actions: list[Action] = []
        self.budget_states = budget_states
        self._allowed: dict[ControlState, tuple] = {}
        self.transitions = 0
        self.started, self.deadline = _clock(budget_secs)
        self.parents: dict[tuple, tuple | None] = {}

    # -- class plumbing --------------------------------------------------

    def _allowed_at(self, control: ControlState) -> tuple:
        """Per-slot allowed vectors at a control, and the same as frozensets.
        They are computed once per binding: every user the same predicates
        bind shares one tuple and one frozenset."""
        cached = self._allowed.get(control)
        if cached is None:
            by_binding: dict[tuple, tuple] = {}
            pairs = []
            for uid in self.ids:
                binding = self.theta.binding(control, uid)
                if binding not in by_binding:
                    vectors = allowed_vectors(self.theta, control, uid, self.domain,
                                              self.bundle.n_maps, deadline=self.deadline)
                    by_binding[binding] = (vectors, frozenset(vectors))
                pairs.append(by_binding[binding])
            cached = (tuple(v for v, _ in pairs), tuple(s for _, s in pairs))
            self._allowed[control] = cached
        return cached

    def _domains(self, key: tuple) -> tuple:
        control, domains = key
        return self._allowed_at(control)[0] if domains is None else domains

    def _admits(self, control: ControlState, slot: int, vec: tuple) -> bool:
        """The invariant on one user's vector. The allowed sets hold every
        admitted in-domain vector, so only a literal wider than the domain,
        written to a map cell, needs evaluating."""
        return vec in self._allowed_at(control)[1][slot] or (
            max(vec, default=0) >= self.domain.limit and eval_split(
                self.theta, control, UserRecord(self.ids[slot], vec), self.domain))

    # -- expansion ---------------------------------------------------------

    def _record(self, phi: GuardedProperty | None, link: tuple | None, key: tuple,
                frontier: list | None) -> tuple | None:
        """Record a class the first time ``link`` reaches it and queue it on
        ``frontier``, which is None for a frozen class: frozen classes are
        reachable, so the property must hold on them, but they are never
        expanded. Returns the property's violation there as ``_cex``
        arguments, or None. A class past the state budget raises
        BudgetExceeded, so the budget holds inside an expansion too."""
        if key in self.parents:
            return None
        self.parents[key] = link
        if len(self.parents) > self.budget_states:
            raise BudgetExceeded("state budget exceeded")
        if frontier is not None:
            frontier.append(key)
        w = None if phi is None else self._phi_witness(phi, key)
        return None if w is None else ("cex_property", link, key, *w)

    def _expand(self, key: tuple, phi: GuardedProperty | None,
                frontier: list) -> tuple | None:
        """Record every successor of one class, in a fixed order, and return
        its first violation as ``_cex`` arguments, or None. A post-state
        outside the invariant gives a frozen class, or a violation under the
        compositionality rule, with the first vector the invariant rejects
        in each slot that has one; unless every vector of some slot is
        rejected it also gives an interference class. Makes one ``explore``
        call per action."""
        control = key[0]
        domains = self._domains(key)
        first = None
        for ai, action in enumerate(self.actions):
            leaves = explore(self.bundle, control, self.ids, domains, action, self.domain)
            self.transitions += len(leaves)
            for leaf in leaves:
                if leaf.outcome == "revert" and key[1] is None:
                    # A class of allowed sets is its own revert successor,
                    # already recorded; the explicit initial class takes the scan.
                    continue
                link = (key, ai, leaf)
                if leaf.outcome == "bottom":
                    first = first or ("cex_property", link, None, {}, "error state reachable")
                    continue
                post_control = leaf.control_after
                writes, assign = leaf.writes, leaf.assignment
                allowed = self._allowed_at(post_control)[1]
                post_domains = []
                bad: dict[int, tuple] = {}
                all_ok = True
                for slot, dom in enumerate(domains):
                    w = writes.get(slot)
                    if slot in assign:
                        post = (apply_writes(assign[slot], w),)
                    elif w:
                        post = tuple(sorted({apply_writes(v, w) for v in dom}))
                    else:
                        post = dom
                    post_domains.append(post)
                    # The set lookup first: it settles almost every vector.
                    rejected = [v for v in post if v not in allowed[slot]
                                and not self._admits(post_control, slot, v)]
                    if rejected:
                        bad[slot] = rejected[0]
                    all_ok = all_ok and len(rejected) < len(post)
                # Every successor is recorded before the violations combine.
                if bad:
                    frozen = (post_control, tuple(post_domains))
                    vio = (self._record(phi, link, frozen, None) if phi is not None
                           else ("cex_invariant", link, frozen, bad, "invariant not preserved"))
                    first = first or vio
                if all_ok:
                    vio = self._record(phi, link, (post_control, None), frontier)
                    first = first or vio
        return first

    # -- property evaluation over a class ---------------------------------

    def _phi_witness(self, phi: GuardedProperty, key: tuple):
        """None if the property holds everywhere in the class; otherwise a
        (slot values, reason) pair pinning the first violating member. The
        members are k-tuples of users and their vectors, enumerated under
        the time budget."""
        control = key[0]
        domains = self._domains(key)
        members = ((combo, choice)
                   for combo in itertools.permutations(range(len(self.ids)), phi.k)
                   for choice in itertools.product(*(domains[s] for s in combo)))
        for combo, choice in within(self.deadline, members):
            users = tuple(UserRecord(self.ids[s], v) for s, v in zip(combo, choice))
            if not eval_guarded(phi, control, users, self.domain):
                return dict(zip(combo, choice)), f"{phi.name} fails on user slots {list(combo)}"
        return None

    # -- breadth-first search ----------------------------------------------

    def run(self, phi: GuardedProperty | None = None) -> Verdict:
        """The compositionality rule without ``phi``, the safety rule with
        it. Each level is expanded in full before its first violation is
        reported, so ``stats`` do not depend on where in the level it is.
        A state or time budget running out gives an ``exhausted`` verdict."""
        try:
            return self._search(phi)
        except BudgetExceeded as e:
            return Verdict("exhausted", self._stats(), reason=str(e))

    def _search(self, phi: GuardedProperty | None) -> Verdict:
        self.actions = list(within(self.deadline, enumerate_actions(
            self.bundle, self.ids, self.domain)))
        s0 = init_state(self.bundle, self.ids)
        vectors, allowed = self._allowed_at(s0.control)
        init_domains = tuple((u.map_vals,) for u in s0.users)
        init = (s0.control, None if init_domains == vectors else init_domains)
        frontier: list[tuple] = []
        first = self._record(phi, None, init, frontier)
        # The first user the initial state puts outside the invariant, if any.
        bad = next((u.id for u, ok in zip(s0.users, allowed) if u.map_vals not in ok), None)
        if phi is None and bad is not None:
            first = ("cex_invariant", None, init, {},
                     f"initial state violates the invariant for user {bad}")
        while frontier and not first:
            next_frontier: list[tuple] = []
            for key in within(self.deadline, frontier):
                vio = self._expand(key, phi, next_frontier)
                first = first or vio
            frontier = next_frontier
        if first:
            return self._cex(*first)
        invariant = tuple(sorted({k[0] for k in self.parents if k[1] is None} | {s0.control}))
        return Verdict("safe", self._stats(), invariant=invariant)

    def _stats(self) -> Stats:
        return Stats(len(self.parents), self.transitions,
                     round(time.monotonic() - self.started, 3))

    # -- counterexample reconstruction --------------------------------------

    def _cex(self, result: str, link: tuple | None, key: tuple | None,
             values: dict[int, tuple], reason: str) -> Verdict:
        """A concrete trace to a violation. ``link`` is the last step (None
        when the initial class violates), ``key`` the class it reaches (None
        for the error state) and ``values`` the violating users' vectors;
        every other user takes the first vector of its domain."""
        chain: list[tuple] = []
        while link is not None:
            chain.append(link)
            link = self.parents[link[0]]
        chain.reverse()
        final = None if key is None else tuple(
            values.get(s, dom[0]) for s, dom in enumerate(self._domains(key)))
        states = []
        for t, (pre_key, _, leaf) in enumerate(chain):
            # A frozen class is the raw post-state, so only the link into it
            # must hit the final vectors exactly.
            into_frozen = t == len(chain) - 1 and key is not None and key[1] is not None
            pre = self._pre_values(pre_key, leaf, final if into_frozen else None)
            states.append(BundleState(pre_key[0], tuple(map(UserRecord, self.ids, pre))))
        if key is None:
            states.append(BundleState(BOTTOM, states[-1].users))
        else:
            states.append(BundleState(key[0], tuple(map(UserRecord, self.ids, final))))
        trace = Trace(tuple(states), tuple(self.actions[ai] for _, ai, _ in chain))
        return Verdict(result, self._stats(), trace=trace, reason=reason)

    def _pre_values(self, pre_key: tuple, leaf: Leaf, target: tuple | None) -> list:
        """One member of ``pre_key`` that takes ``leaf``. Read slots are the
        leaf's; every other slot takes the first vector of its domain whose
        image under the leaf's writes is ``target[slot]`` (given on a link
        into a frozen class) or else, unless the leaf is an error, one that
        the invariant admits after the step."""
        assign = leaf.assignment
        out = []
        for slot, dom in enumerate(self._domains(pre_key)):
            w = leaf.writes.get(slot)
            if slot in assign:
                vec = assign[slot]
            elif target is not None:
                vec = next(v for v in dom if apply_writes(v, w) == target[slot])
            elif leaf.outcome == "bottom":
                vec = dom[0]
            else:
                vec = next(v for v in dom if self._admits(
                    leaf.control_after, slot, apply_writes(v, w)))
            out.append(vec)
        return out


# --------------------------------------------------------------------------
# public checking operations
# --------------------------------------------------------------------------

def check_compositional(bundle: ContractBundle, ptg: PtGraph, theta: SplitInvariant,
                        domain: DataDomain, *, budget_states: int = DEFAULT_BUDGET_STATES,
                        budget_secs: float = DEFAULT_BUDGET_SECS) -> Verdict:
    """The compositionality proof rule: explore the local bundle over the
    saturating neighbourhood plus one arbitrary user; the invariant is an
    interference invariant iff no reachable state escapes it."""
    _, a_plus = rule_neighbourhood(ptg, theta)
    return _LocalEngine(bundle, theta, a_plus, domain, budget_states, budget_secs).run()


def check_safety(bundle: ContractBundle, ptg: PtGraph, theta: SplitInvariant,
                 phi: GuardedProperty, domain: DataDomain, *,
                 budget_states: int = DEFAULT_BUDGET_STATES,
                 budget_secs: float = DEFAULT_BUDGET_SECS) -> Verdict:
    """The k-universal safety proof rule over the local bundle.

    The neighbourhood is saturated for the union of the invariant's and the
    property's guards, then extended with max(0, k - |exp|) fresh addresses.
    This is the bare rule: its Safe answer lifts to every network size only
    when ``theta`` is an interference invariant, which ``check_spec`` checks
    first.
    """
    _, a_plus = rule_neighbourhood(ptg, theta, phi)
    return _LocalEngine(bundle, theta, a_plus, domain, budget_states, budget_secs).run(phi)


def check_spec(bundle: ContractBundle, ptg: PtGraph, spec: SpecFile, domain: DataDomain,
               *, assume_invariant: bool = False,
               budget_states: int = DEFAULT_BUDGET_STATES,
               budget_secs: float = DEFAULT_BUDGET_SECS) -> dict[str, Verdict]:
    """The gated check ``msolv check`` runs: the compositionality rule on the
    spec's invariant, keyed "compositionality", then, if it holds, the
    safety rule for each property, keyed by its name. ``assume_invariant``
    skips the gate, so a Safe then certifies the local bundle only; with no
    property either, nothing is checked, which is an InputError."""
    if assume_invariant and not spec.properties:
        raise InputError("nothing to check: no property, and the invariant is assumed")
    budgets = {"budget_states": budget_states, "budget_secs": budget_secs}
    results: dict[str, Verdict] = {}
    if not assume_invariant:
        results["compositionality"] = check_compositional(
            bundle, ptg, spec.invariant, domain, **budgets)
    if all(v.is_safe for v in results.values()):
        for prop in spec.properties:
            results[prop.name] = check_safety(
                bundle, ptg, spec.invariant, prop, domain, **budgets)
    return results


def global_oracle(bundle: ContractBundle, n: int, phi: GuardedProperty,
                  domain: DataDomain, *, budget_states: int = DEFAULT_BUDGET_STATES,
                  budget_secs: float = DEFAULT_ORACLE_BUDGET_SECS) -> Verdict:
    """Ground truth at a fixed network size: exhaustive breadth-first search
    of the concrete bundle over addresses 0..n-1, checking the property at
    every reachable state."""
    started, deadline = _clock(budget_secs)
    s0 = init_state(bundle, range(n))
    parents: dict = {s0: None}
    transitions = 0

    def stats() -> Stats:
        return Stats(len(parents), transitions, round(time.monotonic() - started, 3))

    def trace_to(state: BundleState) -> Trace:
        states, acts = [state], []
        while parents[states[-1]] is not None:
            pre, act = parents[states[-1]]
            states.append(pre)
            acts.append(act)
        return Trace(tuple(reversed(states)), tuple(reversed(acts)))

    try:
        actions = list(within(deadline, enumerate_actions(bundle, range(n), domain)))
        w = check_universal(phi, s0, domain, deadline=deadline)
        if w is not True:
            return Verdict("cex_property", stats(), trace=trace_to(s0),
                           reason=f"{phi.name} fails on user slots {list(w)}")
        frontier = [s0]
        while frontier:
            next_frontier = []
            for st in within(deadline, frontier):
                if len(parents) > budget_states:
                    raise BudgetExceeded("state budget exceeded")
                for act in actions:
                    post = step(bundle, st, act, domain)
                    transitions += 1
                    # A revert returns the state itself, which is already in
                    # parents; the identity test spares hashing it.
                    if post is st or post in parents:
                        continue
                    parents[post] = (st, act)
                    if post.is_bottom:
                        return Verdict("cex_property", stats(), trace=trace_to(post),
                                       reason="error state reachable")
                    wit = check_universal(phi, post, domain, deadline=deadline)
                    if wit is not True:
                        return Verdict("cex_property", stats(), trace=trace_to(post),
                                       reason=f"{phi.name} fails on user slots {list(wit)}")
                    next_frontier.append(post)
            frontier = next_frontier
    except BudgetExceeded as e:
        return Verdict("exhausted", stats(), reason=str(e))
    invariant = tuple(sorted({s.control for s in parents if not s.is_bottom}))
    return Verdict("safe", stats(), invariant=invariant)


# --------------------------------------------------------------------------
# trace replay
# --------------------------------------------------------------------------

def replay_trace(bundle: ContractBundle, trace: Trace, domain: DataDomain,
                 theta: SplitInvariant | None = None) -> bool:
    """Re-execute a trace link by link through the transaction semantics.

    With ``theta`` the trace is checked against the local-bundle relation:
    each successor must either equal the raw post-state (frozen case) or be
    an interference variant of a raw post-state that satisfies the invariant
    everywhere. Without ``theta`` successors must equal the deterministic
    global step. Returns True or raises ValueError at the first bad link.
    """
    for t, action in enumerate(trace.actions):
        pre, post = trace.states[t], trace.states[t + 1]
        raw = step(bundle, pre, action, domain)
        if theta is None:
            if raw != post:
                raise ValueError(f"step {t}: successor is not the transition image")
            continue
        if raw.is_bottom or post.is_bottom:
            if raw != post:
                raise ValueError(f"step {t}: error-state mismatch")
            continue
        raw_ok = all(eval_split(theta, raw.control, u, domain) for u in raw.users)
        if not raw_ok:
            if raw != post:
                raise ValueError(
                    f"step {t}: invariant-violating successor must be the raw state")
            continue
        if post.control != raw.control:
            raise ValueError(f"step {t}: interference changed the control state")
        if [u.id for u in raw.users] != [u.id for u in post.users]:
            raise ValueError(f"step {t}: interference changed user ids")
        for u in post.users:
            if not eval_split(theta, post.control, u, domain):
                raise ValueError(
                    f"step {t}: havoc chose a value outside the invariant for {u.id}")
    return True
