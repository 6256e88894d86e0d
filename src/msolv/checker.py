"""Reachability checkers: the compositionality and safety proof rules over
local bundles, and the exhaustive global oracle they are validated against.

The local engine explores product classes instead of single states: after
interference, every user's map vector ranges over exactly the invariant's
allowed set at the current control state, so a reachable region is
``(control, per-user value sets)``. Transitions fork only on the user cells
a transaction actually reads, which keeps the search small while staying
exact. A class that is neither initial nor frozen is exactly
``(control, allowed(control))``, so it is keyed by its control alone.
Frozen (invariant-violating) successors are reported but never expanded.
Breadth-first levels, each merged in a fixed order, guarantee minimal and
deterministic counterexample traces.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .errors import PreconditionUnmet
from .localization import (allowed_vectors, check_guards_in_scope,
                           extend_neighbourhood, saturating_neighbourhood)
from .properties import (GuardedProperty, SplitInvariant, check_universal,
                         eval_guarded, eval_split)
from .ptg import PtGraph
from .semantics import (BOTTOM, Action, BundleState, ControlState, DataDomain,
                        Leaf, UserRecord, enumerate_actions, explore, init_state,
                        step)
from .validator import ContractBundle

DEFAULT_BUDGET_STATES = 10_000_000
DEFAULT_BUDGET_SECS = 60.0


@dataclass(frozen=True)
class Stats:
    states: int
    transitions: int
    seconds: float


@dataclass(frozen=True)
class Trace:
    """Alternating states and actions; states[0] is initial, states[-1] the
    violation. len(states) == len(actions) + 1."""

    states: tuple[BundleState, ...]
    actions: tuple[Action, ...]

    def __len__(self) -> int:
        return len(self.actions)


@dataclass(frozen=True)
class Verdict:
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


def _state_json(s: BundleState) -> dict:
    return {"control": _control_json(s.control),
            "users": [{"id": u.id, "maps": list(u.map_vals)} for u in s.users]}


def _action_json(a: Action) -> dict:
    return {"tx": a.tx, "clients": list(a.clients), "args": list(a.args)}


def verdict_to_json(v: Verdict) -> dict:
    out: dict = {"result": v.result}
    if v.result == "safe":
        out["invariant"] = [_control_json(c) for c in v.invariant]
    if v.trace is not None:
        entries: list[dict] = [{"state": _state_json(v.trace.states[0])}]
        for act, st in zip(v.trace.actions, v.trace.states[1:]):
            entries.append({"action": _action_json(act), "state": _state_json(st)})
        out["trace"] = entries
    if v.reason:
        out["reason"] = v.reason
    out["stats"] = {"states": v.stats.states, "transitions": v.stats.transitions,
                    "seconds": v.stats.seconds}
    return out


# --------------------------------------------------------------------------
# the local-bundle class engine
# --------------------------------------------------------------------------

def _apply_writes(vec: tuple[int, ...], writes: dict[int, int]) -> tuple[int, ...]:
    if not writes:
        return vec
    out = list(vec)
    for c, v in writes.items():
        out[c] = v
    return tuple(out)


@dataclass
class _Violation:
    order: tuple          # deterministic tie-break key within a level
    kind: str             # "theta" | "phi" | "bottom"
    key: tuple | None     # violating class (None when it is a bottom leaf)
    parent: tuple | None  # parent class for leaf-level violations
    action_index: int | None
    leaf: Leaf | None     # the execution path from the parent class
    values: dict | None   # slot -> map vector pinning the violating state
    reason: str = ""


class _LocalEngine:
    """Breadth-first search over product classes ``(control, domains)``.

    ``domains`` is None for a class that is exactly the invariant's allowed
    sets at its control; only the initial class and frozen classes carry
    explicit per-slot value tuples.
    """

    def __init__(self, bundle: ContractBundle, theta: SplitInvariant,
                 addresses: tuple[int, ...], domain: DataDomain,
                 budget_states: int, budget_secs: float):
        self.bundle = bundle
        self.theta = theta
        self.ids = tuple(sorted(addresses))
        self.domain = domain
        self.n_maps = bundle.n_maps
        self.actions = list(enumerate_actions(bundle, self.ids, domain))
        self.budget_states = budget_states
        self.budget_secs = budget_secs
        self._allowed: dict[ControlState, tuple] = {}
        self.parents: dict[tuple, tuple | None] = {}
        self.transitions = 0
        self.started = time.monotonic()
        zeros = (0,) * self.n_maps
        control = ControlState((0,) * bundle.n_roles, (0,) * bundle.n_data, 0)
        vectors, allowed = self._allowed_at(control)
        init_domains = tuple((zeros,) for _ in self.ids)
        self.init = (control, None if init_domains == vectors else init_domains)
        # The first user the initial state puts outside the invariant, if any.
        self._init_bad_slot = next(
            (s for s, ok in enumerate(allowed) if zeros not in ok), None)

    # -- class plumbing --------------------------------------------------

    def _allowed_at(self, control: ControlState) -> tuple:
        """Per-slot allowed vectors at a control, and the same as frozensets."""
        cached = self._allowed.get(control)
        if cached is None:
            vectors = tuple(
                allowed_vectors(self.theta, control, uid, self.domain, self.n_maps)
                for uid in self.ids)
            cached = (vectors, tuple(frozenset(v) for v in vectors))
            self._allowed[control] = cached
        return cached

    def _domains(self, key: tuple) -> tuple:
        control, domains = key
        return self._allowed_at(control)[0] if domains is None else domains

    def _is_frozen(self, key: tuple) -> bool:
        return key[1] is not None and key != self.init

    def _wide_ok(self, control: ControlState, slot: int, vec: tuple) -> bool:
        """The invariant on a vector outside the data domain. The allowed
        sets hold every admitted in-domain vector, so only a literal wider
        than the domain, written to a map cell, needs evaluating."""
        return max(vec, default=0) >= self.domain.limit and eval_split(
            self.theta, control, UserRecord(self.ids[slot], vec), self.domain)

    # -- expansion ---------------------------------------------------------

    def _expand(self, key: tuple) -> list:
        """All successor records of one class, in deterministic order.

        Record shapes:
          ("succ", ai, leaf, succ_key)
          ("theta", ai, leaf, frozen_key, bad_values)
          ("bottom", ai, leaf)
        """
        control = key[0]
        domains = self._domains(key)
        dom_map = dict(enumerate(domains))
        # Members of an interference class satisfy the invariant at their own
        # control by construction; only the concrete initial class can break
        # that, in which case reverted transitions must freeze too.
        pre_theta_ok = key != self.init or self._init_bad_slot is None
        records: list = []
        n_paths = 0
        for ai, action in enumerate(self.actions):
            leaves = explore(self.bundle, control, self.ids, dom_map, action, self.domain)
            n_paths += len(leaves)
            for leaf in leaves:
                if leaf.outcome == "bottom":
                    records.append(("bottom", ai, leaf))
                    continue
                if leaf.outcome == "revert" and pre_theta_ok:
                    # The unchanged state is closed under the invariant, so
                    # interference applies directly.
                    succ = (control, None)
                    if succ != key:
                        records.append(("succ", ai, leaf, succ))
                    continue
                post_control = leaf.control_after
                writes: dict[int, dict[int, int]] = {}
                for s, c, v in leaf.write_cells:
                    writes.setdefault(s, {})[c] = v
                allowed = self._allowed_at(post_control)[1]
                assign = dict(leaf.assignment)
                post_domains = []
                all_ok = True
                bad_values: dict[int, tuple] = {}
                for slot in range(len(self.ids)):
                    base = assign.get(slot)
                    w = writes.get(slot, {})
                    if base is not None:
                        post = ( _apply_writes(base, w), )
                    elif w:
                        post = tuple(sorted({_apply_writes(v, w) for v in domains[slot]}))
                    else:
                        post = domains[slot]
                    post_domains.append(post)
                    ok_any = False
                    for v in post:
                        if v in allowed[slot] or self._wide_ok(post_control, slot, v):
                            ok_any = True
                        elif slot not in bad_values:
                            bad_values[slot] = v
                    all_ok = all_ok and ok_any
                if bad_values:
                    frozen_key = (post_control, tuple(post_domains))
                    records.append(("theta", ai, leaf, frozen_key, bad_values))
                if all_ok:
                    records.append(("succ", ai, leaf, (post_control, None)))
        return records, n_paths

    # -- property evaluation over a class ---------------------------------

    def _phi_witness(self, phi: GuardedProperty, key: tuple):
        """None if the property holds everywhere in the class; otherwise a
        (slot values, reason) pair pinning the first violating member."""
        control = key[0]
        domains = self._domains(key)
        n = len(self.ids)
        for combo in itertools.permutations(range(n), phi.k):
            free = [domains[s] for s in combo]
            for choice in itertools.product(*free):
                users = tuple(UserRecord(self.ids[s], v)
                              for s, v in zip(combo, choice))
                if not eval_guarded(phi, control, users, self.domain):
                    values = {s: v for s, v in zip(combo, choice)}
                    return values, f"{phi.name} fails on user slots {list(combo)}"
        return None

    # -- breadth-first search ----------------------------------------------

    def run(self, mode: str, phi: GuardedProperty | None = None) -> Verdict:
        init = self.init
        self.parents[init] = None

        bad = self._init_bad_slot
        if mode == "compositional" and bad is not None:
            return self._cex("cex_invariant", _Violation(
                (0,), "theta", init, None, None, None, {bad: (0,) * self.n_maps},
                f"initial state violates the invariant for user {self.ids[bad]}"))
        if mode == "safety":
            w = self._phi_witness(phi, init)
            if w is not None:
                return self._cex("cex_property", _Violation(
                    (0,), "phi", init, None, None, None, w[0], w[1]))

        frontier = [init]
        while frontier:
            violations: list[_Violation] = []
            next_frontier: list[tuple] = []
            for order, key in enumerate(frontier):
                if len(self.parents) > self.budget_states:
                    return self._exhausted("state budget exceeded")
                if time.monotonic() - self.started > self.budget_secs:
                    return self._exhausted("time budget exceeded")
                records, n_paths = self._expand(key)
                self.transitions += n_paths
                for ri, rec in enumerate(records):
                    tag = rec[0]
                    if tag == "bottom":
                        _, ai, leaf = rec
                        violations.append(_Violation(
                            (order, ai, ri), "bottom", None, key, ai, leaf,
                            None, "error state reachable"))
                        continue
                    if tag == "theta":
                        _, ai, leaf, frozen_key, bad = rec
                        if mode == "compositional":
                            violations.append(_Violation(
                                (order, ai, ri), "theta", frozen_key, key, ai,
                                leaf, bad,
                                "invariant not preserved"))
                        else:
                            # Frozen states are reachable; the property must
                            # hold on them, but they are never expanded.
                            if frozen_key not in self.parents:
                                self.parents[frozen_key] = (key, ai, leaf)
                                w = self._phi_witness(phi, frozen_key)
                                if w is not None:
                                    violations.append(_Violation(
                                        (order, ai, ri), "phi", frozen_key, key,
                                        ai, leaf, w[0], w[1]))
                        continue
                    _, ai, leaf, succ = rec
                    if succ not in self.parents:
                        self.parents[succ] = (key, ai, leaf)
                        next_frontier.append(succ)
                        if mode == "safety":
                            w = self._phi_witness(phi, succ)
                            if w is not None:
                                violations.append(_Violation(
                                    (order, ai, ri), "phi", succ, key, ai,
                                    leaf, w[0], w[1]))
            if violations:
                vio = min(violations, key=lambda v: v.order)
                result = "cex_invariant" if vio.kind == "theta" else "cex_property"
                if mode == "compositional" and vio.kind == "bottom":
                    result = "cex_property"
                return self._cex(result, vio)
            frontier = next_frontier

        invariant = tuple(sorted(
            {k[0] for k in self.parents if not self._is_frozen(k)}))
        return Verdict("safe", self._stats(), invariant=invariant)

    def _stats(self) -> Stats:
        return Stats(len(self.parents), self.transitions,
                     round(time.monotonic() - self.started, 3))

    def _exhausted(self, why: str) -> Verdict:
        return Verdict("exhausted", self._stats(), reason=why)

    # -- counterexample reconstruction --------------------------------------

    def _cex(self, result: str, vio: _Violation) -> Verdict:
        chain: list[tuple] = []  # (pre_key, action_index, leaf)
        if vio.action_index is not None:
            chain.append((vio.parent, vio.action_index, vio.leaf))
        key = vio.parent if vio.action_index is not None else vio.key
        while self.parents.get(key) is not None:
            chain.append(self.parents[key])
            key = chain[-1][0]
        chain.reverse()

        if vio.kind == "bottom":
            final_need: dict[int, tuple] | None = None
        else:
            fdomains = self._domains(vio.key)
            final_need = {}
            for s in range(len(self.ids)):
                if vio.values is not None and s in vio.values:
                    final_need[s] = vio.values[s]
                else:
                    final_need[s] = fdomains[s][0]

        # Walk backward choosing concrete map vectors: reads are pinned by
        # the recorded assignment; unread slots are chosen so the eventual
        # post-state matches what the following step needs.
        needs: list[dict[int, tuple]] = [None] * (len(chain) + 1)
        needs[-1] = final_need
        for t in range(len(chain) - 1, -1, -1):
            pre_key, _, leaf = chain[t]
            domains = self._domains(pre_key)
            writes: dict[int, dict[int, int]] = {}
            for s, c, v in leaf.write_cells:
                writes.setdefault(s, {})[c] = v
            assign = dict(leaf.assignment)
            succ_is_frozen = t == len(chain) - 1 and (
                vio.kind == "theta" or (vio.kind == "phi" and self._is_frozen(vio.key)))
            pre_vals: dict[int, tuple] = {}
            for slot in range(len(self.ids)):
                if slot in assign:
                    pre_vals[slot] = assign[slot]
                    continue
                w = writes.get(slot, {})
                if succ_is_frozen and needs[t + 1] is not None:
                    target = needs[t + 1][slot]
                    pre_vals[slot] = self._invert_write(domains[slot], target, w)
                elif leaf.outcome == "ok":
                    pre_vals[slot] = self._pick_theta_ok(domains[slot], w,
                                                         leaf.control_after, slot)
                else:
                    pre_vals[slot] = domains[slot][0]
            needs[t] = pre_vals

        states = []
        for t, (pre_key, _, _) in enumerate(chain):
            users = tuple(UserRecord(self.ids[s], needs[t][s])
                          for s in range(len(self.ids)))
            states.append(BundleState(pre_key[0], users))
        if vio.kind == "bottom":
            final = BundleState(BOTTOM, states[-1].users)
        else:
            final = BundleState(vio.key[0], tuple(
                UserRecord(self.ids[s], needs[-1][s]) for s in range(len(self.ids))))
        if chain:
            states.append(final)
            trace = Trace(tuple(states), tuple(self.actions[ai] for _, ai, _ in chain))
        else:
            trace = Trace((final,), ())
        return Verdict(result, self._stats(), trace=trace, reason=vio.reason)

    @staticmethod
    def _invert_write(domain_vals: tuple, target: tuple, writes: dict[int, int]) -> tuple:
        for v in domain_vals:
            if _apply_writes(v, writes) == target:
                return v
        raise AssertionError("frozen-state value has no pre-image")

    def _pick_theta_ok(self, domain_vals: tuple, writes: dict[int, int],
                       post_control: ControlState, slot: int) -> tuple:
        allowed = self._allowed_at(post_control)[1][slot]
        for v in domain_vals:
            post = _apply_writes(v, writes)
            if post in allowed or self._wide_ok(post_control, slot, post):
                return v
        raise AssertionError("recorded interference successor has no witness")


# --------------------------------------------------------------------------
# public checking operations
# --------------------------------------------------------------------------

def check_compositional(bundle: ContractBundle, ptg: PtGraph, theta: SplitInvariant,
                        domain: DataDomain, *, budget_states: int = DEFAULT_BUDGET_STATES,
                        budget_secs: float = DEFAULT_BUDGET_SECS) -> Verdict:
    """The compositionality proof rule: explore the local bundle over the
    saturating neighbourhood plus one arbitrary user; the invariant is an
    interference invariant iff no reachable state escapes it."""
    nbhd = saturating_neighbourhood(ptg, theta.role_guard_indices,
                                    theta.lit_guard_addresses)
    a_plus = extend_neighbourhood(nbhd, "compositionality")
    check_guards_in_scope(theta, a_plus)
    engine = _LocalEngine(bundle, theta, a_plus, domain, budget_states, budget_secs)
    return engine.run("compositional")


def check_safety(bundle: ContractBundle, ptg: PtGraph, theta: SplitInvariant,
                 phi: GuardedProperty, domain: DataDomain, *,
                 budget_states: int = DEFAULT_BUDGET_STATES,
                 budget_secs: float = DEFAULT_BUDGET_SECS,
                 require_interference_invariant: bool = True) -> Verdict:
    """The k-universal safety proof rule over the local bundle.

    The neighbourhood is saturated for the union of the invariant's and the
    property's guards, then extended with max(0, k - |exp|) fresh addresses.
    A Safe answer lifts to every network size only when the invariant is an
    interference invariant, so by default the compositionality rule runs
    first and a failure raises PreconditionUnmet. Passing
    ``require_interference_invariant=False`` skips that gate and makes this
    a bounded local-bundle search whose Safe answer carries no universal
    guarantee by itself.
    """
    if require_interference_invariant:
        comp = check_compositional(bundle, ptg, theta, domain,
                                   budget_states=budget_states,
                                   budget_secs=budget_secs)
        if not comp.is_safe:
            raise PreconditionUnmet(
                f"the invariant is not an interference invariant ({comp.result})")
    nbhd = saturating_neighbourhood(
        ptg,
        theta.role_guard_indices | phi.role_guard_indices,
        theta.lit_guard_addresses | phi.lit_guard_addresses)
    a_plus = extend_neighbourhood(nbhd, "safety", k=phi.k)
    check_guards_in_scope(theta, a_plus)
    check_guards_in_scope(phi, a_plus)
    engine = _LocalEngine(bundle, theta, a_plus, domain, budget_states, budget_secs)
    return engine.run("safety", phi)


def global_oracle(bundle: ContractBundle, n: int, phi: GuardedProperty,
                  domain: DataDomain, *, budget_states: int = DEFAULT_BUDGET_STATES,
                  budget_secs: float = 300.0) -> Verdict:
    """Ground truth at a fixed network size: exhaustive breadth-first search
    of the concrete bundle over addresses 0..n-1, checking the property at
    every reachable state."""
    started = time.monotonic()
    s0 = init_state(bundle, range(n))
    actions = list(enumerate_actions(bundle, range(n), domain))
    parents: dict = {s0: None}
    transitions = 0

    def stats() -> Stats:
        return Stats(len(parents), transitions, round(time.monotonic() - started, 3))

    def trace_to(state: BundleState) -> Trace:
        rev_states, rev_actions = [state], []
        cur = state
        while parents[cur] is not None:
            pre, act = parents[cur]
            rev_actions.append(act)
            rev_states.append(pre)
            cur = pre
        return Trace(tuple(reversed(rev_states)), tuple(reversed(rev_actions)))

    w = check_universal(phi, s0, domain)
    if w is not True:
        return Verdict("cex_property", stats(), trace=trace_to(s0),
                       reason=f"{phi.name} fails on user slots {list(w)}")
    frontier = [s0]
    while frontier:
        next_frontier = []
        for st in frontier:
            if len(parents) > budget_states:
                return Verdict("exhausted", stats(), reason="state budget exceeded")
            if time.monotonic() - started > budget_secs:
                return Verdict("exhausted", stats(), reason="time budget exceeded")
            for act in actions:
                post = step(bundle, st, act, domain)
                transitions += 1
                if post in parents:
                    continue
                parents[post] = (st, act)
                if post.is_bottom:
                    return Verdict("cex_property", stats(), trace=trace_to(post),
                                   reason="error state reachable")
                wit = check_universal(phi, post, domain)
                if wit is not True:
                    return Verdict("cex_property", stats(), trace=trace_to(post),
                                   reason=f"{phi.name} fails on user slots {list(wit)}")
                next_frontier.append(post)
        frontier = next_frontier
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
        ids_raw = tuple(u.id for u in raw.users)
        ids_post = tuple(u.id for u in post.users)
        if ids_raw != ids_post:
            raise ValueError(f"step {t}: interference changed user ids")
        for u in post.users:
            if not eval_split(theta, post.control, u, domain):
                raise ValueError(
                    f"step {t}: havoc chose a value outside the invariant for {u.id}")
    return True
