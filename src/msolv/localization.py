"""Neighbourhood construction and the local-bundle transition relation.

A local bundle runs the ordinary transaction semantics over a small,
possibly non-consecutive address set and then havocs every user's mapping
state to an arbitrary vector satisfying the candidate interference
invariant. A post-state outside the invariant is returned frozen, as the
witness that the invariant is not closed under that transaction.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable

from .errors import within
from .properties import GuardedProperty, SplitInvariant, eval_split
from .ptg import PtGraph
from .record import Record
from .semantics import (Action, BundleState, ControlState, DataDomain,
                        UserRecord, step)
from .validator import ContractBundle


class Neighbourhood(Record):
    """Disjoint representative sets: one address per explicit class, one per
    transient class or role guard, and every implicit or literal-guard
    address itself."""

    exp: frozenset[int]
    trans: frozenset[int]
    impl: frozenset[int]

    def __post_init__(self):
        if (self.exp & self.trans) or (self.exp & self.impl) or (self.trans & self.impl):
            raise ValueError("neighbourhood parts must be pairwise disjoint")

    @property
    def addresses(self) -> tuple[int, ...]:
        return tuple(sorted(self.exp | self.trans | self.impl))


def saturating_neighbourhood(ptg: PtGraph, role_guards: Iterable[int],
                             lit_guards: Iterable[int]) -> Neighbourhood:
    """Implicit-class and literal-guard addresses verbatim; then one fresh
    address per transient class or role guard, then one per explicit class.
    Fresh addresses are the smallest naturals not already taken."""
    impl = ptg.implicit_addresses | frozenset(lit_guards)
    n_trans = len(ptg.transient_indices | frozenset(role_guards))
    fresh = (a for a in itertools.count() if a not in impl)
    trans = frozenset(itertools.islice(fresh, n_trans))
    exp = frozenset(itertools.islice(fresh, len(ptg.explicit_indices)))
    return Neighbourhood(exp, trans, impl)


def extend_neighbourhood(nbhd: Neighbourhood, mode: str, k: int = 0) -> tuple[int, ...]:
    """The extended address set used by the two proof rules.

    ``"compositionality"`` adds one fresh address, the arbitrary user under
    interference. ``"safety"`` adds max(0, k - |exp|) fresh addresses so a
    k-universal property has enough arbitrary representatives.
    """
    base = frozenset(nbhd.addresses)
    if mode == "compositionality":
        missing = 1
    elif mode == "safety":
        missing = max(0, k - len(nbhd.exp))
    else:
        raise ValueError("mode must be 'compositionality' or 'safety'")
    fresh = (a for a in itertools.count() if a not in base)
    return tuple(sorted(base.union(itertools.islice(fresh, missing))))


def rule_neighbourhood(ptg: PtGraph, theta: SplitInvariant,
                       phi: GuardedProperty | None = None
                       ) -> tuple[Neighbourhood, tuple[int, ...]]:
    """The saturating neighbourhood of one proof rule and its extended
    address set: the compositionality rule's for ``theta`` alone, the safety
    rule's for ``theta`` and ``phi``. The neighbourhood is saturated for the
    guards of both, so every literal guard address is one of its members."""
    guarded = (theta,) if phi is None else (theta, phi)
    nbhd = saturating_neighbourhood(ptg, {r for g in guarded for r, _ in g.roles},
                                    {a for g in guarded for a, _ in g.lits})
    a_plus = (extend_neighbourhood(nbhd, "compositionality") if phi is None
              else extend_neighbourhood(nbhd, "safety", k=phi.k))
    return nbhd, a_plus


def allowed_vectors(theta: SplitInvariant, control: ControlState, user_id: int,
                    domain: DataDomain, n_maps: int, *,
                    deadline: float = math.inf) -> tuple[tuple[int, ...], ...]:
    """All map vectors the invariant admits for this user at this control
    state, in ascending order. There are 2^(width * n_maps) vectors to try,
    so the enumeration raises BudgetExceeded once ``time.monotonic()``
    passes ``deadline``. The user's binding is decided once, not per vector."""
    preds = theta.binding(control, user_id)
    return tuple(v for v in within(deadline, itertools.product(domain.values(), repeat=n_maps))
                 if all(p.evaluate(control, (UserRecord(user_id, v),), domain) for p in preds))


def interference_successors(theta: SplitInvariant, state: BundleState,
                            domain: DataDomain) -> set[BundleState]:
    """Every state with the same control and ids whose users each satisfy
    the invariant; the exhaustive rendering of the interference relation."""
    if state.is_bottom:
        raise ValueError("the error state has no interference successors")
    n_maps = len(state.users[0].map_vals) if state.users else 0
    per_user = [allowed_vectors(theta, state.control, u.id, domain, n_maps)
                for u in state.users]
    out: set[BundleState] = set()
    for combo in itertools.product(*per_user):
        users = tuple(UserRecord(u.id, v) for u, v in zip(state.users, combo))
        out.add(BundleState(state.control, users))
    return out


def local_step(bundle: ContractBundle, a_plus: Iterable[int], theta: SplitInvariant,
               state: BundleState, action: Action,
               domain: DataDomain) -> set[BundleState]:
    """One local-bundle transition: run the transaction, then havoc under
    the invariant when the raw post-state satisfies it for every user;
    otherwise return the raw state alone (the non-compositionality witness)."""
    addrs = set(a_plus)
    if not set(action.clients) <= addrs:
        raise ValueError(f"action clients {action.clients} outside the neighbourhood")
    raw = step(bundle, state, action, domain)
    if raw.is_bottom:
        return {raw}
    if all(eval_split(theta, raw.control, u, domain) for u in raw.users):
        return interference_successors(theta, raw, domain)
    return {raw}
