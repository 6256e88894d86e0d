import pytest

from msolv.localization import (Neighbourhood, extend_neighbourhood,
                                interference_successors, local_step,
                                saturating_neighbourhood)
from msolv.properties import parse_spec
from msolv.ptg import build_ptg
from msolv.semantics import (Action, BundleState, ControlState, DataDomain,
                             UserRecord, enumerate_actions, init_state, step)

D2 = DataDomain(2)
D4 = DataDomain(4)


def zeroed_local_state(mgr=2):
    control = ControlState((mgr,), (0, 0, 0), 1)
    return BundleState(control, tuple(UserRecord(i, (0,)) for i in range(4)))


# ---------------------------------------------------------------- neighbourhoods

def test_saturating_neighbourhood_auction(auction_ptg):
    nb = saturating_neighbourhood(auction_ptg, set(), {0})
    assert nb.impl == {0, 1}
    assert nb.trans == {2}
    assert nb.exp == {3}
    assert nb.addresses == (0, 1, 2, 3)


def test_saturating_neighbourhood_degenerate():
    g = build_ptg(frozenset())
    nb = saturating_neighbourhood(g, set(), set())
    assert nb.addresses == ()


def test_saturating_neighbourhood_extra_lit_guard(auction_ptg):
    nb = saturating_neighbourhood(auction_ptg, set(), {0, 7})
    assert nb.impl == {0, 1, 7}
    assert nb.trans == {2}
    assert nb.exp == {3}


def test_extend_neighbourhood_modes(auction_ptg):
    nb = saturating_neighbourhood(auction_ptg, set(), {0})
    assert extend_neighbourhood(nb, "compositionality") == (0, 1, 2, 3, 4)
    assert extend_neighbourhood(nb, "safety", k=1) == (0, 1, 2, 3)
    assert len(extend_neighbourhood(nb, "safety", k=3)) == 6
    with pytest.raises(ValueError):
        extend_neighbourhood(nb, "nonsense")


def test_neighbourhood_disjointness_enforced():
    with pytest.raises(ValueError):
        Neighbourhood(frozenset({1}), frozenset({1}), frozenset())


# ---------------------------------------------------------------- interference

def test_interference_count_after_bid(auction, auction_spec):
    # After a bid of 3 at width 2 the zero account is pinned to 0 and every
    # other user ranges over the full domain: 1 * 4^3 successors.
    state = BundleState(ControlState((2,), (3, 0, 3), 1),
                        (UserRecord(0, (0,)), UserRecord(1, (0,)),
                         UserRecord(2, (0,)), UserRecord(3, (3,))))
    succ = interference_successors(auction_spec.invariant, state, D2)
    assert len(succ) == 1 * 4 ** 3
    assert all(s.control == state.control for s in succ)
    assert all([u.id for u in s.users] == [0, 1, 2, 3] for s in succ)


def test_interference_full_havoc_single_user(auction):
    theta = parse_spec("(invariant (else true))", auction.layout).invariant
    state = BundleState(ControlState((), (), 1), (UserRecord(0, (0,)), UserRecord(1, (0,))))
    succ = interference_successors(theta, state, DataDomain(1))
    assert len(succ) == 4  # 2 users x 2 values each


def test_interference_self_membership(auction, auction_spec):
    from msolv.properties import eval_split
    theta = auction_spec.invariant
    for bid0 in (0, 1):
        state = BundleState(ControlState((2,), (1, 0, 1), 1),
                            (UserRecord(0, (bid0,)), UserRecord(1, (0,)),
                             UserRecord(2, (0,)), UserRecord(3, (1,))))
        member = state in interference_successors(theta, state, D2)
        individually = all(eval_split(theta, state.control, u, D2) for u in state.users)
        assert member == individually


def test_interference_idempotent(auction, auction_spec):
    state = zeroed_local_state()
    first = interference_successors(auction_spec.invariant, state, D2)
    some = sorted(first, key=repr)[17 % len(first)]
    again = interference_successors(auction_spec.invariant, some, D2)
    assert again == first


# ---------------------------------------------------------------- local_step

def test_local_step_example_bid(auction, auction_spec):
    out = local_step(auction, (0, 1, 2, 3), auction_spec.invariant,
                     zeroed_local_state(), Action("bid", (3,), (10,)), D4)
    target = BundleState(ControlState((2,), (10, 0, 10), 1),
                         (UserRecord(0, (0,)), UserRecord(1, (1,)),
                          UserRecord(2, (2,)), UserRecord(3, (3,))))
    assert target in out  # the havoc admits states unreachable globally


def test_local_step_theta_violation_is_frozen_singleton(auction, bad_spec):
    out = local_step(auction, (0, 1, 2, 3), bad_spec.invariant,
                     zeroed_local_state(), Action("bid", (3,), (10,)), D4)
    assert len(out) == 1
    (raw,) = out
    assert raw.users[3].map_vals == (10,)


def test_local_step_revert_still_havocs(auction, auction_spec):
    state = zeroed_local_state()
    out = local_step(auction, (0, 1, 2, 3), auction_spec.invariant,
                     state, Action("stop", (3,), ()), D4)  # require fails
    assert out == interference_successors(auction_spec.invariant, state, D4)


def test_local_step_rejects_foreign_clients(auction, auction_spec):
    with pytest.raises(ValueError):
        local_step(auction, (0, 1, 2, 3), auction_spec.invariant,
                   zeroed_local_state(), Action("bid", (9,), (1,)), D4)


def test_local_bundle_simulates_global(auction_plain, auction_spec):
    # Soundness direction at desk scale: over the full address set [4] with
    # a valid interference invariant, every globally reachable state is
    # reachable in the local bundle.
    d = DataDomain(1)
    theta = auction_spec.invariant
    actions = list(enumerate_actions(auction_plain, range(4), d))

    global_seen = set()
    frontier = [init_state(auction_plain, range(4))]
    global_seen.update(frontier)
    while frontier:
        nxt = []
        for s in frontier:
            for a in actions:
                post = step(auction_plain, s, a, d)
                if not post.is_bottom and post not in global_seen:
                    global_seen.add(post)
                    nxt.append(post)
        frontier = nxt

    local_seen = set()
    frontier = [init_state(auction_plain, range(4))]
    local_seen.update(frontier)
    while frontier:
        nxt = []
        for s in frontier:
            for a in actions:
                for post in local_step(auction_plain, range(4), theta, s, a, d):
                    if not post.is_bottom and post not in local_seen:
                        local_seen.add(post)
                        nxt.append(post)
        frontier = nxt

    assert global_seen <= local_seen
