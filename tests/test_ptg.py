import pytest

import msolv
from msolv.errors import BudgetExceeded
from msolv.ptg import (SC, STAR, build_ptg, coverage_violations, semantic_pt,
                       semantic_pt_naive, taint_summary)
from msolv.semantics import Action, DataDomain, enumerate_actions

D2 = DataDomain(2)
D1 = DataDomain(1)


# ---------------------------------------------------------------- taint

def test_auction_summary(auction):
    # msg.sender, manager, the zero account and the contract account
    assert taint_summary(auction) == {("explicit", 0), ("transient", 0),
                                      ("implicit", 0), ("implicit", 1)}


def test_no_address_contract_summary():
    # No address in the source ever reaches a comparison or mapping access.
    # The guard addresses 0 and 1 and the sender slot stay in the summary by
    # design: the dispatcher compares every sender against both accounts
    # regardless of source (the frontend ledger records this deviation from
    # the all-empty reading).
    b = msolv.load("contract C { uint x; constructor() public {} "
                   "function f(uint a) public { x = a; } }")
    assert taint_summary(b) == {("explicit", 0), ("implicit", 0), ("implicit", 1)}


def test_zero_compare_contract_summary():
    b = msolv.load("contract C { uint x; constructor() public {} "
                   "function f() public { require(msg.sender != address(0)); } }")
    assert taint_summary(b) == {("explicit", 0), ("implicit", 0), ("implicit", 1)}


def test_role_assignment_alone_is_not_a_sink(auction):
    # The constructor stores mgr into the role without comparing it, so the
    # mgr client slot must not appear in args (only msg.sender does).
    assert ("explicit", 1) not in taint_summary(auction)


def test_taint_monotone_under_added_statements():
    base = ("contract C { address owner; mapping(address => uint) m; "
            "constructor(address o) public { owner = o; } "
            "function f() public { %s } }")
    small = taint_summary(msolv.load(base % "m[msg.sender] = 1;"))
    bigger = taint_summary(msolv.load(
        base % "m[msg.sender] = 1; require(msg.sender != owner); require(owner != address(3));"))
    assert small <= bigger


# ---------------------------------------------------------------- graph

def test_build_ptg_matches_auction_figure(auction_ptg):
    g = auction_ptg
    assert g.vertices == {SC, STAR, 0, 1}
    assert g.edges == {(SC, STAR), (SC, 0), (SC, 1)}
    labels = {(e, l) for e, l in g.labels}
    for e in g.edges:
        assert (e, ("explicit", 0)) in labels
        assert (e, ("transient", 0)) in labels
    assert ((SC, 0), ("implicit", 0)) in labels
    assert ((SC, 1), ("implicit", 1)) in labels
    assert len(labels) == 8


def test_build_ptg_empty_summary():
    g = build_ptg(frozenset())
    assert g.vertices == {SC, STAR}
    assert g.edges == {(SC, STAR)}
    assert g.labels == frozenset()


def test_build_ptg_single_literal():
    g = build_ptg(frozenset({("implicit", 5)}))
    assert 5 in g.vertices
    assert ((SC, 5), ("implicit", 5)) in g.labels


def test_build_ptg_pure():
    ts = frozenset({("explicit", 0), ("transient", 0), ("implicit", 0), ("implicit", 1)})
    assert build_ptg(ts) == build_ptg(ts)


# ---------------------------------------------------------------- semantic PT

def test_semantic_pt_bid_example(auction):
    pt = semantic_pt(auction, 4, Action("bid", (3,), (1,)), D2)
    assert (0, 3) in pt.explicit            # sender at client slot 0
    assert any(i == 0 for i, _ in pt.transient)  # manager role participates
    assert {0, 1} <= pt.implicit            # zero account and contract account
    assert pt.implicit <= {0, 1}


def test_semantic_pt_stop_from_zero_account(auction):
    # The zero account's transaction is a no-op for every state, so nothing
    # participates beyond the guard comparison itself.
    pt = semantic_pt(auction, 4, Action("stop", (0,), ()), D2)
    assert pt.participants <= {0, 1}
    assert all(a in (0, 1) for _, a in pt.explicit)
    assert pt.transient <= {(0, 0), (0, 1)}


def test_semantic_pt_full_coverage_small(auction, auction_ptg):
    for act in enumerate_actions(auction, range(4), D1):
        pt = semantic_pt(auction, 4, act, D1)
        assert coverage_violations(auction_ptg, pt) == [], act


def test_semantic_pt_matches_naive(auction_plain):
    for act in enumerate_actions(auction_plain, range(3), D1):
        fast = semantic_pt(auction_plain, 3, act, D1)
        slow = semantic_pt_naive(auction_plain, 3, act, D1)
        assert fast == slow, act


def _explore_calls(monkeypatch) -> list:
    """The control of every ``explore`` call ``semantic_pt`` makes."""
    calls, explore = [], msolv.ptg.explore

    def counting_explore(bundle, control, *args, **kwargs):
        calls.append(control)
        return explore(bundle, control, *args, **kwargs)

    monkeypatch.setattr(msolv.ptg, "explore", counting_explore)
    return calls


def test_semantic_pt_explores_guard_settled_action_once_per_ctor_done(auction, monkeypatch):
    # The zero account is turned away before the body runs, so no run reads
    # a field: of the 512 controls, one per ctor_done is explored.
    calls = _explore_calls(monkeypatch)
    semantic_pt(auction, 4, Action("stop", (0,), ()), D2)
    assert [c.ctor_done for c in calls] == [0, 1]


def test_semantic_pt_explores_each_touched_projection_once(auction, monkeypatch):
    calls = _explore_calls(monkeypatch)
    semantic_pt(auction, 4, Action("bid", (3,), (1,)), D2)
    assert len(calls) == 26


def test_semantic_pt_matches_naive_with_a_write_only_field():
    # x is written on one path and read by none, and the two paths compare
    # their post controls on it.
    bundle = msolv.load("contract P { mapping(address => uint) m; uint x; "
                        "constructor() public {} "
                        "function f() public { if (m[msg.sender] == 1) { x = 0; } } }")
    for act in enumerate_actions(bundle, range(3), D1):
        assert semantic_pt(bundle, 3, act, D1) == semantic_pt_naive(bundle, 3, act, D1), act


@pytest.mark.parametrize("src", [
    "contract Q { address r; mapping(address => uint) m; "
    "constructor(address a) public { r = a; } "
    "function f() public { if (m[msg.sender] == 1) { assert(msg.sender != r); } } }",
    "contract Q { mapping(address => uint) m; constructor() public {} "
    "function f() public { if (m[msg.sender] == 1) { assert(msg.sender != address(2)); } } }",
    "contract Q { mapping(address => uint) m; constructor() public {} "
    "function f(address b) public { if (m[msg.sender] == 1) { assert(msg.sender != b); } } }",
], ids=["role", "literal", "argument"])
def test_semantic_pt_matches_naive_where_only_a_fault_reads_an_address(src):
    # Only the faulting path compares the sender with a role, a literal or
    # an argument, so that address participates only in a pair of paths
    # that part at m and of which exactly one faults.
    bundle = msolv.load(src)
    for act in enumerate_actions(bundle, range(3), D1):
        assert semantic_pt(bundle, 3, act, D1) == semantic_pt_naive(bundle, 3, act, D1), act


def test_semantic_pt_matches_naive_where_runs_read_different_fields():
    # The path taken on a decides which of r, b and m a run reads, so the
    # decision tree splits different controls on different fields.
    bundle = msolv.load("contract V { address r; uint a; uint b; "
                        "mapping(address => uint) m; "
                        "constructor(address o) public { r = o; } "
                        "function f() public { if (a == 0) { require(msg.sender != r); "
                        "m[msg.sender] = b; } if (a != 0) { b = 1; } } "
                        "function g(uint v) public { a = v; } }")
    for act in enumerate_actions(bundle, range(3), D1):
        assert semantic_pt(bundle, 3, act, D1) == semantic_pt_naive(bundle, 3, act, D1), act


def test_semantic_pt_budget(auction):
    with pytest.raises(BudgetExceeded):
        semantic_pt(auction, 4, Action("bid", (3,), (1,)), D2, budget=10)


def test_coverage_violation_reporting():
    g = build_ptg(frozenset())
    from msolv.ptg import SemanticPT
    pt = SemanticPT(frozenset({(0, 3)}), frozenset({(0, 2)}), frozenset({0}),
                    frozenset({0, 2, 3}))
    out = coverage_violations(g, pt)
    assert len(out) == 3
