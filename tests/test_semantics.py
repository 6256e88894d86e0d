import cProfile
import gc
import itertools
import pstats
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msolv
from msolv import ir
from msolv.errors import ResourceExhausted, TooFewUsers, UnknownFunction
from msolv.semantics import (BOTTOM, Action, BundleState, ControlState,
                             DataDomain, UserRecord, apply_writes, enumerate_actions,
                             explore, init_state, step, swap_addresses)

from conftest import read


def ctor(sender, mgr):
    return Action("constructor", (sender, mgr), ())


def bid(sender, amount):
    return Action("bid", (sender,), (amount,))


def tx(name, sender):
    return Action(name, (sender,), ())


# ---------------------------------------------------------------- init

def test_init_state_examples(auction):
    s = init_state(auction, range(4))
    assert [u.id for u in s.users] == [0, 1, 2, 3]
    assert all(u.map_vals == (0,) for u in s.users)
    assert s.control == ControlState((0,), (0, 0, 0), 0)

    two = init_state(auction, [0, 1])
    assert len(two.users) == 2

    with pytest.raises(TooFewUsers):
        init_state(auction, [0])


# ---------------------------------------------------------------- enumerate

def test_enumerate_action_counts(auction, w2):
    acts = list(enumerate_actions(auction, range(4), w2))
    # Independent count from the declared signatures: N^clients * |D|^args.
    expected = 0
    for name in auction.tx_order:
        sig = auction.signature(name)
        expected += 4 ** sig.clients * 4 ** sig.args
    assert expected == 40
    assert len(acts) == expected
    assert len(set(acts)) == expected  # each combination exactly once
    assert len([a for a in acts if a.tx == "stop"]) == 4
    assert len([a for a in acts if a.tx == "bid"]) == 16
    assert list(enumerate_actions(auction, range(4), w2)) == acts  # deterministic


# ---------------------------------------------------------------- step

def test_step_example_bid_of_ten(auction, w8):
    s = init_state(auction, range(4))
    s = step(auction, s, ctor(3, 2), w8)
    post = step(auction, s, bid(3, 10), w8)
    assert post.control.roles == (2,)
    assert post.control.data[0] == 10  # leading bid
    assert post.users[3].map_vals == (10,)


def test_step_failed_require_is_identity(auction, w8):
    s = init_state(auction, range(4))
    s = step(auction, s, ctor(3, 2), w8)
    s = step(auction, s, bid(3, 10), w8)
    assert step(auction, s, tx("stop", 3), w8) is s  # manager check fails


def test_step_stopped_blocks_withdraw(auction, w8):
    s = init_state(auction, range(4))
    for a in (ctor(3, 2), bid(3, 10), tx("stop", 2)):
        s = step(auction, s, a, w8)
    assert s.control.data[1] == 1
    assert step(auction, s, tx("withdraw", 3), w8) == s


def test_zero_and_contract_account_guards(auction, w8):
    s = init_state(auction, range(4))
    assert step(auction, s, ctor(0, 2), w8) == s
    assert step(auction, s, ctor(1, 2), w8) == s


def test_constructor_runs_once(auction, w8):
    s = init_state(auction, range(4))
    assert step(auction, s, bid(3, 1), w8) == s  # nothing before construction
    s1 = step(auction, s, ctor(3, 2), w8)
    assert s1.control.ctor_done == 1
    assert step(auction, s1, ctor(3, 3), w8) == s1  # and only once


def test_reverting_steps_keep_no_objects_alive(auction, w8):
    # A revert or a fault must not chain its traceback onto a shared
    # exception instance, or every frame of every such transaction stays
    # alive. Both are raised in a body the guards let through.
    s = step(auction, init_state(auction, range(4)), ctor(3, 2), w8)
    low_bid = bid(3, 0)  # reverts: require(amount > leadingBid) fails
    assert step(auction, s, low_bid, w8) is s
    faulty = msolv.load("contract R { constructor() public {} "
                        "function f(uint a) public { assert(a < 2); } }")
    r = step(faulty, init_state(faulty, range(3)), Action("constructor", (2,), ()), w8)
    bad_f = Action("f", (2,), (5,))
    assert step(faulty, r, bad_f, w8).is_bottom
    gc.collect()
    before = len(gc.get_objects())
    for _ in range(2000):
        step(auction, s, low_bid, w8)
        step(faulty, r, bad_f, w8)
    gc.collect()
    grown = len(gc.get_objects()) - before
    assert grown < 100, grown


def test_profiles_name_the_microsol_function(auction, w8):
    s = step(auction, init_state(auction, range(4)), ctor(3, 2), w8)
    profile = cProfile.Profile()
    profile.runcall(step, auction, s, bid(3, 10), w8)
    assert "<msolv Auction.bid>" in {file for file, _, _ in pstats.Stats(profile).stats}


def test_python_keywords_name_microsol_things(w8):
    # No MicroSol name reaches the generated code, so Python's words are free.
    b = msolv.load("contract lambda { uint def; address None; "
                   "constructor() public { None = msg.sender; } "
                   "function import(uint return_) public { def = return_ + 1; } }")
    s = step(b, init_state(b, range(3)), Action("constructor", (2,), ()), w8)
    assert step(b, s, Action("import", (2,), (4,)), w8).control == ControlState((2,), (5,), 1)


def test_step_determinism_and_address_preservation(auction, w8):
    s = init_state(auction, range(4))
    act = ctor(3, 2)
    assert step(auction, s, act, w8) == step(auction, s, act, w8)
    post = step(auction, s, act, w8)
    assert [u.id for u in post.users] == [u.id for u in s.users]


def test_revert_atomicity_no_partial_writes(w8):
    src = ("contract R { uint x; constructor() public {} "
           "function f(uint a) public { x = a; require(a < 2); } }")
    b = msolv.load(src)
    s = init_state(b, range(3))
    s = step(b, s, Action("constructor", (2,), ()), w8)
    out = step(b, s, Action("f", (2,), (5,)), w8)
    assert out == s  # the write to x before the failed require is invisible


def test_assert_failure_reaches_bottom(w8):
    src = ("contract R { constructor() public {} "
           "function f(uint a) public { assert(a < 2); } }")
    b = msolv.load(src)
    s = init_state(b, range(3))
    s = step(b, s, Action("constructor", (2,), ()), w8)
    out = step(b, s, Action("f", (2,), (5,)), w8)
    assert out.is_bottom
    assert out.users == s.users
    with pytest.raises(ValueError):
        step(b, out, Action("f", (2,), (0,)), w8)


def test_division_by_zero_reverts(w8):
    src = ("contract R { uint x; constructor() public {} "
           "function f(uint a) public { x = 4 / a; } }")
    b = msolv.load(src)
    s = init_state(b, range(3))
    s = step(b, s, Action("constructor", (2,), ()), w8)
    assert step(b, s, Action("f", (2,), (0,)), w8) == s
    assert step(b, s, Action("f", (2,), (2,)), w8).control.data == (2,)


def test_arithmetic_out_of_domain_reverts(auction):
    # At width 2, re-bidding 3 after bids of 1 and 2 would push the running
    # sum past the domain; the transaction must be a no-op, not a wrap.
    d = DataDomain(2)
    s = init_state(auction, range(5))
    for a in (ctor(3, 2), bid(3, 1), bid(4, 2)):
        s = step(auction, s, a, d)
    assert s.control.data == (2, 0, 3)
    assert step(auction, s, bid(3, 3), d) == s


def test_literal_address_outside_set_faults(w8):
    src = ("contract R { constructor() public {} "
           "function f() public { require(msg.sender != address(7)); } }")
    b = msolv.load(src)
    s = init_state(b, range(3))
    s = step(b, s, Action("constructor", (2,), ()), w8)
    assert step(b, s, Action("f", (2,), ()), w8).is_bottom


def test_loop_fuel_exhaustion(w8):
    src = ("contract R { uint x; constructor() public {} "
           "function f() public { while (1 > 0) { x = x + 0; } } }")
    b = msolv.load(src)
    s = init_state(b, range(3))
    s = step(b, s, Action("constructor", (2,), ()), w8)
    with pytest.raises(ResourceExhausted):
        step(b, s, Action("f", (2,), ()), w8)


def test_multi_contract_new_and_cross_call(w8):
    b = msolv.load(read_multi_src())
    s = init_state(b, range(4))
    s = step(b, s, Action("constructor", (3,), ()), w8)
    assert s.control.data == (0, 5)  # new ran the sub-constructor
    assert s.control.roles == (1, 0)  # ... with Main's account as msg.sender
    s = step(b, s, Action("poke", (3,), (2,)), w8)
    assert s.control.data == (2, 7)  # cross-contract call bumped the counter
    assert s.control.roles == (1, 1)  # ... with Main's account as msg.sender
    assert step(b, s, Action("poke", (2,), (1,)), w8) == s  # account 2 is a contract


def _order_contract(body: str):
    return msolv.load("contract C { uint x; mapping(address => uint) m; "
                      "constructor() public { } function f() public { " + body + " } "
                      "function two(address a) public { x = m[a] + m[msg.sender]; } }")


@pytest.mark.parametrize("body, outcome", [
    # The divisor is read first; it is 0, so the absent address 7 is never used.
    ("x = m[address(7)] / x;", "revert"),
    # && and || evaluate their right operand only when the left leaves it open.
    ("require(x == 1 && m[address(7)] == 0);", "revert"),
    ("require(x == 0 || m[address(7)] == 0); x = 1;", 1),
    # - reverts only below 0 and + only at 2**w or above; a literal wider
    # than the domain is stored as written.
    ("x = 3 - 1;", 2),
    ("x = 1 + 3;", "revert"),
    ("x = 3;", 3),
    ("require(address(7) == msg.sender);", "bottom"),
])
def test_evaluation_order_and_domain_rules(body, outcome):
    b = _order_contract(body)
    d = DataDomain(1)
    s = step(b, init_state(b, range(3)), Action("constructor", (2,), ()), d)
    post = step(b, s, Action("f", (2,), ()), d)
    if outcome == "revert":
        assert post is s
    elif outcome == "bottom":
        assert post.is_bottom
    else:
        assert post.control == ControlState((), (outcome,), 1)


def test_explore_forks_the_left_operand_first():
    # The order of leaves is the engine's first-seen order, so it fixes traces.
    b = _order_contract("")
    d = DataDomain(1)
    leaves = explore(b, ControlState((), (0,), 1), (0, 1, 2, 3), [((0,), (1,))] * 4,
                     Action("two", (2, 3), ()), d)
    assert [list(leaf.assignment.items()) for leaf in leaves] == [
        [(3, (0,)), (2, (0,))], [(3, (0,)), (2, (1,))],
        [(3, (1,)), (2, (0,))], [(3, (1,)), (2, (1,))]]
    assert [leaf.outcome for leaf in leaves] == ["ok", "ok", "ok", "revert"]


def test_a_callee_leaves_the_callers_locals_and_control_alone(w8):
    # The callee's local shares the caller's slot number, and its return ends
    # only the callee.
    b = msolv.load("contract C { uint x; uint y; constructor() public { } "
                   "function f() public { uint i; i = 5; g(); x = i; y = 1; } "
                   "function g() public { uint i; i = 7; return; } }")
    s = step(b, init_state(b, range(3)), Action("constructor", (2,), ()), w8)
    assert step(b, s, Action("f", (2,), ()), w8).control.data == (5, 1)


def test_nested_loops_share_one_fuel_per_transaction():
    # n + n*n loop rounds: 40,200 fit the 65,536 of one transaction, 90,300
    # do not, though no single call runs more than n = 300.
    b = msolv.load("contract C { uint x; constructor() public { } "
                   "function f(uint n) public { uint i; while (i < n) { i = i + 1; g(n); } } "
                   "function g(uint n) public { uint j; while (j < n) { j = j + 1; } x = x + 1; } }")
    d = DataDomain(17)
    s = step(b, init_state(b, range(3)), Action("constructor", (2,), ()), d)
    assert step(b, s, Action("f", (2,), (200,)), d).control.data == (200,)
    with pytest.raises(ResourceExhausted, match="loop fuel"):
        step(b, s, Action("f", (2,), (300,)), d)


def _first_leaves(src: str, name: str, clients: tuple, log_uses: bool = False):
    b = msolv.load(src)
    d = DataDomain(1)
    return explore(b, ControlState((), (0,), 1), (0, 1, 2, 3, 4), [((0,), (1,))] * 5,
                   Action(name, clients, ()), d, log_uses=log_uses)


def test_explore_faults_on_a_used_address_before_forking_on_what_follows():
    # In source an address operand never reads a map, so the comparison is
    # built in IR: its right operand forks, its left address is absent.
    b = _order_contract("")
    b.all_functions[0, "f"] = ir.IRFunction("f", 1, 0, 0, (ir.SRequire(ir.RBin(
        "==", ir.RAddrLit(7), ir.RMapRead(0, ir.RClient(0)), True)),))
    leaves = explore(b, ControlState((), (0,), 1), (0, 1, 2, 3), [((0,), (1,))] * 4,
                     Action("f", (2,), ()), DataDomain(1))
    assert [(leaf.assignment, leaf.outcome) for leaf in leaves] == [({}, "bottom")]
    # A map write uses its key before its value runs.
    (leaf,) = _first_leaves("contract C { mapping(address => uint) m; constructor() public { } "
                            "function f() public { m[address(7)] = m[msg.sender]; } }",
                            "f", (3,))
    assert (leaf.assignment, leaf.outcome) == ({}, "bottom")


def test_call_clients_run_before_arguments_each_left_to_right():
    src = ("contract C { uint x; mapping(address => uint) m; constructor() public { } "
           # the absent client faults before either argument forks
           "function f(address p) public { g(m[p], address(7), m[msg.sender]); } "
           "function g(uint u, address a, uint v) public { x = u; } "
           # the arguments fork in order: p's slot first
           "function k(address p) public { h(m[p], m[msg.sender]); } "
           "function h(uint u, uint v) public { x = u + v; } "
           # the clients are used in order: 3, then 2
           "function c() public { two(address(3), address(2)); } "
           "function two(address a, address b) public { } }")
    assert [(leaf.assignment, leaf.outcome) for leaf in _first_leaves(src, "f", (3, 4))] == [
        ({}, "bottom")]
    assert [list(leaf.assignment) for leaf in _first_leaves(src, "k", (3, 4))] == [[4, 3]] * 4
    (leaf,) = _first_leaves(src, "c", (4,), log_uses=True)
    assert list(leaf.uses) == [4, 0, 1, 3, 2]


def read_multi_src() -> str:
    return """
contract Main {
    Sub s;
    uint total;
    constructor() public { s = new Sub(5); }
    function poke(uint v) public { total = total + v; s.bump(v); }
}
contract Sub {
    uint count;
    address creator;
    address bumper;
    constructor(uint seed) public { count = seed; creator = msg.sender; }
    function bump(uint v) public { count = count + v; bumper = msg.sender; }
}
"""


# ---------------------------------------------------------------- swaps

def _random_state_and_action(bundle, rng, n, width):
    ids = list(range(n))
    rng.shuffle(ids)
    limit = 1 << width
    control = ControlState((rng.randrange(n),),
                           tuple(rng.randrange(limit) for _ in range(3)),
                           rng.randrange(2))
    users = tuple(UserRecord(i, (rng.randrange(limit),)) for i in ids)
    name = rng.choice(bundle.tx_order)
    sig = bundle.signature(name)
    action = Action(name, tuple(rng.randrange(n) for _ in range(sig.clients)),
                    tuple(rng.randrange(limit) for _ in range(sig.args)))
    return BundleState(control, users), action


def test_swap_self_and_involution(auction):
    rng = random.Random(7)
    s, p = _random_state_and_action(auction, rng, 5, 3)
    assert swap_addresses(s, 4, 4) == s
    assert swap_addresses(swap_addresses(s, 2, 4), 2, 4) == s
    assert swap_addresses(swap_addresses(p, 2, 4), 2, 4) == p


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_swap_commutes_with_step(seed):
    bundle = _swap_bundle()
    d = DataDomain(3)
    rng = random.Random(seed)
    s, p = _random_state_and_action(bundle, rng, 5, 3)
    x, y = rng.sample([a for a in range(5) if a not in (0, 1)], 2)
    lhs = step(bundle, swap_addresses(s, x, y), swap_addresses(p, x, y), d)
    rhs = swap_addresses(step(bundle, s, p, d), x, y)
    assert lhs == rhs


_SWAP_BUNDLE = None


def _swap_bundle():
    global _SWAP_BUNDLE
    if _SWAP_BUNDLE is None:
        _SWAP_BUNDLE = msolv.load(read("auction.msol"))
    return _SWAP_BUNDLE


# ---------------------------------------------------------------- explore

@pytest.mark.parametrize("ctor_done", [0, 1])
@pytest.mark.parametrize("sender", [0, 2])
def test_undeclared_transaction_is_unknown(auction, w8, ctor_done, sender):
    control = ControlState((3,), (0, 0, 0), ctor_done)
    state = BundleState(control, tuple(UserRecord(i, (0,)) for i in range(4)))
    action = Action("nope", (sender,), ())
    with pytest.raises(UnknownFunction):
        step(auction, state, action, w8)
    with pytest.raises(UnknownFunction):
        explore(auction, control, (0, 1, 2, 3), [((0,),)] * 4, action, w8)


def _guard_decision(ids, sender, ctor_done, tx):
    """The implicit guards, written out: the settled outcome (None when the
    body runs) and the uses the guards log on the way."""
    uses = {sender: {("explicit", 0)}}
    if sender not in ids:
        return "bottom", uses
    for acct in (0, 1):  # the zero account, then auction's contract account
        uses.setdefault(acct, set()).add(("implicit", acct))
        if acct not in ids:
            return "bottom", uses
        if acct == sender:
            return "revert", uses
    if (tx == "constructor") == bool(ctor_done):
        return "revert", uses
    return None, uses


@pytest.mark.parametrize("ids", [(0, 1, 2, 3), (1, 2, 3), (0, 2, 3), (2, 3)])
@pytest.mark.parametrize("sender", [5, 0, 1, 2])
@pytest.mark.parametrize("ctor_done", [0, 1])
@pytest.mark.parametrize("name", ["constructor", "stop"])
def test_implicit_guard_table(auction, w2, ids, sender, ctor_done, name):
    """Every guard decision, in step and in explore with and without the use
    log. A settled call gives one leaf that read and wrote nothing; a body
    run of the constructor, or of stop from the manager, commits."""
    control = ControlState((2,), (0, 0, 0), ctor_done)
    state = BundleState(control, tuple(UserRecord(a, (0,)) for a in ids))
    action = Action(name, (sender, 3) if name == "constructor" else (sender,), ())
    settled, guard_uses = _guard_decision(ids, sender, ctor_done, name)
    body_post = (ControlState((3,), (0, 0, 0), 1) if name == "constructor"
                 else ControlState((2,), (0, 1, 0), 1))

    post = step(auction, state, action, w2)
    if settled == "revert":
        assert post is state
    elif settled == "bottom":
        assert post == BundleState(BOTTOM, state.users)
    else:
        assert post == BundleState(body_post, state.users)

    vectors = tuple((v,) for v in w2.values())
    for log_uses in (False, True):
        leaves = explore(auction, control, ids, [vectors] * len(ids), action, w2,
                         log_uses=log_uses)
        if settled is None:
            assert leaves and all(leaf.outcome == "ok" and leaf.control_after == body_post
                                  for leaf in leaves)
            if log_uses:
                for leaf in leaves:
                    for a, origins in guard_uses.items():
                        assert origins <= leaf.uses[a]
            continue
        (leaf,) = leaves
        assert leaf.outcome == settled
        assert leaf.assignment == {} and leaf.writes == {}
        assert leaf.control_after == (control if settled == "revert" else None)
        assert leaf.uses == (guard_uses if log_uses else {})


def test_explore_over_singleton_domains_agrees_with_step(auction, w2):
    """One leaf per action, and its outcome, control and writes rebuild the
    post-state of step. Roles may name an absent user, so bottom occurs."""
    rng = random.Random(11)
    n = 4
    outcomes = set()
    for _ in range(40):
        ids = list(range(n))
        rng.shuffle(ids)
        control = ControlState((rng.randrange(n + 1),),
                               tuple(rng.randrange(w2.limit) for _ in range(3)),
                               rng.randrange(2))
        state = BundleState(control, tuple(UserRecord(i, (rng.randrange(w2.limit),))
                                           for i in ids))
        domains = [(u.map_vals,) for u in state.users]
        for action in enumerate_actions(auction, ids, w2):
            post = step(auction, state, action, w2)
            (leaf,) = explore(auction, control, tuple(ids), domains, action, w2)
            outcomes.add(leaf.outcome)
            if leaf.outcome == "revert":
                assert post is state
                assert leaf.control_after == control and leaf.writes == {}
            elif leaf.outcome == "bottom":
                assert post == BundleState(BOTTOM, state.users)
            else:
                assert post == BundleState(leaf.control_after, tuple(
                    UserRecord(u.id, apply_writes(u.map_vals, leaf.writes.get(slot)))
                    for slot, u in enumerate(state.users)))
    assert outcomes == {"ok", "revert", "bottom"}


def test_explore_over_full_domains_agrees_with_step_on_every_member(auction, w2):
    """A leaf stands for every state that holds its assignment in the slots
    it read and any vector in the others: step gives each such state the
    leaf's outcome, its control and the writes' image of every user. The
    leaves share the states out between them, each to exactly one leaf."""
    rng = random.Random(5)
    ids = (0, 1, 2, 3)
    vectors = tuple(itertools.product(w2.values(), repeat=auction.n_maps))
    total = len(vectors) ** len(ids)
    outcomes, forked, unread = set(), 0, 0
    for _ in range(6):
        control = ControlState((rng.randrange(len(ids) + 1),),
                               tuple(rng.randrange(w2.limit) for _ in range(3)),
                               rng.randrange(2))
        for action in enumerate_actions(auction, ids, w2):
            leaves = explore(auction, control, ids, [vectors] * len(ids), action, w2)
            forked += len(leaves) > 1
            members = set()
            for leaf in leaves:
                outcomes.add(leaf.outcome)
                free = [s for s in range(len(ids)) if s not in leaf.assignment]
                unread += bool(free)
                for choice in itertools.product(vectors, repeat=len(free)):
                    vecs = {**leaf.assignment, **dict(zip(free, choice))}
                    state = BundleState(control, tuple(
                        UserRecord(a, vecs[s]) for s, a in enumerate(ids)))
                    members.add(state)
                    post = step(auction, state, action, w2)
                    if leaf.outcome == "revert":
                        assert post is state and leaf.control_after == control
                    elif leaf.outcome == "bottom":
                        assert post == BundleState(BOTTOM, state.users)
                    else:
                        assert post == BundleState(leaf.control_after, tuple(
                            UserRecord(u.id, apply_writes(u.map_vals, leaf.writes.get(s)))
                            for s, u in enumerate(state.users)))
            assert len(members) == total
            assert sum(len(vectors) ** (len(ids) - len(leaf.assignment))
                       for leaf in leaves) == total
    assert outcomes == {"ok", "revert", "bottom"}
    assert forked and unread
