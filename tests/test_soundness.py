"""Randomized end-to-end soundness checks of the proof rules.

For a pool of candidate interference invariants over the auction: whenever
the gated safety rule certifies a property, the exhaustive oracle at small
network sizes must agree; every counterexample trace must replay. This
pins the safety rule's universal claim at desk scale. The class engine is
also checked against a literal search of the local-bundle relation.
"""

import pytest

import msolv
from msolv.checker import (check_compositional, check_safety, check_spec,
                           global_oracle, replay_trace)
from msolv.localization import (extend_neighbourhood, local_step,
                                saturating_neighbourhood)
from msolv.properties import check_universal, eval_split, parse_spec
from msolv.ptg import build_ptg, taint_summary
from msolv.semantics import DataDomain, enumerate_actions, init_state

D1 = DataDomain(1)

INVARIANT_POOL = [
    "(invariant (lit 0 (= (map 0 0) 0)) (else (>= (map 0 0) 0)))",
    "(invariant (else true))",
    "(invariant (else (= (map 0 0) 0)))",
    "(invariant (else (<= (map 0 0) (data 0))))",
    "(invariant (lit 0 (= (map 0 0) 0)) (role 0 (= (map 0 0) 0)) (else true))",
    "(invariant (lit 1 (= (map 0 0) 0)) (else (<= (map 0 0) 1)))",
    "(invariant (role 0 (= (map 0 0) 0)) (else (= (map 0 0) (map 0 0))))",
    "(invariant (else (=> (> (data 1) 0) (<= (map 0 0) (data 0)))))",
    "(invariant (else (=> (= (data 1) 1) (= (map 0 0) 0))))",  # dies after stop
    "(invariant (else (= (map 0 0) 1)))",                      # dies at the start
]

PROPERTY_POOL = [
    "(property (k 1) (guard-lit 0 slot 0) (xi (= (map 0 0) 0)))",
    "(property (k 0) (xi (>= (data 0) 0)))",
    "(property (k 1) (guard-role 0 slot 0) (xi (= (map 0 0) 0)))",
    "(property (k 0) (xi (= (data 0) 0)))",
    "(property (k 0) (xi (= (data 1) 0)))",  # needs a stop two levels deep
    "(property (k 2) (xi (=> (and (= (map 0 0) 1) (= (map 1 0) 1)) true)))",
]


@pytest.mark.parametrize("inv_src", INVARIANT_POOL)
def test_compositional_counterexamples_replay(auction_plain, inv_src):
    g = build_ptg(taint_summary(auction_plain))
    theta = parse_spec(inv_src, auction_plain.layout).invariant
    v = check_compositional(auction_plain, g, theta, D1)
    assert v.result in ("safe", "cex_invariant")
    if v.trace is not None:
        assert replay_trace(auction_plain, v.trace, D1, theta=theta)


def _assert_agrees_with_the_oracle(bundle, spec, domain):
    """The gated verdict on the spec's one property, or None when the gate
    refuses. Its trace replays, and a Safe is safe in the oracle at 3, 4 and
    5 users."""
    theta, phi = spec.invariant, spec.properties[0]
    v = check_spec(bundle, build_ptg(taint_summary(bundle)), spec, domain).get(phi.name)
    if v is None:
        return None  # not an interference invariant; the gate refuses, correctly
    if v.trace is not None:
        assert replay_trace(bundle, v.trace, domain, theta=theta)
    if v.is_safe:
        for n in (3, 4, 5):
            oracle = global_oracle(bundle, n, phi, domain)
            assert oracle.is_safe, (n, oracle.reason)
    return v


@pytest.mark.parametrize("inv_src", INVARIANT_POOL)
@pytest.mark.parametrize("prop_src", PROPERTY_POOL)
def test_gated_safe_verdicts_agree_with_the_oracle(auction_plain, inv_src, prop_src):
    spec = parse_spec(inv_src + prop_src, auction_plain.layout)
    _assert_agrees_with_the_oracle(auction_plain, spec, D1)


ONE_WRITE = """contract C {
    mapping(address => uint) m;
    constructor() public {}
    function f() public { m[msg.sender] = 1; }
}"""
# Two users other than the guard accounts 0 and 1 can both write 1. The
# neighbourhood is {0, 1} and one explicit representative, so the safety
# rule needs k - |exp| = 1 more address to see the second writer.
TWO_WRITERS = ("(invariant (lit 0 (= (map 0 0) 0)) (lit 1 (= (map 0 0) 0)) (else true))"
               "(property (k 2) (xi (not (and (= (map 0 0) 1) (= (map 1 0) 1)))))")


def test_a_two_user_property_needs_every_safety_representative():
    bundle = msolv.load(ONE_WRITE)
    spec = parse_spec(TWO_WRITERS, bundle.layout)
    v = _assert_agrees_with_the_oracle(bundle, spec, D1)
    assert v.result == "cex_property"
    assert [u.id for u in v.trace.states[0].users] == [0, 1, 2, 3]
    phi = spec.properties[0]
    assert global_oracle(bundle, 3, phi, D1).is_safe
    assert global_oracle(bundle, 4, phi, D1).result == "cex_property"


SET_AND_RESET = """contract C {
    mapping(address => uint) m;
    uint x;
    constructor() public {}
    function f() public { m[msg.sender] = 1; x = 1; }
    function g() public { m[msg.sender] = 0; x = 0; }
}"""
# g resets its sender's cell and x, so it breaks the invariant only for a
# user that is neither a guard account nor the sender: the neighbourhood is
# {0, 1} and one explicit representative, and only the compositionality
# rule's arbitrary user is such a user.
ONE_IS_SET = "(=> (= (map 0 0) 1) (= (data 0) 1))"
NEEDS_ARBITRARY_USER = ("(invariant (lit 0 (= (map 0 0) 0)) (lit 1 (= (map 0 0) 0))"
                        f" (else {ONE_IS_SET})) (property (k 1) (xi {ONE_IS_SET}))")


def test_breaking_the_invariant_needs_the_arbitrary_user():
    bundle = msolv.load(SET_AND_RESET)
    spec = parse_spec(NEEDS_ARBITRARY_USER, bundle.layout)
    assert _assert_agrees_with_the_oracle(bundle, spec, D1) is None
    v = check_compositional(bundle, build_ptg(taint_summary(bundle)), spec.invariant, D1)
    assert v.result == "cex_invariant"
    assert [u.id for u in v.trace.states[0].users] == [0, 1, 2, 3]
    phi = spec.properties[0]
    assert global_oracle(bundle, 3, phi, D1).is_safe
    assert global_oracle(bundle, 4, phi, D1).result == "cex_property"


# ---------------------------------------------------------------- reference

def _reference_search(bundle, ptg, theta, phi, domain):
    """Breadth-first search over single states of ``local_step``, on the
    address set the safety rule uses. Frozen (invariant-violating)
    successors are checked but never expanded; reaching the error state is
    a property violation. Returns ("safe", reachable non-frozen controls)
    or ("cex_property", trace length)."""
    nbhd = saturating_neighbourhood(
        ptg, {r for r, _ in theta.roles} | {r for r, _ in phi.roles},
        {a for a, _ in theta.lits} | {a for a, _ in phi.lits})
    ids = extend_neighbourhood(nbhd, "safety", k=phi.k)
    actions = list(enumerate_actions(bundle, ids, domain))
    s0 = init_state(bundle, ids)
    if check_universal(phi, s0, domain) is not True:
        return "cex_property", 0
    seen = {s0}
    controls = {s0.control}
    frontier = [s0]
    depth = 0
    while frontier:
        depth += 1
        next_frontier = []
        for state in frontier:
            for action in actions:
                for post in local_step(bundle, ids, theta, state, action, domain):
                    if post in seen:
                        continue
                    seen.add(post)
                    if post.is_bottom or check_universal(phi, post, domain) is not True:
                        return "cex_property", depth
                    if all(eval_split(theta, post.control, u, domain) for u in post.users):
                        controls.add(post.control)
                        next_frontier.append(post)
        frontier = next_frontier
    return "safe", controls


def _assert_engine_matches_reference(bundle, theta, phi, domain):
    ptg = build_ptg(taint_summary(bundle))
    v = check_safety(bundle, ptg, theta, phi, domain)
    result, detail = _reference_search(bundle, ptg, theta, phi, domain)
    assert v.result == result
    if v.is_safe:
        assert set(v.invariant) == detail
    else:
        assert len(v.trace) == detail


# Invariants over the relay source (tests/data/relay.msol), each with a
# guarded property; looser ones make the literal search too slow.
RELAY_POOL = [
    ("(invariant (else (= (map 0 sent) 0)))",
     "(property (k 1) (guard-lit 0 slot 0) (xi (= (map 0 credit) 0)))"),
    ("(invariant (else (= (map 0 sent) 0)))",
     "(property (k 1) (guard-role owner slot 0) (xi (= (map 0 sent) 0)))"),
    ("(invariant (role owner (= (map 0 credit) 0)) (else (= (map 0 credit) (map 0 sent))))",
     "(property (k 1) (guard-lit 0 slot 0) (xi (= (map 0 credit) 0)))"),
]
REFERENCE_CASES = (
    [("auction_plain", inv, prop) for inv in INVARIANT_POOL
     for prop in PROPERTY_POOL if "(guard-" in prop]
    + [("relay", inv, prop) for inv, prop in RELAY_POOL])


@pytest.mark.parametrize("source, inv_src, prop_src", REFERENCE_CASES,
                         ids=[f"{prop}-{inv}" for _, inv, prop in REFERENCE_CASES])
def test_engine_agrees_with_reference_search(request, source, inv_src, prop_src):
    bundle = request.getfixturevalue(source)
    spec = parse_spec(inv_src + prop_src, bundle.layout)
    _assert_engine_matches_reference(bundle, spec.invariant, spec.properties[0], D1)


def test_engine_admits_values_wider_than_the_domain():
    # The literal 3 does not fit in one bit, yet the invariant admits it, so
    # the post-state is havocked rather than frozen, and its control counts
    # as reachable.
    bundle = msolv.load("contract C { mapping(address => uint) m; bool done; "
                        "constructor() public {} "
                        "function f() public { m[msg.sender] = 3; done = true; } }")
    spec = parse_spec("(invariant (else (<= (map 0 0) 3)))"
                      "(property (k 1) (xi (<= (map 0 0) 3)))", bundle.layout)
    _assert_engine_matches_reference(bundle, spec.invariant, spec.properties[0], D1)


def _check(source: str, spec_src: str, **kwargs) -> dict:
    bundle = msolv.load(source)
    ptg = build_ptg(taint_summary(bundle))
    return check_spec(bundle, ptg, parse_spec(spec_src, bundle.layout), D1, **kwargs)


def test_engine_rejects_values_wider_than_the_domain():
    # The rejecting twin of the test above: the literal 3 breaks the
    # invariant, so the gate must fail even though 3 lies outside the
    # one-bit domain the allowed sets enumerate.
    verdicts = _check("contract W { mapping(address => uint) m; constructor() public {} "
                      "function f() public { m[msg.sender] = 3; } }",
                      "(invariant (else (< (map 0 m) 2)))(property (k 1) (xi true))")
    assert {k: v.result for k, v in verdicts.items()} == {"compositionality": "cex_invariant"}


def test_interference_successor_survives_a_rejected_vector():
    # After f, the sender's vector (1, 0) is admitted and (1, 1) is not. The
    # rejected one freezes a class, yet the admitted one must still give an
    # interference successor, from which g sets late and breaks the property.
    verdicts = _check("contract C { mapping(address => uint) a; mapping(address => uint) b; "
                      "bool done; bool late; constructor() public {} "
                      "function f() public { a[msg.sender] = 1; done = true; } "
                      "function g() public { require(done); late = true; } }",
                      "(invariant (else (or (= (map 0 a) 0) (= (map 0 b) 0))))"
                      "(property (k 1) (xi (= (data late) 0)))", assume_invariant=True)
    (v,) = verdicts.values()
    assert v.result == "cex_property"
    assert [a.tx for a in v.trace.actions] == ["constructor", "f", "g"]


def test_unread_slots_of_a_trace_take_a_vector_the_invariant_admits():
    # f writes the sender's slot without reading it, so the trace picks the
    # vector it holds before f: (a, b) = (0, 1), which f turns into (1, 1).
    # The first vector of the domain, (0, 0), would become (1, 0), which the
    # invariant rejects, and the trace would not replay under it.
    source = ("contract C { mapping(address => uint) a; mapping(address => uint) b; "
              "bool done; uint stage; constructor() public {} "
              "function f() public { a[msg.sender] = 1; stage = 1; } "
              "function g() public { require(stage == 1); done = true; } }")
    spec_src = ("(invariant (else (=> (= (map 0 a) 1) (= (map 0 b) 1))))"
                "(property (k 0) (xi (= (data done) 0)))")
    bundle = msolv.load(source)
    spec = parse_spec(spec_src, bundle.layout)
    (v,) = _check(source, spec_src, assume_invariant=True).values()
    assert v.result == "cex_property"
    assert [a.tx for a in v.trace.actions] == ["constructor", "f", "g"]
    assert replay_trace(bundle, v.trace, D1, theta=spec.invariant)
