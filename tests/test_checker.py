import msolv.checker
from msolv.checker import (_LocalEngine, check_compositional, check_safety, check_spec,
                           global_oracle, replay_trace, verdict_to_json)
from msolv.localization import rule_neighbourhood
from msolv.properties import eval_split, parse_spec
from msolv.semantics import DataDomain, enumerate_actions, init_state, step

D2 = DataDomain(2)


# ---------------------------------------------------------------- Thm 2 rule

def test_theta1_is_interference_invariant(auction, auction_ptg, auction_spec):
    v = check_compositional(auction, auction_ptg, auction_spec.invariant, D2)
    assert v.is_safe
    assert v.invariant  # the reachable-control inductive invariant
    assert v.stats.states > 0


def test_all_bids_zero_fails_fast(auction, auction_ptg, bad_spec):
    v = check_compositional(auction, auction_ptg, bad_spec.invariant, D2)
    assert v.result == "cex_invariant"
    assert len(v.trace) <= 3
    assert v.trace.actions[-1].tx == "bid"
    assert replay_trace(auction, v.trace, D2, theta=bad_spec.invariant)
    # The final state genuinely violates the invariant for some user.
    final = v.trace.states[-1]
    assert any(not eval_split(bad_spec.invariant, final.control, u, D2)
               for u in final.users)


def test_weak_theta_is_compositional(auction, auction_ptg, p2_weak_spec):
    v = check_compositional(auction, auction_ptg, p2_weak_spec.invariant, D2)
    assert v.is_safe


def test_invariant_violated_by_initial_state(auction, auction_ptg):
    theta = parse_spec("(invariant (else (= (map 0 0) 1)))", auction.layout).invariant
    v = check_compositional(auction, auction_ptg, theta, D2)
    assert v.result == "cex_invariant"
    assert len(v.trace) == 0  # the zero-initialized state itself violates it
    assert "initial" in v.reason
    # Safety mode keeps exploring from the unhavocable initial state and
    # still terminates with a sound verdict.
    phi = parse_spec("(property (k 0) (xi (= (data 1) 0)))", auction.layout).properties[0]
    vs = check_safety(auction, auction_ptg, theta, phi, D2)
    assert vs.result in ("safe", "cex_property")


def test_theta_u_is_not_an_interference_invariant(auction, auction_ptg, p2_spec):
    # The headroom invariant holds on every globally reachable state but is
    # not closed under interference: havoc can plant two small bids whose
    # joint withdrawal shrinks the sum below the other's clause.
    v = check_compositional(auction, auction_ptg, p2_spec.invariant, D2)
    assert v.result == "cex_invariant"
    assert replay_trace(auction, v.trace, D2, theta=p2_spec.invariant)


# ---------------------------------------------------------------- Thm 3 rule

def test_phi1_safe(auction, auction_ptg, auction_spec):
    vs = check_spec(auction, auction_ptg, auction_spec, D2)
    assert list(vs) == ["compositionality", "property-1"]
    assert all(v.is_safe for v in vs.values())


def test_gate_withholds_the_safety_rule(auction, auction_ptg, p2_spec):
    vs = check_spec(auction, auction_ptg, p2_spec, D2)
    assert list(vs) == ["compositionality"]
    assert vs["compositionality"].result == "cex_invariant"


def test_p2_safe_without_gate(auction, auction_ptg, p2_spec):
    v = check_safety(auction, auction_ptg, p2_spec.invariant,
                     p2_spec.properties[0], D2)
    assert v.is_safe
    vs = check_spec(auction, auction_ptg, p2_spec, D2, assume_invariant=True)
    assert {name: w.result for name, w in vs.items()} == {"property-1": "safe"}


def test_weak_theta_p2_spurious_counterexample(auction, auction_ptg, p2_weak_spec):
    v = check_safety(auction, auction_ptg, p2_weak_spec.invariant,
                     p2_weak_spec.properties[0], D2)
    assert v.result == "cex_property"
    assert [a.tx for a in v.trace.actions[-2:]] == ["bid", "withdraw"]
    # Withdraw removed less than was bid: the interference shrank the bid.
    bid_amount = v.trace.actions[-2].args[0]
    sender = v.trace.actions[-1].clients[0]
    pre_withdraw = v.trace.states[-2]
    withdrawn = next(u.map_vals[0] for u in pre_withdraw.users if u.id == sender)
    assert withdrawn < bid_amount
    assert replay_trace(auction, v.trace, D2, theta=p2_weak_spec.invariant)


def test_false_property_one_action_trace(auction, auction_ptg, auction_spec):
    spec = parse_spec("(property (k 1) (xi (= (map 0 0) 0)))", auction.layout)
    v = check_safety(auction, auction_ptg, auction_spec.invariant,
                     spec.properties[0], D2)
    assert v.result == "cex_property"
    assert len(v.trace) == 1
    assert any(u.map_vals[0] != 0 for u in v.trace.states[-1].users)
    assert replay_trace(auction, v.trace, D2, theta=auction_spec.invariant)


def test_assert_failure_reaches_cex_property(auction_ptg, w8):
    import msolv
    b = msolv.load("contract C { constructor() public {} "
                   "function f(uint a) public { assert(a < 2); } }")
    from msolv.ptg import build_ptg, taint_summary
    g = build_ptg(taint_summary(b))
    theta = parse_spec("(invariant (else true))", b.layout).invariant
    phi = parse_spec("(property (k 0) (xi true))", b.layout).properties[0]
    v = check_safety(b, g, theta, phi, w8)
    assert v.result == "cex_property"
    assert v.trace.states[-1].is_bottom
    assert replay_trace(b, v.trace, w8, theta=theta)


# ---------------------------------------------------------------- oracle

def test_oracle_phi1_safe(auction, auction_spec):
    v = global_oracle(auction, 4, auction_spec.properties[0], D2)
    assert v.is_safe


def test_oracle_false_property(auction, auction_spec):
    spec = parse_spec("(property (k 0) (xi (= (data 0) 0)))", auction.layout)
    v = global_oracle(auction, 4, spec.properties[0], D2)
    assert v.result == "cex_property"
    assert v.trace.actions[-1].tx == "bid"
    assert replay_trace(auction, v.trace, D2)  # deterministic replay


def test_oracle_p1_bids_immutable_after_stop(auction):
    # Once stopped, no action changes any user's bid: walk the whole
    # reachable graph at N=5, w=2 and compare user vectors across steps.
    d = DataDomain(2)
    actions = list(enumerate_actions(auction, range(5), d))
    seen = set()
    frontier = [init_state(auction, range(5))]
    seen.update(frontier)
    violations = 0
    while frontier:
        nxt = []
        for s in frontier:
            for a in actions:
                post = step(auction, s, a, d)
                if not post.is_bottom and s.control.data[1] == 1:
                    if any(u.map_vals != v.map_vals
                           for u, v in zip(s.users, post.users)):
                        violations += 1
                if not post.is_bottom and post not in seen:
                    seen.add(post)
                    nxt.append(post)
        frontier = nxt
    assert violations == 0


# ---------------------------------------------------------------- engineering

def test_budget_exhaustion(auction, auction_ptg, auction_spec):
    v = check_compositional(auction, auction_ptg, auction_spec.invariant, D2,
                            budget_states=2)
    assert v.result == "exhausted"
    assert "budget" in v.reason


def test_state_budget_is_checked_per_class(auction, auction_ptg, auction_spec):
    # A whole BFS level can hold many classes; the budget must stop the
    # search inside the level, at the first class over it.
    v = check_compositional(auction, auction_ptg, auction_spec.invariant,
                            DataDomain(3), budget_states=60)
    assert v.result == "exhausted"
    assert v.stats.states <= 60 + 1


def test_state_budget_is_checked_where_a_class_is_recorded(auction, auction_ptg, auction_spec):
    # At the default width one expansion of the initial class records
    # hundreds of classes; the budget must stop it at the first one over.
    v = check_compositional(auction, auction_ptg, auction_spec.invariant,
                            DataDomain(), budget_states=10)
    assert v.result == "exhausted"
    assert v.stats.states <= 11


def test_verdict_json_schema(auction, auction_ptg, auction_spec, bad_spec):
    safe = check_compositional(auction, auction_ptg, auction_spec.invariant, D2)
    j = verdict_to_json(safe)
    assert j["result"] == "safe"
    assert isinstance(j["invariant"], list) and j["invariant"]
    assert set(j["stats"]) == {"states", "transitions", "seconds"}

    cex = check_compositional(auction, auction_ptg, bad_spec.invariant, D2)
    j = verdict_to_json(cex)
    assert j["result"] == "cex_invariant"
    assert j["trace"][0].keys() == {"state"}
    assert set(j["trace"][1].keys()) == {"action", "state"}


def test_safe_invariant_contains_reachable_controls(auction, auction_ptg, auction_spec):
    v = check_compositional(auction, auction_ptg, auction_spec.invariant, D2)
    controls = set(v.invariant)
    # The all-zero initial control and some constructed control must appear.
    assert any(c.ctor_done == 0 for c in controls)
    assert any(c.ctor_done == 1 and c.roles == (2,) for c in controls)


def test_allowed_sets_are_computed_once_per_binding(auction, auction_ptg, auction_spec,
                                                    monkeypatch):
    calls = []
    real = msolv.checker.allowed_vectors

    def counting_allowed_vectors(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(msolv.checker, "allowed_vectors", counting_allowed_vectors)
    check_spec(auction, auction_ptg, auction_spec, D2)
    # Two bindings, the zero account's and the default, at every control:
    # one call per user would make 649.
    assert len(calls) == 284
    theta = auction_spec.invariant
    _, ids = rule_neighbourhood(auction_ptg, theta)
    engine = _LocalEngine(auction, theta, ids, D2, 10, 10.0)
    control = init_state(auction, ids).control
    vectors, sets = engine._allowed_at(control)
    a, b = [s for s, uid in enumerate(ids)
            if theta.binding(control, uid) == (theta.else_pred,)][:2]
    assert vectors[a] is vectors[b] and sets[a] is sets[b]
