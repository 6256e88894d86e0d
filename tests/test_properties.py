import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msolv.cli import main
from msolv.errors import SpecBindingError, SpecSyntaxError
from msolv.properties import (check_universal, eval_guarded, eval_split,
                              parse_predicate, parse_spec)
from msolv.semantics import (BundleState, ControlState, DataDomain,
                             UserRecord)

from conftest import DATA

THETA1 = "(invariant (lit 0 (= (map 0 0) 0)) (else (>= (map 0 0) 0)))"
PHI1 = "(property (k 1) (guard-lit 0 slot 0) (xi (= (map 0 0) 0)))"
D8 = DataDomain(8)


def user(uid, bidval):
    return UserRecord(uid, (bidval,))


def control(lb=0, stopped=0, total=0, mgr=2):
    return ControlState((mgr,), (lb, stopped, total), 1)


# ---------------------------------------------------------------- parsing

def test_parse_theta1_structure():
    spec = parse_spec(THETA1)
    theta = spec.invariant
    assert [a for a, _ in theta.lits] == [0]
    assert theta.roles == ()
    assert spec.has_invariant


def test_parse_phi1_structure():
    spec = parse_spec(PHI1)
    (phi,) = spec.properties
    assert phi.k == 1
    assert phi.lits == {(0, 0)}
    assert phi.roles == frozenset()


def test_parse_empty_invariant_unconstrained():
    theta = parse_spec("(invariant (else true))").invariant
    assert theta.lits == () and theta.roles == ()
    assert eval_split(theta, control(), user(5, 7), D8)


def test_missing_invariant_defaults_to_trivial():
    spec = parse_spec(PHI1)
    assert not spec.has_invariant
    assert eval_split(spec.invariant, control(), user(0, 9), D8)


def test_names_bind_through_layout(auction):
    spec = parse_spec("(invariant (role manager (= (map 0 bids) 0)) "
                      "(else (<= (map 0 0) (data leadingBid))))", auction.layout)
    assert spec.invariant.roles[0][0] == 0


def _else(expr: str) -> str:
    return f"(invariant (else {expr}))"


# One input per message parse_spec gives with a layout.
@pytest.mark.parametrize("text,err,message", [
    ("(invariant (else (map 0 0)))", SpecSyntaxError,            # not boolean
     "predicate must be boolean: (map 0 0)"),
    ("(invariant (else (= (map 0 0) 0)))(invariant (else true))", SpecSyntaxError,
     "a spec file may hold at most one invariant"),
    ("(property (k 1) (xi true) (xi true))", SpecSyntaxError,
     "property has two (xi ...) forms"),
    ("(property (xi true))", SpecSyntaxError,                     # missing (k N)
     "property must start with (k INT)"),
    ("(widget 1)", SpecSyntaxError, "unknown top-level form 'widget'"),
    ("(property (k 1) (guard-lit 0 slot 3) (xi true))", SpecBindingError,
     "guard slot 3 out of range for k=1"),
    ("(property (k 0) (xi (= (map 0 0) 0)))", SpecBindingError,     # slot in k=0
     "predicate uses slot 0 but only 0 user slot(s) are bound"),
    ("(invariant (else (= (data nosuch) 0)))", SpecBindingError,
     "unknown data name 'nosuch'"),
    # reading
    ("(invariant (else true)))", SpecSyntaxError, "unbalanced ')'"),
    ("(invariant (else true)", SpecSyntaxError, "unbalanced '('"),
    (_else("(= (map 0 0) " + "9" * 5000 + ")"), SpecSyntaxError,
     "numeral of 5000 digits is too long"),
    # names and indices
    (_else("(= (data 7) 0)"), SpecBindingError, "data index 7 out of range"),
    (_else("(= (map 0 3) 0)"), SpecBindingError, "map index 3 out of range"),
    ("(invariant (role 4 true) (else true))", SpecBindingError, "role index 4 out of range"),
    (_else("(= (map 0 nosuch) 0)"), SpecBindingError, "unknown map name 'nosuch'"),
    ("(invariant (role nosuch true) (else true))", SpecBindingError,
     "unknown role name 'nosuch'"),
    # expressions
    (_else("foo"), SpecSyntaxError, "bad expression foo"),
    (_else("()"), SpecSyntaxError, "bad expression ()"),
    (_else("(= (data) 0)"), SpecSyntaxError, "(data INDEX)"),
    (_else("(= (map 0) 0)"), SpecSyntaxError, "(map SLOT INDEX)"),
    (_else("(= (map x 0) 0)"), SpecSyntaxError, "(map SLOT INDEX)"),
    (_else("(= (map -1 0) 0)"), SpecSyntaxError, "map slot must be non-negative"),
    (_else("(= (+ 1) 0)"), SpecSyntaxError, "(+ ...) needs at least two operands"),
    (_else("(= (/ 1) 0)"), SpecSyntaxError, "(/ ...) needs at least two operands"),
    (_else("(= (/ 1 2 3) 0)"), SpecSyntaxError, "(/ A B) is binary"),
    (_else("(= (/ 1 2 true) 0)"), SpecSyntaxError,  # operands compile first
     "expected a numeric expression: true"),
    (_else("(= 1)"), SpecSyntaxError, "(= A B) is binary"),
    (_else("(< true 1 2)"), SpecSyntaxError, "(< A B) is binary"),
    (_else("(and)"), SpecSyntaxError, "(and) needs operands"),
    (_else("(or)"), SpecSyntaxError, "(or) needs operands"),
    (_else("(and true 1)"), SpecSyntaxError, "expected a boolean expression: 1"),
    (_else("(not true true)"), SpecSyntaxError, "(not A) is unary"),
    (_else("(=> true)"), SpecSyntaxError, "(=> A B) is binary"),
    (_else("(xor true true)"), SpecSyntaxError, "unknown operator 'xor'"),
    (_else("((x) 1)"), SpecSyntaxError, "bad operator (x)"),
    ("(property (k 1) (xi (= (map 1 0) 0)))", SpecBindingError,
     "predicate uses slot 1 but only 1 user slot(s) are bound"),
    # forms
    ("7", SpecSyntaxError, "expected (property ...) or (invariant ...)"),
    ("(property (k -1) (xi true))", SpecSyntaxError, "(k INT) with INT >= 0"),
    ("(property (k 1) 5 (xi true))", SpecSyntaxError, "bad property item 5"),
    ("(property (k 1) (guard-lit 0 0) (xi true))", SpecSyntaxError,
     "(guard-lit X slot INT)"),
    ("(property (k 1) (guard-role 0 place 0) (xi true))", SpecSyntaxError,
     "(guard-role X slot INT)"),
    ("(property (k 0) (guard-lit 0 slot 0) (xi true))", SpecBindingError,
     "guard slot 0 out of range for k=0"),
    ("(property (k 1) (guard-lit -2 slot 0) (xi true))", SpecSyntaxError,
     "literal guards take a non-negative address"),
    ("(property (k 1) (guard-role nosuch slot 0) (xi true))", SpecBindingError,
     "unknown role name 'nosuch'"),
    ("(property (k 1) (xi))", SpecSyntaxError, "(xi EXPR)"),
    ("(property (k 1) (widget) (xi true))", SpecSyntaxError,
     "unknown property item 'widget'"),
    ("(property (k 1))", SpecSyntaxError, "property needs an (xi EXPR)"),
    ("(invariant 5 (else true))", SpecSyntaxError, "bad invariant item 5"),
    ("(invariant (lit 0) (else true))", SpecSyntaxError, "(lit ADDRESS EXPR)"),
    ("(invariant (role 0) (else true))", SpecSyntaxError, "(role INDEX EXPR)"),
    ("(invariant (else))", SpecSyntaxError, "(else EXPR)"),
    ("(invariant (else true) (else true))", SpecSyntaxError,
     "invariant has two (else ...) forms"),
    ("(invariant (widget) (else true))", SpecSyntaxError, "unknown invariant item 'widget'"),
    ("(invariant)", SpecSyntaxError, "invariant needs an (else EXPR)"),
    # a list where a name belongs is shown in the spec's own syntax
    ("(invariant ((x) 1) (else true))", SpecSyntaxError, "unknown invariant item (x)"),
    ("((x) 1)", SpecSyntaxError, "unknown top-level form (x)"),
    ("(property (k 1) ((x)) (xi true))", SpecSyntaxError, "unknown property item (x)"),
    ("(invariant (role (0) true) (else true))", SpecBindingError, "unknown role name (0)"),
    ("(invariant (else true)) (property (k 1) (guard-role (r) slot 0) (xi true))",
     SpecBindingError, "unknown role name (r)"),
])
def test_spec_errors(text, err, message, auction):
    with pytest.raises(err) as exc:
        parse_spec(text, auction.layout)
    assert str(exc.value) == message


def test_list_in_operator_position_is_one_error_line(capsys, tmp_path):
    # A list in operator position is a spec error like any other.
    spec = tmp_path / "s.spec"
    spec.write_text(_else("((x) 1)"))
    assert main(["neighbourhood", str(DATA / "auction.msol"), str(spec)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "msolv: SpecSyntaxError: bad operator (x)\n"


@pytest.mark.parametrize("text,message", [
    (_else("(= (data nosuch) 0)"), "cannot bind data name 'nosuch' without a layout"),
    (_else("(= (map 0 nosuch) 0)"), "cannot bind map name 'nosuch' without a layout"),
    ("(invariant (role nosuch true) (else true))",
     "cannot bind role name 'nosuch' without a layout"),
])
def test_spec_names_need_a_layout(text, message):
    with pytest.raises(SpecBindingError) as exc:
        parse_spec(text)
    assert str(exc.value) == message


def test_predicate_text_is_one_expression():
    with pytest.raises(SpecSyntaxError) as exc:
        parse_predicate("true false")
    assert str(exc.value) == "expected exactly one expression"


def test_conflicting_guards_warn():
    spec = parse_spec("(property (k 2) (guard-lit 0 slot 0) (guard-lit 3 slot 0) "
                      "(guard-lit 4 slot 1) (xi true))")
    assert spec.warnings == ["property-1: slot 0 carries 2 guards; the property "
                             "is vacuous unless they coincide"]
    assert parse_spec("(property (k 1) (guard-lit 0 slot 0) (xi true))").warnings == []


def test_predicate_arithmetic_wraps():
    p = parse_predicate("(= (+ (data 0) 1) 0)")
    c = ControlState((), (7,), 1)
    assert p.evaluate(c, (), DataDomain(3))
    assert not p.evaluate(c, (), DataDomain(4))


def test_predicate_division_by_zero_is_zero():
    p = parse_predicate("(= (/ 5 (data 0)) 0)")
    assert p.evaluate(ControlState((), (0,), 1), (), D8)


# ---------------------------------------------------------------- eval_guarded

def test_eval_guarded_phi1_examples():
    (phi,) = parse_spec(PHI1).properties
    c = control()
    assert eval_guarded(phi, c, (user(0, 0),), D8) is True
    assert eval_guarded(phi, c, (user(0, 5),), D8) is False
    assert eval_guarded(phi, c, (user(3, 5),), D8) is True  # guard unbound


def test_eval_guarded_role_guard():
    (phi,) = parse_spec(
        "(property (k 1) (guard-role 0 slot 0) (xi (= (map 0 0) 0)))").properties
    c = control(mgr=2)
    assert eval_guarded(phi, c, (user(2, 1),), D8) is False
    assert eval_guarded(phi, c, (user(3, 1),), D8) is True


# ---------------------------------------------------------------- check_universal

def _state(bids, mgr=2, lb=0, total=0):
    users = tuple(user(i, b) for i, b in enumerate(bids))
    return BundleState(control(lb=lb, total=total, mgr=mgr), users)


def test_check_universal_phi1():
    (phi,) = parse_spec(PHI1).properties
    assert check_universal(phi, _state([0, 0, 0, 0]), D8) is True
    assert check_universal(phi, _state([7, 0, 0, 0]), D8) == (0,)


def test_check_universal_k0_control_only():
    (phi,) = parse_spec("(property (k 0) (xi (= (data 0) 0)))").properties
    assert check_universal(phi, _state([0, 0]), D8) is True
    assert check_universal(phi, _state([0, 0], lb=3), D8) == ()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 7), min_size=2, max_size=5), st.integers(0, 4))
def test_check_universal_matches_expansion(bids, mgr):
    # Independent quantifier expansion for a k=2 property mixing both guards.
    (phi,) = parse_spec(
        "(property (k 2) (guard-role 0 slot 0) (guard-lit 0 slot 1) "
        "(xi (= (map 0 0) (map 1 0))))").properties
    state = _state(bids, mgr=mgr)
    expected = True
    for combo in itertools.permutations(range(len(bids)), 2):
        us = tuple(state.users[i] for i in combo)
        holds = True
        if us[0].id == state.control.roles[0] and us[1].id == 0:
            holds = us[0].map_vals[0] == us[1].map_vals[0]
        if not holds:
            expected = combo
            break
    assert check_universal(phi, state, D8) == expected


# ---------------------------------------------------------------- eval_split

def test_eval_split_theta1_examples():
    theta = parse_spec(THETA1).invariant
    assert eval_split(theta, control(), user(0, 0), D8) is True
    assert eval_split(theta, control(), user(0, 3), D8) is False
    assert eval_split(theta, control(), user(3, 9), D8) is True


def test_eval_split_theta_u_hand_evaluated(auction, p2_spec):
    # Control: leadingBid=8, _sum=14. A bid of 4 satisfies both clauses
    # (4 <= 8 and 4 <= 14-8); a bid of 9 breaks the bound clause.
    theta = p2_spec.invariant
    c = control(lb=8, total=14)
    assert eval_split(theta, c, user(4, 4), D8) is True
    assert eval_split(theta, c, user(4, 9), D8) is False


def test_eval_split_role_guard_dispatch():
    theta = parse_spec("(invariant (role 0 (= (map 0 0) 0)) "
                       "(else (> (map 0 0) 0)))").invariant
    c = control(mgr=2)
    assert eval_split(theta, c, user(2, 0), D8) is True
    assert eval_split(theta, c, user(2, 1), D8) is False
    assert eval_split(theta, c, user(3, 1), D8) is True
    assert eval_split(theta, c, user(3, 0), D8) is False


def test_split_is_per_user_decomposable():
    theta = parse_spec(THETA1).invariant
    rng = random.Random(11)
    for _ in range(100):
        users = tuple(user(i, rng.randrange(8)) for i in range(4))
        st_ = BundleState(control(), users)
        whole = all(eval_split(theta, st_.control, u, D8) for u in st_.users)
        each = [eval_split(theta, st_.control, u, D8) for u in st_.users]
        assert whole == all(each)


# ---------------------------------------------------------------- obliviousness

@settings(max_examples=200, deadline=None)
@given(st.permutations(list(range(5))), st.lists(st.integers(0, 7), min_size=5, max_size=5))
def test_address_obliviousness(perm, bids):
    # k-address-similar tuples (equal map vectors, different ids) evaluate
    # identically under any predicate core.
    pred = parse_predicate("(=> (< (map 0 0) 4) (= (map 1 0) (map 1 0)))", slots=2)
    c = control(lb=3)
    u1 = (user(0, bids[0]), user(1, bids[1]))
    u2 = (user(perm[0], bids[0]), user(perm[1], bids[1]))
    assert pred.evaluate(c, u1, D8) == pred.evaluate(c, u2, D8)
