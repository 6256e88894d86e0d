import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import msolv.checker
from msolv import lexer
from msolv.checker import Trace, replay_trace
from msolv.cli import main
from msolv.semantics import BOTTOM, Action, BundleState, ControlState, DataDomain, UserRecord

from conftest import DATA

SRC = str(Path(__file__).parents[1] / "src")

AUCTION = str(DATA / "auction.msol")
SPEC = str(DATA / "auction.spec")
BAD = str(DATA / "bad.spec")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_json(capsys):
    code, out, _ = run(capsys, "parse", AUCTION)
    assert code == 0
    payload = json.loads(out)
    assert payload["layout"]["roles"] == ["manager"]
    assert payload["transactions"]["bid"] == {"clients": 1, "args": 1}


def test_parse_dump_ast(capsys):
    code, out, _ = run(capsys, "parse", AUCTION, "--dump-ast")
    assert code == 0
    assert json.loads(out)["kind"] == "SourceUnit"


def test_ptg_json_and_dot(capsys):
    code, out, _ = run(capsys, "ptg", AUCTION)
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"] == {"args": [0], "roles": [0], "lits": [0, 1]}
    code, out, _ = run(capsys, "ptg", AUCTION, "--dot")
    assert code == 0 and out.startswith("digraph")


def test_neighbourhood(capsys):
    code, out, _ = run(capsys, "neighbourhood", AUCTION, SPEC)
    assert code == 0
    payload = json.loads(out)
    assert payload["saturating"]["addresses"] == [0, 1, 2, 3]
    assert payload["compositionality"] == [0, 1, 2, 3, 4]
    assert payload["safety"]["property-1"] == [0, 1, 2, 3]


def test_simulate(capsys, tmp_path):
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps([
        {"tx": "constructor", "clients": [3, 2]},
        {"tx": "bid", "clients": [3], "args": [10]},
    ]))
    code, out, _ = run(capsys, "simulate", AUCTION, "--trace", str(trace))
    assert code == 0
    payload = json.loads(out)
    final = payload["trace"][-1]["state"]
    assert final["control"]["data"][0] == 10
    assert final["users"][3]["maps"] == [10]


def test_check_safe_exit_zero(capsys):
    code, out, _ = run(capsys, "check", AUCTION, SPEC, "--width", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["compositionality"]["result"] == "safe"
    assert payload["property-1"]["result"] == "safe"


def test_check_bad_spec_exit_one(capsys):
    code, out, _ = run(capsys, "check", AUCTION, BAD, "--width", "2")
    assert code == 1
    payload = json.loads(out)
    assert payload["compositionality"]["result"] == "cex_invariant"
    assert payload["compositionality"]["trace"]


@pytest.mark.parametrize("argv", [("check", "--width", "1", "--assume-invariant"),
                                  ("oracle", "--users", "3", "--width", "1")])
def test_a_spec_with_no_property_to_check_is_an_input_error(capsys, argv):
    # bad.spec holds an invariant and no property: with the gate skipped, or
    # in the oracle, there is nothing to check, which is not a safe verdict.
    code, out, err = run(capsys, argv[0], AUCTION, BAD, *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith("msolv: InputError: ") and err.count("\n") == 1


def test_check_assume_invariant_flag(capsys):
    p2 = str(DATA / "p2.spec")
    code, out, _ = run(capsys, "check", AUCTION, p2, "--width", "2")
    assert code == 1  # the headroom invariant fails the gate
    code, out, _ = run(capsys, "check", AUCTION, p2, "--width", "2",
                       "--assume-invariant")
    assert code == 0
    payload = json.loads(out)
    assert "compositionality" not in payload
    assert payload["property-1"]["result"] == "safe"


def test_oracle_exit_zero(capsys):
    code, out, _ = run(capsys, "oracle", AUCTION, SPEC, "--users", "4", "--width", "2")
    assert code == 0
    assert json.loads(out)["property-1"]["result"] == "safe"


def test_check_output_deterministic(capsys):
    def normalized():
        code, out, _ = run(capsys, "check", AUCTION, SPEC, "--width", "2")
        assert code == 0
        payload = json.loads(out)
        for v in payload.values():
            v["stats"]["seconds"] = 0  # wall clock is the only varying field
        return json.dumps(payload)

    assert normalized() == normalized()


def test_report_renderings(capsys):
    code, out, _ = run(capsys, "check", AUCTION, SPEC, "--width", "2",
                       "--format", "text")
    assert code == 0
    assert "compositionality: SAFE" in out and "reachable control states" in out

    code, out, _ = run(capsys, "check", AUCTION, BAD, "--width", "2",
                       "--format", "text")
    assert code == 1
    assert "1." in out and "bid" in out  # numbered trace with tx names

    code, out, _ = run(capsys, "check", AUCTION, SPEC, "--width", "2",
                       "--format", "text", "--budget-states", "1")
    assert code == 2
    assert "EXHAUSTED" in out and "states=" in out


# Every 7-tuple of distinct users is a property instance: 604,800 of them
# over the 10 addresses of the local bundle and of the 10-user oracle.
K7_SPEC = "(invariant (else true)) (property (k 7) (xi (= (map 0 0) (map 0 0))))"


@pytest.mark.parametrize("argv, files", [
    (["check", AUCTION, SPEC, "--width", "18"], {}),
    (["oracle", AUCTION, SPEC, "--users", "3", "--width", "18"], {}),
    (["check", AUCTION, "k7.spec", "--width", "1", "--assume-invariant"],
     {"k7.spec": K7_SPEC}),
    (["oracle", AUCTION, "k7.spec", "--users", "10", "--width", "1"], {"k7.spec": K7_SPEC}),
], ids=["check", "oracle", "check-k7-property", "oracle-k7-property"])
def test_time_budget_bounds_allowed_set_enumeration(capsys, tmp_path, argv, files):
    # At width 18 each user's allowed set has 2^18 candidate vectors; the
    # time budget must stop that enumeration, the initial control's too.
    # So must the listing of the 2^18 actions per bid amount, which alone
    # takes over a second, and the evaluation of a k=7 property on the
    # initial state.
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    t0 = time.monotonic()
    code, out, _ = run(capsys, *argv, "--budget-secs", "0.5")
    wall = time.monotonic() - t0
    (verdict,) = json.loads(out).values()
    assert code == 2
    assert verdict["result"] == "exhausted"
    assert verdict["reason"] == "time budget exceeded"
    assert verdict["stats"]["seconds"] < 1.0
    assert wall < 1.0


def test_usage_error_exit_two(capsys):
    assert main(["check"]) == 2
    assert main(["check", "/nonexistent.msol", SPEC]) == 2


def test_syntax_error_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.msol"
    bad.write_text("contract C { function f() public {} }")  # missing constructor
    code, _, err = run(capsys, "parse", str(bad))
    assert code == 2
    assert "MicroSolSyntaxError" in err


def _run_with_files(capsys, tmp_path, argv, files):
    """Run ``argv`` after writing ``files`` (name -> text, bytes or JSON)."""
    for name, content in files.items():
        if isinstance(content, bytes):
            (tmp_path / name).write_bytes(content)
        else:
            (tmp_path / name).write_text(
                content if isinstance(content, str) else json.dumps(content))
    return run(capsys, *[str(tmp_path / a) if a in files else a for a in argv])


def _simulate(trace, *options):
    return ["simulate", AUCTION, *options, "--trace", "trace.json"], {"trace.json": trace}


def _constructor(expr: str) -> str:
    return f"contract C {{ uint x; constructor() public {{ x = {expr}; }} }}"


def _neighbourhood(number: str):
    spec = f"(invariant (else (= (map 0 0) {number})))"
    return ["neighbourhood", AUCTION, "s.spec"], {"s.spec": spec}


# U+00B2 passes str.isdigit but not int(); CPython converts at most 4,300
# digits; "--5" passed the spec reader's lstrip("-").isdigit() test.
SUPERSCRIPT_TWO, LONG_NUMERAL = "\u00b2", "9" * 5000


@pytest.mark.parametrize("argv, files", [
    (["check", AUCTION, SPEC, "--width", "0"], {}),
    (["oracle", AUCTION, SPEC, "--width", "65"], {}),
    (["oracle", AUCTION, SPEC, "--users", "1"], {}),
    _simulate("not json"),
    _simulate([{"clients": [3], "args": [1]}]),
    _simulate([{"tx": "stop"}]),
    _simulate([{"tx": "constructor", "clients": [3, 2]}, {"tx": "bid", "clients": [3]}]),
    _simulate([{"tx": "bid", "clients": ["3"], "args": [1]}]),
    _simulate([{"tx": "bid", "clients": [3], "args": [4]}], "--width", "2"),
    (["parse", "c.msol"], {"c.msol": _constructor("(" * 150 + "1" + ")" * 150)}),
    (["parse", "c.msol"], {"c.msol": _constructor("+".join(["1"] * 1500))}),
    (["parse", "c.msol"], {"c.msol": b"\xff\xfe"}),
    (["check", AUCTION, "s.spec"], {"s.spec": b"\xff\xfe"}),
    (["check", AUCTION, SPEC, "--width", "2", "--budget-secs", "nan"], {}),
    (["oracle", AUCTION, SPEC, "--width", "2", "--budget-secs", "nan"], {}),
    (["parse", "c.msol"], {"c.msol": _constructor(SUPERSCRIPT_TWO)}),
    (["parse", "c.msol"], {"c.msol": _constructor(LONG_NUMERAL)}),
    _neighbourhood(SUPERSCRIPT_TWO),
    _neighbourhood(LONG_NUMERAL),
    _neighbourhood("--5"),
], ids=["width-0", "width-65", "one-user", "not-json", "no-tx", "too-few-clients",
        "too-few-args", "string-client", "arg-outside-domain", "deep-parens",
        "long-sum", "contract-not-utf8", "spec-not-utf8", "check-nan-budget",
        "oracle-nan-budget", "contract-superscript-digit", "contract-long-numeral",
        "spec-superscript-digit", "spec-long-numeral", "spec-double-minus"])
def test_user_errors_exit_two_with_one_line(capsys, tmp_path, argv, files):
    code, out, err = _run_with_files(capsys, tmp_path, argv, files)
    assert code == 2
    assert out == ""
    assert err.startswith("msolv: ") and err.count("\n") == 1


TWO_GUARDS = "(property (k 1) (guard-lit 0 slot 0) (guard-role manager slot 0) (xi true))"


def test_spec_warning_is_one_line_after_the_spec_parses(capsys, tmp_path):
    argv = ["neighbourhood", AUCTION, "s.spec"]
    code, _, err = _run_with_files(capsys, tmp_path, argv, {"s.spec": TWO_GUARDS})
    assert code == 0
    assert err == ("msolv: warning: property-1: slot 0 carries 2 guards; "
                   "the property is vacuous unless they coincide\n")
    code, _, err = _run_with_files(capsys, tmp_path, argv,
                                   {"s.spec": TWO_GUARDS + " invariant"})
    assert code == 2
    assert err.startswith("msolv: SpecSyntaxError: ") and err.count("\n") == 1


# f calls itself once per value of x, so at width 16 the chain is deeper
# than Python's stack; that is a run out of resources, not over-nested input.
RECURSIVE = "contract C { uint x; constructor() public { } function f() public { x = x + 1; f(); } }"


@pytest.mark.parametrize("argv, files", [
    (["simulate", "c.msol", "--width", "16", "--trace", "t.json"],
     {"c.msol": RECURSIVE, "t.json": [{"tx": "constructor", "clients": [2]},
                                      {"tx": "f", "clients": [2]}]}),
    (["check", "c.msol", "s.spec", "--width", "16"],
     {"c.msol": RECURSIVE, "s.spec": "(invariant (else true)) (property (k 1) (xi true))"}),
], ids=["simulate", "check"])
def test_deep_recursion_exhausts_call_depth(capsys, tmp_path, argv, files):
    code, out, err = _run_with_files(capsys, tmp_path, argv, files)
    assert (code, out) == (2, "")
    assert err == "msolv: ResourceExhausted: call depth exhausted\n"


def test_one_interpreter_call_per_counted_transition(capsys, monkeypatch):
    """Each transition a verdict counts is one oracle step call or one
    class-engine explore leaf, which the traced benchmark relies on. A
    search that settles transitions without the interpreter fails here."""
    calls = {"step": 0, "leaves": 0}
    step, explore = msolv.checker.step, msolv.checker.explore

    def counting_step(*args):
        calls["step"] += 1
        return step(*args)

    def counting_explore(*args):
        leaves = explore(*args)
        calls["leaves"] += len(leaves)
        return leaves

    monkeypatch.setattr(msolv.checker, "step", counting_step)
    monkeypatch.setattr(msolv.checker, "explore", counting_explore)

    def transitions(out):
        return sum(v["stats"]["transitions"] for v in json.loads(out).values())

    code, out, _ = run(capsys, "oracle", AUCTION, SPEC, "--users", "4", "--width", "2")
    assert code == 0 and calls["step"] == transitions(out) > 0
    code, out, _ = run(capsys, "check", AUCTION, SPEC, "--width", "2")
    assert code == 0 and calls["leaves"] == transitions(out) > 0


def test_check_runs_the_gate_once(capsys, monkeypatch):
    """``check`` runs the compositionality rule once for all of a spec's
    properties, and not at all with ``--assume-invariant``."""
    calls = []
    gate = msolv.checker.check_compositional

    def counting_gate(*args, **kwargs):
        calls.append(args)
        return gate(*args, **kwargs)

    monkeypatch.setattr(msolv.checker, "check_compositional", counting_gate)
    argv = ["check", str(DATA / "relay.msol"), str(DATA / "relay.spec"), "--width", "1"]
    code, out, _ = run(capsys, *argv)
    assert list(json.loads(out)) == ["compositionality", "property-1", "property-2"]
    assert (code, len(calls)) == (1, 1)
    code, out, _ = run(capsys, *argv, "--assume-invariant")
    assert list(json.loads(out)) == ["property-1", "property-2"]
    assert (code, len(calls)) == (1, 1)


def _trace_from_json(entries) -> Trace:
    def state(e):
        c = e["control"]
        control = BOTTOM if c == "bottom" else ControlState(
            tuple(c["roles"]), tuple(c["data"]), c["ctor_done"])
        return BundleState(control, tuple(UserRecord(u["id"], tuple(u["maps"]))
                                          for u in e["users"]))

    return Trace(tuple(state(e["state"]) for e in entries),
                 tuple(Action(e["action"]["tx"], tuple(e["action"]["clients"]),
                              tuple(e["action"]["args"])) for e in entries[1:]))


def test_simulate_trace_replays(capsys, tmp_path, auction):
    """A simulate trace, read back, replays under the global semantics, up
    to and including a step into the error state, where it ends."""
    actions = [{"tx": "constructor", "clients": [3, 2]},
               {"tx": "bid", "clients": [3], "args": [10]},
               {"tx": "bid", "clients": [4], "args": [12]},
               {"tx": "withdraw", "clients": [3]},
               {"tx": "bid", "clients": [4], "args": [5]},   # reverts
               {"tx": "stop", "clients": [2]},
               {"tx": "bid", "clients": [7], "args": [1]},   # no user 7: error
               {"tx": "stop", "clients": [2]}]
    code, out, _ = _run_with_files(capsys, tmp_path, *_simulate(actions, "--users", "5"))
    trace = _trace_from_json(json.loads(out)["trace"])
    assert code == 0 and len(trace) == 7 and trace.states[-1].is_bottom
    assert trace.states[4] == trace.states[5]
    assert replay_trace(auction, trace, DataDomain(8))


def _python(*args):
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_import_builds_no_dataclasses():
    """Importing the CLI generates no per-class code: neither dataclasses
    nor the inspect module it pulls in gets loaded."""
    proc = _python("-c", "import msolv.cli, sys; "
                         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_python_m_msolv_runs_the_cli(capsys):
    proc = _python("-m", "msolv", "parse", AUCTION)
    code, out, err = run(capsys, "parse", AUCTION)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err) == (0, out, "")


# Token streams over the lexer's vocabulary, plus a few names and numerals,
# reach the parser; short expressions in a constructor reach the validator.
VOCABULARY = sorted(lexer.KEYWORDS) + list(lexer._TWO_CHAR) + list(lexer._ONE_CHAR) + [
    "C", "x", "f", "0", "7", "//"]
EXPRESSION = ["x", "y", "0", "1", "true", "this", "msg", ".", "sender", "address",
              "(", ")", "[", "]", "+", "==", "!", "&&"]


def _streams(vocabulary, max_size):
    return st.lists(st.sampled_from(vocabulary), max_size=max_size).map(" ".join)


@pytest.fixture(scope="module")
def source_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "c.msol"


@settings(max_examples=200, deadline=None)
@given(st.one_of(_streams(VOCABULARY, 40), _streams(EXPRESSION, 8).map(_constructor)))
def test_parse_token_streams_never_traceback(source_file, source):
    """Any token stream parses, or exits 2 with one ``msolv:`` line."""
    source_file.write_text(source)
    _exits_cleanly(["parse", str(source_file)])


def _exits_cleanly(argv, verdicts=(0,)) -> int:
    """Run ``msolv`` and require one of the ``verdicts`` exit codes with
    nothing on stderr, or exit 2 with exactly one ``msolv:`` line; either
    way ``msolv: warning: `` lines may come first."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines(keepends=True)
    while lines and lines[0].startswith("msolv: warning: "):
        lines.pop(0)
    errors = "".join(lines)
    if code in verdicts:
        assert errors == ""
    else:
        assert code == 2 and out.getvalue() == "", (code, errors)
        assert errors.startswith("msolv: ") and errors.count("\n") == 1
    return code


# Specs from the spec grammar over auction's names, where any subterm may
# instead be a random s-expression: a list in operator position, a numeral
# in an odd place, an unbalanced parenthesis.
SPEC_ATOMS = ["invariant", "property", "k", "xi", "lit", "role", "else", "guard-lit",
              "guard-role", "slot", "map", "data", "and", "or", "not", "=>", "=", "!=",
              "<", ">", "<=", ">=", "+", "-", "*", "/", "true", "false", "leadingBid",
              "manager", "bids", "stopped", "_sum", "0", "1", "2", "3", "007", "-1",
              "99999999999999999999", "x", ";", ")", "("]


def _sexpr(*parts) -> str:
    return "(" + " ".join(parts) + ")"


_noise = st.recursive(st.sampled_from(SPEC_ATOMS),
                      lambda inner: st.lists(inner, max_size=4).map(lambda xs: _sexpr(*xs)),
                      max_leaves=8)
_numerals = st.sampled_from(["0", "1", "2", "3", "007"])
_slots = st.sampled_from(["0", "0", "1"])


def _specs(noise):
    """Spec texts from the grammar; ``noise`` may stand for any subterm."""
    nums = st.deferred(lambda: st.one_of(
        _numerals, noise,
        st.builds(_sexpr, st.just("data"), st.sampled_from(["leadingBid", "_sum", "2"])),
        st.builds(_sexpr, st.just("map"), _slots, st.sampled_from(["bids", "0"])),
        st.builds(_sexpr, st.sampled_from(["+", "-", "*", "/"]), nums, nums)))
    preds = st.deferred(lambda: st.one_of(
        st.sampled_from(["true", "false"]), noise,
        st.builds(_sexpr, st.sampled_from(["=", "!=", "<", ">", "<=", ">="]), nums, nums),
        st.builds(_sexpr, st.sampled_from(["and", "or", "=>"]), preds, preds),
        st.builds(_sexpr, st.just("not"), preds)))
    invariant = st.tuples(st.lists(st.one_of(
        st.builds(_sexpr, st.just("lit"), _numerals, preds),
        st.builds(_sexpr, st.just("role"), st.sampled_from(["manager", "0"]), preds),
        noise), max_size=2), st.builds(_sexpr, st.just("else"), preds)).map(
        lambda items: _sexpr("invariant", *items[0], items[1]))
    prop = st.tuples(
        st.builds(_sexpr, st.just("k"), st.sampled_from(["1", "1", "2", "0"])),
        st.lists(st.one_of(
            st.builds(_sexpr, st.just("guard-lit"), _numerals, st.just("slot"), _slots),
            st.builds(_sexpr, st.just("guard-role"), st.just("manager"), st.just("slot"),
                      _slots), noise), max_size=2),
        st.builds(_sexpr, st.just("xi"), preds)).map(
        lambda p: _sexpr("property", p[0], *p[1], p[2]))
    return st.tuples(st.one_of(st.just(""), invariant),
                     st.lists(st.one_of(prop, noise), min_size=1, max_size=2)).map(
        lambda forms: "\n".join([forms[0], *forms[1]]))


@settings(max_examples=150, deadline=None)
@given(st.one_of(_specs(st.nothing()), _specs(_noise)))
def test_spec_sexpressions_never_traceback(source_file, spec):
    """Any spec gives a neighbourhood and then a width-1 verdict, safe (0) or
    a counterexample (1), or exits 2 with one ``msolv:`` line."""
    spec_file = source_file.with_name("s.spec")
    spec_file.write_text(spec)
    if _exits_cleanly(["neighbourhood", AUCTION, str(spec_file)]) == 0:
        _exits_cleanly(["check", AUCTION, str(spec_file), "--width", "1",
                        "--budget-secs", "2"], verdicts=(0, 1))


_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 6), st.sampled_from(
        ["constructor", "bid", "withdraw", "stop", "nope", "", 1.5, 2 ** 70])),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.sampled_from(["tx", "clients", "args", "x"]),
                                            inner, max_size=3)),
    max_leaves=12)
# Mostly the declared shapes, with absent users, out-of-domain arguments
# and the odd wrong count.
_entries = st.sampled_from([("constructor", 2, 0), ("bid", 1, 1), ("bid", 1, 1),
                            ("withdraw", 1, 0), ("stop", 1, 0), ("constructor", 2, 0),
                            ("bid", 1, 1), ("withdraw", 1, 0), ("bid", 1, 0),
                            ("nope", 1, 0)]).flatmap(
    lambda shape: st.fixed_dictionaries({
        "tx": st.just(shape[0]),
        "clients": st.lists(st.sampled_from([2, 3, 2, 3, 0, 1, 2, 3, 4, -1]),
                            min_size=shape[1], max_size=shape[1]),
        "args": st.lists(st.sampled_from([3, 1, 2, 0, 3, 1, 2, 0, 4, -1]),
                         min_size=shape[2], max_size=shape[2])}))


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.lists(_entries, max_size=5), _json_values).map(json.dumps)
       | st.text(alphabet='[]{}",:0123456789 txargs', max_size=30))
def test_simulate_traces_never_traceback(source_file, trace):
    """Any trace file simulates, or exits 2 with one ``msolv:`` line."""
    trace_file = source_file.with_name("trace.json")
    trace_file.write_text(trace)
    _exits_cleanly(["simulate", AUCTION, "--trace", str(trace_file), "--users", "4",
                    "--width", "2"])
