import json
import time

import pytest

import msolv.checker
from msolv.cli import main

from conftest import DATA

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
