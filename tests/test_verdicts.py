"""Golden CLI output on the corpus, pinned byte for byte, and the
cross-checks on its two-contract and relay sources.

Two golden files, each a list of cases run through ``msolv.cli.main``
in-process, with the recorded exit code, stderr and stdout:

* ``verdicts.json``: ``check`` and ``oracle`` runs on the auction,
  two-contract and relay sources. Stdout is the verdict
  JSON (key order included; ``null`` when a spec does not bind and nothing
  is printed) with ``stats.seconds`` dropped, as the one field that varies
  between runs.
* ``static_stages.json``: ``parse --dump-ast``, ``ptg``, ``ptg --dot`` and
  ``neighbourhood`` runs, whose stdout is kept as the exact text.

Regenerate both with ``python tests/test_verdicts.py`` (from the repository
root, with ``src`` on ``PYTHONPATH``) only when an output is meant to
change, and say why in the change log.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
from pathlib import Path

import pytest

import msolv
from msolv.checker import check_compositional, check_safety, global_oracle, replay_trace
from msolv.cli import main
from msolv.properties import parse_spec
from msolv.ptg import (build_ptg, coverage_violations, semantic_pt, semantic_pt_naive,
                       taint_summary)
from msolv.semantics import DataDomain, enumerate_actions

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "verdicts.json"
STATIC_GOLDEN = DATA / "static_stages.json"
CONTRACTS = ("auction", "auction_plain")
SPECS = ("auction", "bad", "p2", "p2_weak")


def _cases() -> list[list[str]]:
    cases = []
    for contract in CONTRACTS:
        for spec in SPECS:
            for width in ("1", "2", "3"):
                for flags in ([], ["--assume-invariant"]):
                    cases.append(["check", f"{contract}.msol", f"{spec}.spec",
                                  "--width", width, *flags])
    for width in ("1", "2", "3"):
        cases.append(["oracle", "auction.msol", "auction.spec", "--users", "4",
                      "--width", width])
    cases.append(["check", "two_contracts.msol", "two_contracts.spec", "--width", "1"])
    cases.append(["oracle", "two_contracts.msol", "two_contracts.spec", "--users", "4",
                  "--width", "1"])
    for width in ("1", "2"):
        cases.append(["check", "relay.msol", "relay.spec", "--width", width])
    cases.append(["oracle", "relay.msol", "relay.spec", "--users", "4", "--width", "1"])
    # Verdict paths the runs above never render: the error state in a local
    # trace, the oracle's state budget, and a property that fails on the
    # initial state, in both searches.
    cases.append(["check", "relay.msol", "relay.spec", "--width", "2", "--assume-invariant"])
    cases.append(["oracle", "relay.msol", "relay.spec", "--users", "4", "--width", "2"])
    cases.append(["oracle", "auction.msol", "auction.spec", "--users", "4", "--width", "3",
                  "--budget-states", "50"])
    cases.append(["check", "auction.msol", "init_false.spec", "--width", "1",
                  "--assume-invariant"])
    cases.append(["oracle", "auction.msol", "init_false.spec", "--users", "3", "--width", "1"])
    return cases


def _static_cases() -> list[list[str]]:
    cases = []
    for contract in CONTRACTS:
        source = f"{contract}.msol"
        cases.append(["parse", source, "--dump-ast"])
        cases.append(["ptg", source])
        cases.append(["ptg", source, "--dot"])
        cases.extend(["neighbourhood", source, f"{spec}.spec"] for spec in SPECS)
    for name in ("two_contracts", "relay"):
        source = f"{name}.msol"
        cases.append(["ptg", source])
        cases.append(["ptg", source, "--dot"])
        cases.append(["neighbourhood", source, f"{name}.spec"])
    return cases


def _capture(argv: list[str]) -> tuple[int, str, str]:
    """Run one case; file arguments are names under ``tests/data``."""
    full = [str(DATA / a) if a.endswith((".msol", ".spec")) else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(full)
    return code, out.getvalue(), err.getvalue()


def _run(argv: list[str]) -> dict:
    code, out, err = _capture(argv)
    payload = json.loads(out) if out else None
    for verdict in (payload or {}).values():
        del verdict["stats"]["seconds"]
    return {"argv": argv, "exit": code, "stderr": err, "stdout": payload}


def _run_static(argv: list[str]) -> dict:
    code, out, err = _capture(argv)
    return {"argv": argv, "exit": code, "stderr": err, "stdout": out}


@functools.cache
def _golden(path: Path) -> dict[tuple[str, ...], dict]:
    return {tuple(c["argv"]): c for c in json.loads(path.read_text())}


@pytest.mark.parametrize("argv", _cases(), ids="-".join)
def test_golden_verdict(argv):
    expected = _golden(GOLDEN)[tuple(argv)]
    got = _run(argv)
    assert got["exit"] == expected["exit"]
    assert got["stderr"] == expected["stderr"]
    assert json.dumps(got["stdout"]) == json.dumps(expected["stdout"])


@pytest.mark.parametrize("argv", _static_cases(), ids="-".join)
def test_golden_static_stage(argv):
    assert _run_static(argv) == _golden(STATIC_GOLDEN)[tuple(argv)]


def test_golden_file_covers_every_case():
    assert list(_golden(GOLDEN)) == [tuple(argv) for argv in _cases()]
    assert list(_golden(STATIC_GOLDEN)) == [tuple(argv) for argv in _static_cases()]


# ------------------------------------------------ the two-contract and relay sources
#
# two_contracts: B runs with A's account as msg.sender both when A creates
# it and when A calls it, so go() from A's owner writes A's own cell in B's
# map.
#
# relay: an address local, an internal call with an address argument, `if`,
# `&&`, `||`, `*`, `return`, a bounded `while`, an `assert` that a two-bit
# domain breaks, and map cells read after a write in the same transaction.

W1, W2 = DataDomain(1), DataDomain(2)
SOURCES = ("two_contracts", "relay")


@functools.cache
def _source(name: str):
    bundle = msolv.load((DATA / f"{name}.msol").read_text())
    spec = parse_spec((DATA / f"{name}.spec").read_text(), bundle.layout)
    return bundle, spec, build_ptg(taint_summary(bundle))


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("name", SOURCES)
def test_corpus_ptg_covers_semantics(name, n):
    bundle, _, ptg = _source(name)
    for act in enumerate_actions(bundle, range(n), W1):
        assert coverage_violations(ptg, semantic_pt(bundle, n, act, W1)) == [], act


@pytest.mark.parametrize("name", SOURCES)
def test_corpus_semantic_pt_matches_naive(name):
    bundle, _, _ = _source(name)
    for act in enumerate_actions(bundle, range(3), W1):
        assert semantic_pt(bundle, 3, act, W1) == semantic_pt_naive(bundle, 3, act, W1), act


def test_two_contracts_counterexamples_replay():
    bundle, spec, ptg = _source("two_contracts")
    v = check_compositional(bundle, ptg, spec.invariant, W1)
    assert v.result == "cex_invariant"
    assert replay_trace(bundle, v.trace, W1, theta=spec.invariant)
    v = global_oracle(bundle, 4, spec.properties[0], W1)
    assert v.result == "cex_property"
    assert replay_trace(bundle, v.trace, W1)


def test_relay_counterexamples_replay():
    bundle, spec, ptg = _source("relay")
    one_holder = spec.properties[1]
    v = check_safety(bundle, ptg, spec.invariant, one_holder, W1)
    assert v.result == "cex_property"
    assert replay_trace(bundle, v.trace, W1, theta=spec.invariant)
    v = check_compositional(bundle, ptg, spec.invariant, W2)
    assert v.result == "cex_invariant"
    assert replay_trace(bundle, v.trace, W2, theta=spec.invariant)
    v = global_oracle(bundle, 3, spec.properties[0], W2)  # spin(2) fails its assert
    assert (v.result, v.reason) == ("cex_property", "error state reachable")
    assert replay_trace(bundle, v.trace, W2)


def _record(path: Path, run, cases: list[list[str]]) -> None:
    lines = (json.dumps(run(argv), separators=(",", ":")) for argv in cases)
    path.write_text("[\n" + ",\n".join(lines) + "\n]\n")  # one case per line


if __name__ == "__main__":
    _record(GOLDEN, _run, _cases())
    _record(STATIC_GOLDEN, _run_static, _static_cases())
