"""Golden verdicts: the CLI output on the auction corpus, pinned byte for byte.

Each case runs ``msolv.cli.main`` in-process and must reproduce the recorded
exit code, stderr and verdict JSON (key order included; ``null`` when a
spec does not bind and nothing is printed). Only ``stats.seconds`` is
dropped, as the one field that varies between runs.

Regenerate ``tests/data/verdicts.json`` with ``python tests/test_verdicts.py``
(from the repository root, with ``src`` on ``PYTHONPATH``) only when a
verdict is meant to change, and say why in the change log.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
from pathlib import Path

import pytest

from msolv.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "verdicts.json"


def _cases() -> list[list[str]]:
    cases = []
    for contract in ("auction", "auction_plain"):
        for spec in ("auction", "bad", "p2", "p2_weak"):
            for width in ("1", "2", "3"):
                for flags in ([], ["--assume-invariant"]):
                    cases.append(["check", f"{contract}.msol", f"{spec}.spec",
                                  "--width", width, *flags])
    for width in ("1", "2", "3"):
        cases.append(["oracle", "auction.msol", "auction.spec", "--users", "4",
                      "--width", width])
    return cases


def _run(argv: list[str]) -> dict:
    """Run one case; file arguments are names under ``tests/data``."""
    full = [str(DATA / a) if a.endswith((".msol", ".spec")) else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(full)
    payload = json.loads(out.getvalue()) if out.getvalue() else None
    for verdict in (payload or {}).values():
        del verdict["stats"]["seconds"]
    return {"argv": argv, "exit": code, "stderr": err.getvalue(), "stdout": payload}


@functools.cache
def _golden() -> dict[tuple[str, ...], dict]:
    return {tuple(c["argv"]): c for c in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("argv", _cases(), ids="-".join)
def test_golden_verdict(argv):
    expected = _golden()[tuple(argv)]
    got = _run(argv)
    assert got["exit"] == expected["exit"]
    assert got["stderr"] == expected["stderr"]
    assert json.dumps(got["stdout"]) == json.dumps(expected["stdout"])


def test_golden_file_covers_every_case():
    assert list(_golden()) == [tuple(argv) for argv in _cases()]


if __name__ == "__main__":
    lines = (json.dumps(_run(argv), separators=(",", ":")) for argv in _cases())
    GOLDEN.write_text("[\n" + ",\n".join(lines) + "\n]\n")  # one case per line
