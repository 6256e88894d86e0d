"""Run the test suite against each seeded mutant of the proof rules.

Each mutant in ``tests/data/mutants.json`` replaces one text in one source
file. For each, this copies the repository's ``src``, ``tests``,
``perfbench`` and ``pyproject.toml`` to a temporary directory, applies the
mutant there, runs the suite and prints the tests that fail. A mutant that
no test catches is reported as surviving, and the exit status is then 1.
The checkout itself is never changed. A full suite run takes about 30 s per
mutant.

    python tests/run_mutants.py              # every mutant
    python tests/run_mutants.py M4-admits-wide-literals PT2-touched-records-no-reads
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = ROOT / "tests" / "data" / "mutants.json"
COPIED = ("src", "tests", "perfbench", "pyproject.toml")


def _copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis", "out")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=skip)
        else:
            shutil.copy2(src, dest / name)


def _apply(root: Path, mutant: dict) -> None:
    path = root / mutant["file"]
    text = path.read_text()
    if text.count(mutant["old"]) != 1:
        raise SystemExit(f"{mutant['name']}: its old text does not occur exactly once "
                         f"in {mutant['file']}")
    path.write_text(text.replace(mutant["old"], mutant["new"]))


def failing_tests(mutant: dict) -> list[str]:
    """The ids of the tests that fail or error with ``mutant`` applied."""
    with tempfile.TemporaryDirectory(prefix="msolv-mutant-") as tmp:
        root = Path(tmp)
        _copy_tree(root)
        _apply(root, mutant)
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(root / "src")}
        proc = subprocess.run(
            # test_mutants.py checks the unmutated texts, so it fails on every mutant
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             "--ignore", "tests/test_mutants.py"],
            cwd=root, env=env, capture_output=True, text=True)
    # pytest's summary lines read "FAILED <test id> - <message>"
    failed = [line.split(" ", 1)[1].split(" - ")[0] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    # Any other exit code means the run stopped early, so the list is short.
    if proc.returncode not in (0, 1):
        raise SystemExit(f"{mutant['name']}: pytest exited {proc.returncode}\n"
                         + proc.stdout[-2000:] + proc.stderr[-2000:])
    return failed


def main(argv: list[str]) -> int:
    mutants = json.loads(MUTANTS.read_text())
    unknown = set(argv) - {m["name"] for m in mutants}
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(sorted(unknown))}")
    survived = False
    for mutant in mutants:
        if argv and mutant["name"] not in argv:
            continue
        failed = failing_tests(mutant)
        print(f"{mutant['name']} ({mutant['what']}): "
              + (f"caught by {len(failed)}" if failed else "SURVIVES"), flush=True)
        for test in failed:
            print(f"    {test}", flush=True)
        survived = survived or not failed
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
