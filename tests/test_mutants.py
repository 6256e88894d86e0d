"""The seeded mutants in ``data/mutants.json`` still name the code they
mutate: ``run_mutants.py`` applies each by replacing its old text, so that
text must occur exactly once in its file."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
MUTANTS = json.loads((Path(__file__).parent / "data" / "mutants.json").read_text())


def test_mutant_names_are_unique():
    names = [m["name"] for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m["name"])
def test_mutant_old_text_occurs_once(mutant):
    assert mutant["old"] != mutant["new"]
    assert (ROOT / mutant["file"]).read_text().count(mutant["old"]) == 1
