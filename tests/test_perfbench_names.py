"""The msolv names the perfbench harness relies on, and the output of its
participation workload.

``perfbench`` wraps msolv functions by module and name and calls the
package API directly, so a rename in ``src/`` would otherwise surface only
when the benchmark runs. This loads the harness modules as they are and
checks that every such name still exists, and that the participation job
prints what ``perfbench/expected/`` holds.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

import msolv
import msolv.cli

PERFBENCH = Path(__file__).parent.parent / "perfbench"

# Package attributes that perfbench/run.py and perfbench/job.py call.
PACKAGE_NAMES = ("load", "BOTTOM", "ControlState", "BundleState", "UserRecord",
                 "Action", "Trace", "parse_spec", "replay_trace", "DataDomain",
                 "build_ptg", "taint_summary", "enumerate_actions", "semantic_pt",
                 "coverage_violations")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_are_callable():
    layers = (*_load("tracer").LAYERS, *_load("job").CHECKER_LAYER)
    missing = [f"msolv.{module}.{func}" for module, func in layers
               if not callable(getattr(importlib.import_module(f"msolv.{module}"),
                                       func, None))]
    assert not missing


@pytest.mark.parametrize("name", PACKAGE_NAMES)
def test_package_name_exists(name):
    assert hasattr(msolv, name)


def test_cli_main_is_callable():
    assert callable(msolv.cli.main)


def test_participation_job_matches_expected(capsys):
    # semantic_pt on all 55 auction actions at N=5, width 2, compared in the
    # compact form perfbench/run.py compares.
    assert _load("job")._participation(0) == 0
    rows = json.loads(capsys.readouterr().out)
    want = (PERFBENCH / "expected" / "participation-n5-w2.json").read_text()
    assert json.dumps(rows, separators=(",", ":")) + "\n" == want
