"""The msolv names the perfbench harness relies on.

``perfbench`` wraps msolv functions by module and name and calls the
package API directly, so a rename in ``src/`` would otherwise surface only
when the benchmark runs. This loads the harness modules as they are and
checks that every such name still exists.
"""

from __future__ import annotations

import importlib
import importlib.util
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
