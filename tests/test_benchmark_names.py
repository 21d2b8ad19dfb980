"""The names the benchmark harness (``perfbench/``) reads from chiprank.

The tracer in ``perfbench/spans.py`` wraps functions and methods by name,
and ``perfbench/run.py`` imports a list of modules and reads the backend
flags on every run; a missing name fails there, in a traced run, but in no
other test.  The tables are imported from the harness, not copied.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402
import spans  # noqa: E402

from chiprank import _backend, rank  # noqa: E402
from chiprank.graphs import MultiGraph  # noqa: E402
from chiprank.series import TruncatedSeries  # noqa: E402

BINDINGS = sorted({(mod, attr) for _, mod, attr in spans.FUNCTIONS + spans.GENERATORS})
METHODS = ([(MultiGraph, attr) for _, attr in spans.GRAPH_METHODS]
           + [(TruncatedSeries, attr) for _, attr in spans.SERIES_METHODS])


@pytest.mark.parametrize("module", run.MODULES)
def test_the_modules_run_imports_exist(module):
    importlib.import_module("chiprank." + module)


@pytest.mark.parametrize("mod, attr", BINDINGS, ids=[".".join(b) for b in BINDINGS])
def test_every_traced_function_exists(mod, attr):
    assert callable(getattr(importlib.import_module("chiprank." + mod), attr))


@pytest.mark.parametrize("cls, attr", METHODS,
                         ids=[f"{cls.__name__}.{attr}" for cls, attr in METHODS])
def test_every_traced_method_is_the_class_own(cls, attr):
    # the tracer reads cls.__dict__[attr]: an inherited method is a KeyError
    assert attr in cls.__dict__


def test_the_flags_and_counters_the_harness_reads():
    assert _backend.COMPILED is False
    # the tracer counts the rank engine's effectiveness calls at this binding
    assert callable(rank.is_effective_class)
    # perfbench's genfun oracle test corrupts an output with +
    assert "__add__" in TruncatedSeries.__dict__
