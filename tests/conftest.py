"""Property tests draw the same examples on every run: the hypothesis
profile is derandomised, keeps no example database and has no deadline.
The ``perfbench_inputs`` fixture imports the benchmark's input module.

Hypothesis imports its failure-patch module, and with it libcst, only when
a property test fails; a ``DeprecationWarning`` raised by that import would
become an error under ``filterwarnings = ["error"]`` and abort the whole
session.  It is imported here once, with that warning ignored, so a failing
property test is reported as one failure."""

import importlib
import warnings
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@pytest.fixture
def perfbench_inputs(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return importlib.import_module("inputs")
