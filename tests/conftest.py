"""Property tests draw the same examples on every run: the hypothesis
profile is derandomised, keeps no example database and has no deadline.
The ``perfbench_inputs`` fixture imports the benchmark's input module."""

import importlib
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def perfbench_inputs(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return importlib.import_module("inputs")
