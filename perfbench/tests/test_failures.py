"""Failure accounting of ``run.check_failures``: exactly the known-failing
inputs fail, in every round, in ``limit_mle`` alone; every round repeats.

    python3 -m pytest perfbench/tests -q
"""

import sys
from argparse import Namespace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
from inputs import Case  # noqa: E402

CASES = [Case("ok", 2, (), np.zeros((2, 2))), Case("bad", 2, (), np.zeros((2, 2)), known_failure=True)]
FAILURE = ["limit_mle: ValueError: limit estimate fails the normal equations"]


def ops(rounds, errors=None, digest=None):
    """Ops of ``rounds`` rounds over CASES; ``errors`` and ``digest`` map
    (round, idx) to an override."""
    out = []
    for r in range(rounds):
        for idx, case in enumerate(CASES):
            out.append({
                "idx": idx, "label": case.label,
                "errors": (errors or {}).get((r, idx), FAILURE if case.known_failure else []),
                "digest": (digest or {}).get((r, idx), f"d{idx}"),
            })
    return {"ops": out}


def problems(run_, workload="limit"):
    return run.check_failures(Namespace(workload=workload), run_, CASES)


def test_known_failures_every_round_pass():
    assert problems(ops(3)) == []


def test_unexpected_failure_is_a_problem():
    assert any("not a known failure" in p for p in problems(ops(3, errors={(1, 0): ["full_mle: boom"]})))


def test_known_failure_that_passes_once_is_a_problem():
    assert any("known failure" in p for p in problems(ops(3, errors={(2, 1): []})))


def test_known_failure_in_another_stage_is_a_problem():
    assert problems(ops(2, errors={(0, 1): ["random_lift: boom"]}))


def test_differing_rounds_are_a_problem():
    assert any("differs between rounds" in p for p in problems(ops(2, digest={(1, 1): "other"})))


def test_estimate_and_cli_allow_no_failure():
    for workload in ("estimate", "cli"):
        assert any("not a known failure" in p for p in problems(ops(1), workload))
