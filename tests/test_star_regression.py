"""The regression theorem at the parent counts the library accepts.

On a star (linear regression) whose parent block is rank deficient, the MLE
given any stabilisation ``f + f'`` is the minimum-norm MLE given ``f``, and
so is the limit along ``f + eps f'``.  Acceptance criterion 5 checks this at
up to 4 parents; here the stars have 8, 12, 16 and 24 parents, each draw
with its own seed, sample rank and row count, and every hub weight vector
must match ``star_min_norm_mle`` to ``RTOL`` relative.
"""

import numpy as np
import pytest

from dagstab import (
    build_from_lift, full_mle, limit_mle, limit_mle_numeric, random_lift, stabilize,
    star_min_norm_mle,
)
from _helpers import star_instance

PARENTS = (8, 12, 16, 24)
DRAWS = 4
RTOL = 1e-8
CASES = [(p, k) for p in PARENTS for k in range(DRAWS)]


def draw(p: int, k: int):
    """Draw ``k`` of a ``p``-parent star: ``m + 0..2`` rows, parent rank in
    ``1..p-1``, an existing MLE, and a perturbation from a random lift."""
    rng = np.random.default_rng([7, p, k])
    m = p + 1
    f, g = star_instance(rng, m, m + int(rng.integers(0, 3)), int(rng.integers(1, p)))
    return f, build_from_lift(random_lift(f, int(rng.integers(2**32)))), g


def assert_min_norm_hub(est, f, g):
    want = star_min_norm_mle(f, g).lambda_vector(g, g.m)
    err = np.linalg.norm(est.lambda_vector(g, g.m) - want)
    assert err <= RTOL * np.linalg.norm(want)


def ids(cases):
    return [f"p{p}-draw{k}" for p, k in cases]


def marked(cases, xfails):
    """``cases`` as parameters, with the strict xfail of ``xfails[case]`` where given."""
    return [pytest.param(*c, marks=xfails[c]) if c in xfails else c for c in cases]


@pytest.mark.parametrize("p, k", CASES, ids=ids(CASES))
def test_stabilised_mle_is_the_minimum_norm_mle(p, k):
    f, pert, g = draw(p, k)
    assert_min_norm_hub(full_mle(stabilize(None, pert), g), f, g)


NUMERIC_XFAILS = {
    (24, 1): pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="parent rank 1: the sums at eps <= 1e-4 lose the kernel directions to "
        "roundoff, and the extrapolation misses by 3.8e-8 (its own estimate: 4.7e-9)",
    ),
}


@pytest.mark.parametrize("p, k", marked(CASES, NUMERIC_XFAILS), ids=ids(CASES))
def test_numeric_limit_is_the_minimum_norm_mle(p, k):
    f, pert, g = draw(p, k)
    lim = limit_mle_numeric(None, pert, g)
    assert not lim.diverged
    assert_min_norm_hub(lim, f, g)


RAISES = pytest.mark.xfail(
    strict=True, raises=ValueError,
    reason="ROADMAP item 1: the pencil expansion loses every digit on a deep kernel, "
    "and limit_mle raises 'fails the normal equations'",
)
ANALYTIC_XFAILS = {
    **{c: RAISES for c in [(8, 2), (12, 0), (12, 3), (16, 0), (16, 1), (16, 2)]},
    **{(24, k): RAISES for k in range(DRAWS)},
    (12, 1): pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 1: the pencil expansion loses digits; limit_mle returns "
        "hub weights 2.2e-8 off",
    ),
}


@pytest.mark.parametrize("p, k", marked(CASES, ANALYTIC_XFAILS), ids=ids(CASES))
def test_analytic_limit_is_the_minimum_norm_mle(p, k):
    f, pert, g = draw(p, k)
    assert_min_norm_hub(limit_mle(None, pert, g), f, g)
