"""``classify`` against exact ranks on small integer samples.

The paper's definition, in exact rational arithmetic: the MLE does not exist
at the first vertex whose column lies in the span of its parent columns
(``rank [P | y] = rank P``), and otherwise is not unique at the first vertex
whose parent-and-self submatrix is rank deficient (``rank [P | y] < p + 1``).
Samples have entries in ``-3..3`` and up to 6 vertices; duplicated and
summed columns make every status occur.  An exact power of two changes no
rank, so a scaled sample keeps the unscaled sample's answer.
"""

import numpy as np
import pytest

from dagstab import EXISTS_NON_UNIQUE, EXISTS_UNIQUE, NONEXISTENT, classify
from _helpers import fraction_rank, random_dag

DRAWS = 300
MAX_EXPONENT = 40


def _exact_classify(Y: np.ndarray, g):
    ranks = []
    for i in range(1, g.m + 1):
        cols = [j - 1 for j in g.parents(i)]
        ranks.append((len(cols), fraction_rank(Y[:, cols].tolist()) if cols else 0,
                      fraction_rank(Y[:, cols + [i - 1]].tolist())))
    for i, (_, parent, joint) in enumerate(ranks, start=1):
        if joint == parent:
            return NONEXISTENT, i
    for i, (p, _, joint) in enumerate(ranks, start=1):
        if joint < p + 1:
            return EXISTS_NON_UNIQUE, i
    return EXISTS_UNIQUE, None


def _draw(rng):
    """An integer sample and a DAG in which some columns are copies of, or
    sums of, others: mostly two parents of one vertex."""
    m = int(rng.integers(2, 7))
    n = int(rng.integers(max(1, m - 1), m + 3))
    g = random_dag(rng, m, edge_prob=0.6)
    Y = rng.integers(-3, 4, size=(n, m)).astype(float)
    for _ in range(int(rng.integers(0, 3))):
        parents = g.parents(int(rng.integers(1, m + 1)))
        pool = parents if len(parents) > 1 else np.arange(1, m + 1)
        c, a = rng.choice(pool, size=2, replace=False) - 1
        b = int(rng.integers(m))
        Y[:, c] = Y[:, a] + (Y[:, b] if b != c and rng.random() < 0.5 else 0.0)
    return Y, g


def _draws():
    rng = np.random.default_rng(20260416)
    out = []
    for _ in range(DRAWS):
        Y, g = _draw(rng)
        exponents = rng.integers(-MAX_EXPONENT, MAX_EXPONENT + 1, g.m)
        out.append((Y, g, _exact_classify(Y, g), exponents))
    return out


DRAWN = _draws()


def _mismatches(scaled_columns):
    """Draws on which ``classify`` of the sample, with the columns that
    ``scaled_columns(g)`` names multiplied by their drawn power of two,
    differs from the exact answer."""
    bad = []
    for k, (Y, g, want, exponents) in enumerate(DRAWN):
        cols = scaled_columns(g)
        A = Y.copy()
        A[:, cols] = np.ldexp(Y[:, cols], exponents[cols])
        got = classify(A, g)
        if (got.status, got.witness) != want:
            bad.append((k, (got.status, got.witness), want))
    return bad


def _every_column(g):
    return np.arange(g.m)


def _no_parent_columns(g):
    return np.array([i - 1 for i in range(1, g.m + 1) if not g.children(i)])


def test_draws_cover_every_status():
    seen = {want[0] for _, _, want, _ in DRAWN}
    assert seen == {NONEXISTENT, EXISTS_NON_UNIQUE, EXISTS_UNIQUE}


def test_matches_exact_ranks():
    assert _mismatches(lambda g: np.arange(0)) == []


def test_matches_exact_ranks_with_scaled_child_columns():
    # a column no vertex has as a parent enters only its own residual test
    assert _mismatches(_no_parent_columns) == []


@pytest.mark.xfail(strict=True, reason=(
    "the rank cut keeps singular values above tol * sigma_max of the parent "
    "submatrix as given, so a parent column more than about 2^33 times "
    "smaller than another drops out of the span (ROADMAP open item 4)"))
def test_matches_exact_ranks_with_every_column_scaled():
    assert _mismatches(_every_column) == []
