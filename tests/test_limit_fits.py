"""The span conditions on perturbations tilted into the image of the sample.

The conditions must project exactly ``fbar + vbar`` and ``fbar + v`` onto
the span of ``A + E``.  On a perturbation tilted into ``im f`` by less than
``tol`` the shortcut ``proj_{A+E}(b + v)`` is no longer the same vector,
and the decisions near the cut change.
"""

import numpy as np
import pytest

from dagstab import (
    check_full_condition,
    check_lambda_condition,
    image_basis,
    is_perturbation,
)
from _helpers import random_perturbation
from test_limits_grouped import (
    CASES,
    _case,
    _reference_full_condition,
    _reference_lambda_condition,
)


def tilted_draws(label, seed, m, rank, indegree, edge_prob, layout, draws=16):
    """The case's DAG with its sample's columns scaled over 1e-3..1e3, a
    perturbation lifted from the scaled sample and that perturbation tilted
    into the sample's image by 1e-14..1e-10 relative.  ``(I + t Q W) f'``
    with ``Q`` a basis of ``im f`` keeps the kernel and the rank of ``f'``,
    so only column orthogonality moves; draws the predicate rejects are
    left out."""
    f, _, g = _case(seed, m, rank, indegree, edge_prob, layout)
    rng = np.random.default_rng([seed, 77])
    out = []
    for k in range(draws):
        fs = f * 10.0 ** rng.uniform(-3.0, 3.0, size=m)
        fp = random_perturbation(fs, seed=1000 * seed + k)
        Q = image_basis(fs)
        W = rng.standard_normal((Q.shape[1], fs.shape[0]))
        t = 10.0 ** rng.uniform(-14.0, -10.0) / np.linalg.norm(W, 2)
        tilted = fp + t * (Q @ (W @ fp))
        if is_perturbation(fs, tilted):
            out.append(pytest.param(fs, tilted, g, id=f"{label}-{k}"))
    return out


TILTED = [draw for c in CASES for draw in tilted_draws(*c)]


class TestTiltedPerturbations:
    def test_most_draws_are_perturbations(self):
        assert len(TILTED) >= 8 * len(CASES)

    @pytest.mark.parametrize("f,fp,g", TILTED)
    def test_condition_dicts_match_the_per_vertex_reference(self, f, fp, g):
        assert check_lambda_condition(f, fp, g) == _reference_lambda_condition(f, fp, g)
        assert check_full_condition(f, fp, g) == _reference_full_condition(f, fp, g)
