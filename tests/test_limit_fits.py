"""The span conditions on perturbations tilted into the image of the sample.

The conditions are exact statements about ``span(A + E)``: ``fbar + vbar``
lies in it exactly when ``T_E (x_E - x_A)`` lies in the span of ``T_E N``,
``N`` spanning ``ker A``, since the columns of ``f`` are orthogonal to those
of ``f'``.  Neither side changes when ``f'`` alone is rescaled, which only
reparametrises ``eps`` along ``f + eps f'``.  On a perturbation tilted into
``im f`` by less than ``tol`` the decisions near the cut are the ones most
likely to move, so they are compared with the per-vertex projection
reference, evaluated at ``s f'``, ``s`` the power of two that brings the
largest column norm of ``f'`` to that of ``f``.  The reference's zero test
adds that column norm to its scale, which then swamps a target built from a
much smaller ``f`` (``mixed-tiny``, whose largest ``f'`` column is 4e8 to
5e9 times that of ``f``); the exact conditions do not see ``s``.
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


def _matched_scale(f, fp):
    """``fp`` times the power of two that brings its largest column norm to
    the binade of that of ``f``; a zero ``fp`` as it is."""
    nf, nd = (np.frexp(np.linalg.norm(M, axis=0).max())[1] for M in (f, fp))
    return np.ldexp(fp, nf - nd)


TILTED = [draw for c in CASES for draw in tilted_draws(*c)]


class TestTiltedPerturbations:
    def test_most_draws_are_perturbations(self):
        assert len(TILTED) >= 8 * len(CASES)

    @pytest.mark.parametrize("f,fp,g", TILTED)
    def test_condition_dicts_match_the_per_vertex_reference(self, f, fp, g):
        matched = _matched_scale(f, fp)
        assert check_lambda_condition(f, fp, g) == _reference_lambda_condition(f, matched, g)
        assert check_full_condition(f, fp, g) == _reference_full_condition(f, matched, g)
