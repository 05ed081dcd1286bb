"""Both span conditions against the exact referee of ``_exact.py``.

The inputs are integer perturbations on stars and on pairs of colliders,
with up to 12 parents and sample ranks that leave the parent columns a
kernel.  The referee decides each condition from its definition in rational
arithmetic; ``check_lambda_condition`` and ``check_full_condition`` must give
its maps with ``f'`` as built and with ``f'`` scaled by ``2^40`` and
``2^-40``, which only reparametrises ``eps`` along ``f + eps f'``.  The
edge-weight condition holds at a child exactly when the MLE given
``f + eps f'`` does not move with ``eps`` there.
"""

import numpy as np
import pytest

from dagstab import (
    Dag, check_full_condition, check_lambda_condition, full_mle, is_perturbation,
    mle_at_epsilon, star,
)
from _exact import exact_conditions, integer_perturbation
from _helpers import fraction_rank


def colliders(p: int) -> Dag:
    """Vertex ``p + 1`` with the ``p`` sources as parents, and vertex
    ``p + 2`` with every second source and vertex ``p + 1``."""
    edges = [(j, p + 1) for j in range(1, p + 1)] + [(j, p + 2) for j in range(1, p + 1, 2)]
    return Dag(p + 2, edges + [(p + 1, p + 2)])


def _draws() -> dict:
    rng = np.random.default_rng(2026)
    out = {}
    for p in (2, 4, 6, 8, 10, 12):
        for shape, g in (("star", star(p + 1)), ("colliders", colliders(p))):
            for r in sorted({1, p // 2, p - 1}):
                out[f"{shape}-p{p}-r{r}"] = (*integer_perturbation(rng, g.m + 2, g.m, r), g)
    return out


DRAWS = _draws()


@pytest.fixture(scope="module")
def exact() -> dict:
    return {label: exact_conditions(*draw) for label, draw in DRAWS.items()}


@pytest.mark.parametrize("label", DRAWS)
def test_the_construction_is_an_exact_perturbation(label):
    f, fp, g = DRAWS[label]
    assert not (f.T @ fp).any() and not (fp @ f.T).any()
    assert fraction_rank(fp.tolist()) == g.m - fraction_rank(f.tolist())
    assert is_perturbation(f, fp)


def test_the_draws_have_kernels_and_both_outcomes(exact):
    for f, _, g in DRAWS.values():
        assert any(full_mle(f, g).lambda_kernel_dims.values())
    for k in (0, 1):
        seen = [ok for maps in exact.values() for ok in maps[k].values()]
        assert True in seen and False in seen


@pytest.mark.parametrize("exponent", [0, 40, -40])
@pytest.mark.parametrize("label", DRAWS)
def test_condition_maps_are_the_exact_ones(exact, label, exponent):
    f, fp, g = DRAWS[label]
    lam, full = exact[label]
    scaled = np.ldexp(fp.astype(float), exponent)
    assert check_lambda_condition(f, scaled, g) == lam
    assert check_full_condition(f, scaled, g) == full


@pytest.mark.parametrize("label", DRAWS)
def test_epsilon_independent_exactly_where_the_weights_stay(exact, label):
    # the paper's statement: the weights at child i are the same for every eps
    # exactly when the edge-weight condition holds at i.  A weight that stays
    # moves by roundoff only, about 1e-11 of max(1, |weight|) on these draws,
    # and one that moves, by at least 1e-2; 1e-8 lies between the two
    f, fp, g = DRAWS[label]
    path = mle_at_epsilon(f, fp, g, (1.0, 0.3, 0.1, 1e-2, 1e-3))
    for i, holds in exact[label][0].items():
        lam = np.array([est.lambda_vector(g, i) for est in path])
        moved = np.abs(lam - lam[0]).max() / max(1.0, np.abs(lam).max())
        assert (moved <= 1e-8) == holds, (i, moved)
