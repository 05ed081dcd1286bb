"""The grouped normal-equations check, ``check_alpha_fixed`` and the rank cut
against the per-vertex code they replaced.

The reference functions below are the per-vertex loops: one
``P^T (y - P x)`` per child vertex, one combination of perturbation columns
per child vertex, and the rank rules of ``rank``, ``image_basis`` and
``kernel_basis`` with their special cases for empty and zero matrices.  The
grouped code must give the same verdicts and the same first failing vertex.
Inputs that sit near a pass bound are avoided on purpose: weights are
shifted to 0.1x and 10x of it, where rounding cannot flip a verdict.
"""

import numpy as np
import pytest

from dagstab import (
    Dag,
    check_alpha_fixed,
    full_mle,
    image_basis,
    is_lambda_mle,
    kernel_basis,
    rank,
)
from dagstab.linalg import DEFAULT_TOL, _kept
from dagstab.mle import _normal_equation_failures
from _helpers import random_rank_deficient

# ---------------------------------------------------------------------------
# the per-vertex reference


def _reference_normal_failure(A, g, lam, tol=DEFAULT_TOL):
    """First child vertex at which ``lam`` fails the normal equations, or
    None; raises on a weight for a non-edge."""
    for (i, j) in lam:
        if not g.has_edge(j, i):
            raise ValueError(f"edge weight given for non-edge {j} -> {i}")
    for i in g.child_vertices():
        pa = g.parents(i)
        if any((i, j) not in lam for j in pa):
            return i
        P = A[:, [j - 1 for j in pa]]
        x = np.array([lam[(i, j)] for j in pa])
        b = A[:, i - 1]
        resid = P.T @ (b - P @ x)
        scale = np.linalg.norm(P.T @ b) + np.linalg.norm(P.T @ P) * np.linalg.norm(x)
        if not np.linalg.norm(resid) <= tol * scale:
            return i
    return None


def _alpha_bound(P, i, tol=DEFAULT_TOL):
    """The pass bound at child ``i``: ``tol`` times the norm of ``v_i`` plus
    the largest column norm of ``P``."""
    return tol * (np.linalg.norm(P[:, i - 1]) + np.linalg.norm(P, axis=0).max())


def _reference_alpha_fixed(P, alpha_lambda, g, tol=DEFAULT_TOL):
    for (i, j) in alpha_lambda:
        if not g.has_edge(j, i):
            raise ValueError(f"edge weight given for non-edge {j} -> {i}")
    out = {}
    for i in g.child_vertices():
        v_i = P[:, i - 1]
        combo = np.zeros_like(v_i)
        for j in g.parents(i):
            combo += alpha_lambda.get((i, j), 0.0) * P[:, j - 1]
        resid = v_i - combo
        out[i] = float(np.linalg.norm(resid)) <= _alpha_bound(P, i, tol)
    return out


def _reference_rank(A, tol=DEFAULT_TOL):
    if A.size == 0:
        return 0
    s = np.linalg.svd(A, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


def _reference_kernel_basis(A, tol=DEFAULT_TOL):
    p = A.shape[1]
    if p == 0:
        return np.zeros((0, 0))
    if A.shape[0] == 0 or not np.any(A):
        return np.eye(p)
    _, s, Vt = np.linalg.svd(A, full_matrices=True)
    return Vt[_reference_rank(A, tol):].T


# ---------------------------------------------------------------------------
# inputs


def _layered_dag(rng, m, indegree):
    """Vertex ``i`` draws ``min(i - 1, indegree)`` parents among the earlier
    vertices, so parent counts run from 0 up to ``indegree``."""
    edges = []
    for i in range(2, m + 1):
        for j in rng.choice(i - 1, size=min(i - 1, indegree), replace=False):
            edges.append((int(j) + 1, i))
    return Dag(m, edges)


# (seed, m, most parents, sample rank)
CASES = [
    (1, 6, 1, 6), (2, 10, 4, 10), (3, 10, 4, 3), (4, 16, 8, 16), (5, 16, 8, 5),
    (6, 20, 12, 20), (7, 20, 12, 6),
]
IDS = [f"p{c[2]}-r{c[3]}" for c in CASES]


@pytest.fixture(params=CASES, ids=IDS)
def mle_case(request):
    """A sample with four spare rows, its DAG and its min-norm edge weights."""
    seed, m, indegree, r = request.param
    rng = np.random.default_rng(seed)
    g = _layered_dag(rng, m, indegree)
    A = random_rank_deficient(rng, m + 4, m, r) * 10.0 ** rng.uniform(-2, 2, m)
    return rng, A, g, dict(full_mle(A, g).lam)


def _normal_bound(A, g, lam, i, tol=DEFAULT_TOL):
    idx = [j - 1 for j in g.parents(i)]
    P, b = A[:, idx], A[:, i - 1]
    x = np.array([lam[(i, j)] for j in g.parents(i)])
    return P, tol * (np.linalg.norm(P.T @ b) + np.linalg.norm(P.T @ P) * np.linalg.norm(x))


def _shift_normal(rng, A, g, lam, verts, factor, tol=DEFAULT_TOL):
    """``lam`` moved at each of ``verts`` so that the normal-equations
    residual there is ``factor`` times its pass bound."""
    out = dict(lam)
    for i in verts:
        P, bound = _normal_bound(A, g, lam, i, tol)
        d = rng.standard_normal(P.shape[1])
        d *= factor * bound / np.linalg.norm(P.T @ P @ d)
        for j, dx in zip(g.parents(i), d):
            out[(i, j)] += dx
    return out


def _assert_same_normal_verdict(A, g, lam, tol=DEFAULT_TOL):
    first = _reference_normal_failure(A, g, lam, tol)
    bad = _normal_equation_failures(A, g, lam, tol)
    assert (bad[0] if bad else None) == first
    assert bad == sorted(bad)
    assert is_lambda_mle(A, g, lam, tol) == (first is None)
    return first


class TestNormalEquations:
    def test_exact_weights_pass(self, mle_case):
        _, A, g, lam = mle_case
        assert _assert_same_normal_verdict(A, g, lam) is None

    @pytest.mark.parametrize("factor,fails", [(0.1, False), (10.0, True)])
    def test_shifted_weights(self, mle_case, factor, fails):
        rng, A, g, lam = mle_case
        children = g.child_vertices()
        size = max(1, len(children) // 3)
        verts = sorted(rng.choice(children, size=size, replace=False).tolist())
        shifted = _shift_normal(rng, A, g, lam, verts, factor)
        first = _assert_same_normal_verdict(A, g, shifted)
        assert first == (verts[0] if fails else None)
        if fails:
            assert _normal_equation_failures(A, g, shifted, DEFAULT_TOL) == verts

    @pytest.mark.parametrize("tol", [1e-8, 1e-6])
    def test_shifted_weights_at_other_tolerances(self, mle_case, tol):
        rng, A, g, lam = mle_case
        verts = g.child_vertices()[-2:]
        for factor, first in ((0.1, None), (10.0, verts[0])):
            shifted = _shift_normal(rng, A, g, lam, verts, factor, tol)
            assert _assert_same_normal_verdict(A, g, shifted, tol) == first

    def test_missing_weights_fail(self, mle_case):
        _, A, g, lam = mle_case
        for key in [sorted(lam)[-1], sorted(lam)[len(lam) // 2]]:
            partial = {k: v for k, v in lam.items() if k != key}
            assert _assert_same_normal_verdict(A, g, partial) == key[0]
        assert _assert_same_normal_verdict(A, g, {}) == g.child_vertices()[0]

    def test_missing_weight_fails_where_zero_would_pass(self):
        # parent 2 is a zero column, so its min-norm weight is exactly 0
        A = np.array([[1.0, 0.0, 1.0], [2.0, 0.0, 2.0], [0.0, 0.0, 1.0]])
        g = Dag(3, [(1, 3), (2, 3)])
        assert _assert_same_normal_verdict(A, g, {(3, 1): 1.0, (3, 2): 0.0}) is None
        assert _assert_same_normal_verdict(A, g, {(3, 1): 1.0}) == 3

    def test_nan_weights_fail(self, mle_case):
        _, A, g, lam = mle_case
        key = sorted(lam)[len(lam) // 2]
        assert _assert_same_normal_verdict(A, g, {**lam, key: np.nan}) == key[0]

    def test_non_edge_weight_raises(self, mle_case):
        _, A, g, lam = mle_case
        i = g.child_vertices()[-1]
        j = next(j for j in range(1, g.m + 1) if j != i and not g.has_edge(j, i))
        with pytest.raises(ValueError, match="non-edge") as ref:
            _reference_normal_failure(A, g, {**lam, (i, j): 1.0})
        with pytest.raises(ValueError) as got:
            is_lambda_mle(A, g, {**lam, (i, j): 1.0})
        assert str(got.value) == str(ref.value)


@pytest.fixture(params=CASES, ids=IDS)
def alpha_case(request):
    """A raw perturbation-shaped matrix whose child columns are, at about
    half the child vertices, exact combinations of their parent columns,
    with the weights of those combinations; some columns are zero."""
    seed, m, indegree, _ = request.param
    rng = np.random.default_rng(seed)
    g = _layered_dag(rng, m, indegree)
    P = rng.standard_normal((m + 4, m)) * 10.0 ** rng.uniform(-2, 2, m)
    P[:, rng.choice(m, size=m // 5, replace=False)] = 0.0
    alpha = {}
    for i in g.child_vertices():
        weights = rng.standard_normal(len(g.parents(i)))
        alpha.update(((i, j), float(w)) for j, w in zip(g.parents(i), weights))
        if rng.random() < 0.5:
            P[:, i - 1] = sum(w * P[:, j - 1] for j, w in zip(g.parents(i), weights))
    return P, g, alpha


class TestCheckAlphaFixed:
    def test_cases_hold_and_fail(self, alpha_case):
        P, g, alpha = alpha_case
        ref = _reference_alpha_fixed(P, alpha, g)
        assert check_alpha_fixed(P, alpha, g) == ref
        assert True in ref.values() and False in ref.values()

    @pytest.mark.parametrize("factor,holds", [(0.1, True), (10.0, False)])
    def test_shifted_weights(self, alpha_case, factor, holds):
        P, g, alpha = alpha_case
        ref = _reference_alpha_fixed(P, alpha, g)
        shifted = dict(alpha)
        moved = []
        for i in [i for i in g.child_vertices() if ref[i]]:
            j = next((j for j in g.parents(i) if np.any(P[:, j - 1])), None)
            if j is None:
                continue
            bound = _alpha_bound(P, i)
            shifted[(i, j)] += factor * bound / np.linalg.norm(P[:, j - 1])
            moved.append(i)
        assert moved
        got = check_alpha_fixed(P, shifted, g)
        assert got == _reference_alpha_fixed(P, shifted, g)
        assert all(got[i] is holds for i in moved)

    def test_missing_weights_count_as_zero(self, alpha_case):
        P, g, alpha = alpha_case
        for key in [sorted(alpha)[0], sorted(alpha)[-1]]:
            partial = {k: v for k, v in alpha.items() if k != key}
            assert check_alpha_fixed(P, partial, g) == _reference_alpha_fixed(P, partial, g)
        assert check_alpha_fixed(P, {}, g) == _reference_alpha_fixed(P, {}, g)

    def test_nan_weight_fails_only_its_vertex(self, alpha_case):
        P, g, alpha = alpha_case
        key = sorted(alpha)[len(alpha) // 2]
        with_nan = {**alpha, key: np.nan}
        got = check_alpha_fixed(P, with_nan, g)
        assert got == _reference_alpha_fixed(P, with_nan, g)
        assert got[key[0]] is False

    def test_non_edge_weight_raises(self, alpha_case):
        P, g, alpha = alpha_case
        i = g.child_vertices()[-1]
        j = next(j for j in range(1, g.m + 1) if j != i and not g.has_edge(j, i))
        with pytest.raises(ValueError, match="non-edge") as ref:
            _reference_alpha_fixed(P, {**alpha, (i, j): 1.0}, g)
        with pytest.raises(ValueError) as got:
            check_alpha_fixed(P, {**alpha, (i, j): 1.0}, g)
        assert str(got.value) == str(ref.value)


class TestRankCut:
    @pytest.mark.parametrize(
        "shape,zero",
        [((0, 3), True), ((3, 0), True), ((0, 0), True), ((4, 3), True), ((3, 5), True),
         ((4, 3), False), ((3, 5), False)],
    )
    def test_matches_the_old_rules(self, shape, zero):
        A = np.zeros(shape) if zero else np.random.default_rng(1).standard_normal(shape)
        assert rank(A) == _reference_rank(A)
        assert image_basis(A).shape == (shape[0], _reference_rank(A))
        assert np.array_equal(kernel_basis(A), _reference_kernel_basis(A))

    def test_stack_with_an_all_zero_slice(self):
        rng = np.random.default_rng(2)
        B = np.stack([random_rank_deficient(rng, 6, 4, r) for r in (4, 2, 0, 1)])
        s = np.linalg.svd(B, compute_uv=False)
        kept = _kept(s, DEFAULT_TOL)
        assert kept.sum(axis=1).tolist() == [_reference_rank(M) for M in B] == [4, 2, 0, 1]
        assert not kept[2].any()

    def test_empty_singular_values(self):
        assert _kept(np.zeros(0), DEFAULT_TOL).shape == (0,)
        assert _kept(np.zeros((3, 0)), DEFAULT_TOL).shape == (3, 0)
