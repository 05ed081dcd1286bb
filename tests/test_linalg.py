
import warnings

import numpy as np
import pytest

from dagstab import Dag, build_from_lift, random_lift
from dagstab.linalg import (
    FIRST_NONZERO_TOL,
    image_basis,
    kernel_basis,
    orth_complement,
    pencil_expand,
    rank,
)
from dagstab.mle import _groups
from _helpers import fraction_rank, random_orthogonal_pair


class TestRank:
    def test_identity(self):
        assert rank(np.eye(3)) == 3

    def test_proportional_columns(self):
        assert rank([[1.0, 1.0], [2.0, 2.0]]) == 1

    def test_zero_and_empty(self):
        assert rank(np.zeros((3, 4))) == 0
        assert rank(np.zeros((3, 0))) == 0

    def test_seeded_gaussian_against_rational_row_reduction(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            M = np.round(10 * rng.standard_normal((5, 3))).astype(int)
            assert rank(M.astype(float)) == fraction_rank(M)

    def test_rank_deficient_integer_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            # rank <= 2 by construction; compare against the exact oracle
            B = np.round(3 * rng.standard_normal((5, 2))).astype(int)
            C = np.round(3 * rng.standard_normal((2, 4))).astype(int)
            M = B @ C
            assert rank(M.astype(float)) == fraction_rank(M)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            rank([[np.nan, 0.0]])


class TestBases:
    def test_kernel_of_coordinate_projection(self):
        K = kernel_basis([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert K.shape == (3, 1)
        assert abs(abs(K[2, 0]) - 1.0) < 1e-12 and np.allclose(K[:2, 0], 0)

    def test_image_of_zero_matrix(self):
        assert image_basis(np.zeros((4, 3))).shape == (4, 0)

    def test_image_perp_complement(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((6, 4))
        Q = image_basis(M)
        C = orth_complement(Q, 6)
        assert Q.shape[1] + C.shape[1] == 6
        assert np.max(np.abs(Q.T @ C)) < 1e-10

    def test_rank_nullity(self):
        rng = np.random.default_rng(11)
        for r in (0, 1, 2, 3):
            M = (
                rng.standard_normal((6, r)) @ rng.standard_normal((r, 4))
                if r
                else np.zeros((6, 4))
            )
            assert image_basis(M).shape[1] + kernel_basis(M).shape[1] == 4

    def test_complement_accepts_non_orthonormal(self):
        B = np.array([[2.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        C = orth_complement(B, 3)
        assert C.shape == (3, 2)
        assert np.max(np.abs(B.T @ C)) < 1e-10

    def test_complement_of_empty_span(self):
        C = orth_complement(np.zeros((4, 0)), 4)
        assert np.allclose(C @ C.T, np.eye(4))


def _interpolate(nodes, values):
    V = np.vander(np.asarray(nodes, dtype=float), increasing=True)
    return np.linalg.solve(V, values.reshape(len(nodes), -1)).reshape(values.shape)


def _reference_pencil(A, E):
    """``det`` and ``det * inv`` node by node, then the same interpolation:
    the evaluation that the stacked one replaced."""
    p = A.shape[1]
    AtA, EtE = A.T @ A, E.T @ E
    det_vals = np.array([np.linalg.det(AtA + k * EtE) for k in range(p + 1)])
    det_coeffs = _interpolate(np.arange(p + 1), det_vals)
    adj_vals = []
    for k in range(1, p + 1):
        C = AtA + k * EtE
        adj_vals.append(np.linalg.det(C) * np.linalg.inv(C))
    adj = [np.array([[1.0]])] if p == 1 else list(_interpolate(np.arange(1, p + 1), np.array(adj_vals)))
    first = np.flatnonzero(np.abs(det_coeffs) > FIRST_NONZERO_TOL * np.max(np.abs(det_coeffs)))[0]
    return det_coeffs, adj, int(first)


def _assert_stack_matches_single_calls(A, E):
    """Slice ``i`` of the stacked expansion is the 2-d call on ``(A[i], E[i])``."""
    stacked = pencil_expand(A, E)
    assert stacked.det_coeffs.shape == (len(A), A.shape[2] + 1)
    for i, (A_i, E_i) in enumerate(zip(A, E)):
        pe = pencil_expand(A_i, E_i)
        assert np.array_equal(stacked.det_coeffs[i], pe.det_coeffs)
        assert np.array_equal(stacked.adj_coeffs[i], pe.adj_coeffs)
        assert stacked.first_nonzero[i] == pe.first_nonzero
        for shift in (-1, 0):  # the two coefficients the limit reads
            G = stacked.adj_coeff(stacked.first_nonzero + shift)[i]
            assert np.array_equal(G, pe.adj_coeff(pe.first_nonzero + shift))


def _assert_matches_reference(A, E):
    pe = pencil_expand(A, E)
    det_coeffs, adj, first = _reference_pencil(A, E)
    assert np.array_equal(pe.det_coeffs, det_coeffs)
    assert len(pe.adj_coeffs) == len(adj)
    assert all(np.array_equal(G, R) for G, R in zip(pe.adj_coeffs, adj))
    assert pe.first_nonzero == first


class TestStackedPencilIsBitIdentical:
    """``pencil_expand`` evaluates its nodes in stacked LAPACK calls; every
    coefficient must equal the node-by-node evaluation bit for bit."""

    @pytest.mark.parametrize("p", range(1, 13))
    @pytest.mark.parametrize("rank_a", ["full", "half", "zero"])
    def test_random_pencils(self, p, rank_a):
        rng = np.random.default_rng(p)
        ra = {"full": p, "half": p // 2, "zero": 0}[rank_a]
        for scale in (1.0, 1e-3, 1e3):
            A, E = random_orthogonal_pair(rng, 2 * p + 2, p, ra, p - ra)
            _assert_matches_reference(scale * A, E)

    def test_deep_pencils_of_the_known_failures(self, perfbench_inputs):
        seen = 0
        for spec in perfbench_inputs.KNOWN_FAILURES:
            case = perfbench_inputs._known_failure(*spec)
            g = Dag(case.m, case.edges)
            pert = build_from_lift(random_lift(case.sample, case.lift_seed))
            for i in g.child_vertices():
                cols = np.subtract(g.parents(i), 1)
                if len(cols) == spec[2]:
                    _assert_matches_reference(pert.base[:, cols], pert.delta[:, cols])
                    seen += 1
        assert seen >= len(perfbench_inputs.KNOWN_FAILURES)

    @pytest.mark.parametrize("layout", ["c", "groups"])
    @pytest.mark.parametrize("p", range(1, 9))
    def test_random_stacks(self, p, layout):
        rng = np.random.default_rng(100 + p)
        pairs = [random_orthogonal_pair(rng, 2 * p + 2, p, ra, p - ra) for ra in range(p + 1)]
        A, E = (np.stack(M) for M in zip(*pairs))
        if layout == "groups":  # the column-major slices that mle._groups stacks
            A, E = (np.ascontiguousarray(M.transpose(0, 2, 1)).transpose(0, 2, 1) for M in (A, E))
        _assert_stack_matches_single_calls(A, E)

    def test_known_failures_stacked_per_group(self, perfbench_inputs):
        groups = 0
        for spec in perfbench_inputs.KNOWN_FAILURES:
            case = perfbench_inputs._known_failure(*spec)
            pert = build_from_lift(random_lift(case.sample, case.lift_seed))
            for _, (A, _), (E, _) in _groups(Dag(case.m, case.edges), pert.base, pert.delta):
                _assert_stack_matches_single_calls(A, E)
                groups += 1
        assert groups >= 2 * len(perfbench_inputs.KNOWN_FAILURES)

    @pytest.mark.parametrize("at", [0, 2, 4])
    @pytest.mark.parametrize("fault,message", [
        ("orthogonality", "orthogonal"),
        ("overflow", "entries must be finite"),
        ("rank", "full column rank"),
        ("scale", "all determinant coefficients vanish"),
    ])
    def test_a_failing_pencil_raises_its_own_message(self, fault, message, at):
        rng = np.random.default_rng(5)
        A, E = (np.stack(M) for M in zip(*[random_orthogonal_pair(rng, 8, 3, 2, 2)] * 5))
        if fault == "orthogonality":
            E[at] = A[at]
        elif fault == "overflow":
            A[at, 0, 0] = E[at, 0, 0] = 1e308
        elif fault == "rank":
            E[at] = 0.0
        else:  # det C overflows
            A[at], E[at] = 1e100 * A[at], 1e100 * E[at]
        first = at
        if at > 0:  # an earlier pencil that fails only a later check still comes first
            first = at - 1
            A[first], E[first] = 1e100 * A[first], 1e100 * E[first]
            message = "all determinant coefficients vanish"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for args in ((A, E), (A[first], E[first])):
                with pytest.raises(ValueError, match=message):
                    pencil_expand(*args)


def _det_at(pe, eps):
    """``det C(eps)`` from the expansion's Taylor coefficients."""
    return float(np.polynomial.polynomial.polyval(eps, pe.det_coeffs))


def _adj_at(pe, eps):
    """``adj C(eps)`` from the expansion's Taylor coefficients."""
    return sum(G * eps**k for k, G in enumerate(pe.adj_coeffs))


class TestPencilExpand:
    def test_rank_one_diagonal(self):
        pe = pencil_expand([[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]])
        assert np.allclose(pe.det_coeffs, [0.0, 1.0, 0.0], atol=1e-12)
        assert pe.first_nonzero == 1
        assert np.allclose(pe.adj_coeffs[0], [[0.0, 0.0], [0.0, 1.0]], atol=1e-12)
        assert np.allclose(pe.adj_coeffs[1], [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)

    def test_identity_with_zero_perturbation(self):
        pe = pencil_expand(np.eye(2), np.zeros((2, 2)))
        assert np.allclose(pe.det_coeffs, [1.0, 0.0, 0.0], atol=1e-12)
        assert pe.first_nonzero == 0
        assert np.allclose(pe.adj_coeffs[0], np.eye(2), atol=1e-12)

    def test_reconstruction_at_test_point(self):
        rng = np.random.default_rng(9)
        A, E = random_orthogonal_pair(rng, 6, 3, 2, 2)
        pe = pencil_expand(A, E)
        eps = 0.37
        C = A.T @ A + eps * (E.T @ E)
        direct = np.linalg.det(C)
        assert abs(_det_at(pe, eps) - direct) < 1e-8 * max(1.0, abs(direct))

    def test_rejects_nonorthogonal(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((5, 2))
        with pytest.raises(ValueError, match="orthogonal"):
            pencil_expand(A, A)

    def test_rejects_rank_deficient_sum(self):
        A = np.zeros((4, 2))
        E = np.zeros((4, 2))
        E[2, 0] = 1.0
        E[2, 1] = 2.0  # E has rank 1, so A + E is rank deficient
        with pytest.raises(ValueError, match="full column rank"):
            pencil_expand(A, E)

    def test_rejects_an_overflowing_sum(self):
        # no np.errstate: the overflow of A + E must be the error, not a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="entries must be finite"):
                pencil_expand([[1e308]], [[1e308]])

    def test_reconstruction_sweep(self):
        rng = np.random.default_rng(31)
        for trial in range(20):
            n = int(rng.integers(6, 10))
            p = int(rng.integers(2, 5))
            ra = int(rng.integers(1, p + 1))
            re = int(rng.integers(1, p + 1))
            if ra + re > n:
                continue
            A, E = random_orthogonal_pair(rng, n, p, ra, re)
            if rank(A + E) < p:
                continue
            pe = pencil_expand(A, E)
            det_gram = np.linalg.det(A.T @ A)
            assert abs(pe.det_coeffs[0] - det_gram) < 1e-9 * (1.0 + abs(det_gram))
            for eps in rng.uniform(0.1, 2.0, size=5):
                C = A.T @ A + eps * (E.T @ E)
                det_direct = np.linalg.det(C)
                adj_direct = det_direct * np.linalg.inv(C)
                scale = max(1.0, abs(det_direct))
                assert abs(_det_at(pe, eps) - det_direct) < 1e-7 * scale
                assert np.max(np.abs(_adj_at(pe, eps) - adj_direct)) < 1e-7 * max(
                    1.0, np.max(np.abs(adj_direct))
                )

    def test_vanishing_prefix_annihilates_gram_matrix(self):
        # With the first l coefficients of det vanishing, the adjugate
        # coefficient before the first nonzero one kills A^T A.
        rng = np.random.default_rng(17)
        found = 0
        for trial in range(40):
            n = int(rng.integers(6, 10))
            p = int(rng.integers(2, 5))
            ra = int(rng.integers(0, p))  # deficient, so c_0 = 0
            re = int(rng.integers(max(1, p - ra), p + 1))
            if ra + re > n:
                continue
            A, E = random_orthogonal_pair(rng, n, p, max(ra, 0), re)
            if ra == 0:
                A = np.zeros((n, p))
            if rank(A + E) < p:
                continue
            pe = pencil_expand(A, E)
            l = pe.first_nonzero
            if l == 0:
                continue
            found += 1
            AtA = A.T @ A
            product = pe.adj_coeff(l - 1) @ AtA
            scale = max(1.0, np.max(np.abs(pe.det_coeffs))) * max(
                1.0, np.max(np.abs(AtA), initial=0.0)
            )
            assert np.max(np.abs(product), initial=0.0) < 1e-6 * scale
            # and the adjugate coefficients before index l-1 vanish outright
            adj_scale = max(
                (np.max(np.abs(G), initial=0.0) for G in pe.adj_coeffs), default=1.0
            )
            for k in range(l - 1):
                assert np.max(np.abs(pe.adj_coeff(k)), initial=0.0) < 1e-6 * max(
                    1.0, adj_scale
                )
        assert found >= 5
