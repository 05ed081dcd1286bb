import numpy as np
import pytest

from dagstab import (
    AlphaNotMleError,
    Dag,
    build_from_lift,
    MleEstimate,
    VarietyQuery,
    full_mle,
    in_Xf,
    in_Xf_alpha,
    in_Xf_alpha_lim,
    limit_mle,
    limit_mle_numeric,
    random_lift,
    stabilize,
    star,
    star_min_norm_mle,
)
from _helpers import collider, random_perturbation, random_rank_deficient, star_instance


def sparse_hub_instance(seed):
    rng = np.random.default_rng(seed)
    f = np.zeros((5, 3))
    f[0, 0] = 1.0
    v2 = np.concatenate([[0.0], rng.standard_normal(4)])
    v3 = np.concatenate([[0.0], rng.standard_normal(4)])
    fp = np.column_stack([np.zeros(5), v2, v3])
    b = float(v2 @ v3 / (v2 @ v2))
    return f, fp, b


def duplicate_parent_instance(seed):
    """Collider sample with equal parent columns and an existing MLE; every
    perturbation is a multiple of q (1, -1, 0)^T."""
    rng = np.random.default_rng(seed)
    n = 6
    basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
    u = basis[:, 0] * rng.uniform(0.5, 2.0)
    w = basis[:, 1] * rng.uniform(0.5, 2.0)
    a = rng.normal()
    f = np.column_stack([u, u, a * u + w])
    q = basis[:, 2] * rng.uniform(0.5, 2.0)
    fp = np.column_stack([q, -q, np.zeros(n)]) / np.sqrt(2.0)
    return f, fp, a


class TestInXf:
    def test_delegates_to_perturbation_predicate(self):
        f, fp, _ = sparse_hub_instance(1)
        assert in_Xf(VarietyQuery(f=f, candidate=fp, g=collider()))
        assert not in_Xf(VarietyQuery(f=f, candidate=np.zeros_like(fp), g=collider()))

    def test_zero_candidate_for_full_rank_sample(self):
        rng = np.random.default_rng(2)
        f = rng.standard_normal((5, 3))
        assert in_Xf(VarietyQuery(f=f, candidate=np.zeros((5, 3)), g=collider()))


class TestInXfAlpha:
    def test_min_norm_alpha_on_duplicate_parents(self):
        f, fp, a = duplicate_parent_instance(3)
        g = collider()
        alpha = full_mle(f, g)  # minimum-norm representative (a/2, a/2)
        assert np.allclose(alpha.lambda_vector(g, 3), [a / 2, a / 2])
        q = VarietyQuery(f=f, candidate=fp, g=g, alpha=alpha)
        assert in_Xf_alpha(q)
        # membership makes the stabilised child-vertex components alpha's
        est = full_mle(stabilize(f, fp), g)
        assert np.max(np.abs(est.lambda_vector(g, 3) - alpha.lambda_vector(g, 3))) < 1e-8
        assert abs(est.omega[3] - alpha.omega[3]) < 1e-8
        # source-vertex variances shift by |v_j|^2 / n: nonzero perturbation
        # columns at the parents move them off alpha exactly
        n = f.shape[0]
        for j in (1, 2):
            shift = float(fp[:, j - 1] @ fp[:, j - 1]) / n
            assert shift > 1e-6
            assert abs(est.omega[j] - (alpha.omega[j] + shift)) < 1e-10
        # and membership transfers to the limit variety
        assert in_Xf_alpha_lim(q)

    def test_other_mle_excluded(self):
        f, fp, a = duplicate_parent_instance(4)
        g = collider()
        base = full_mle(f, g)
        shifted = dict(base.lam)
        shifted[(3, 1)] = base.lam[(3, 1)] + 1.0
        shifted[(3, 2)] = base.lam[(3, 2)] - 1.0  # still solves the normal equations
        other = MleEstimate(
            lam=shifted,
            lambda_kernel_dims=base.lambda_kernel_dims,
            omega=base.omega,
            omega_exists=base.omega_exists,
        )
        q = VarietyQuery(f=f, candidate=fp, g=g, alpha=other)
        assert not in_Xf_alpha(q)

    def test_invalid_candidate_fails(self):
        f, fp, a = duplicate_parent_instance(5)
        g = collider()
        alpha = full_mle(f, g)
        q = VarietyQuery(f=f, candidate=np.zeros_like(fp), g=g, alpha=alpha)
        assert not in_Xf_alpha(q)

    def test_alpha_must_be_an_mle(self):
        f, fp, b = sparse_hub_instance(6)
        g = collider()
        # no MLE exists given this sample, so no alpha can qualify
        alpha = MleEstimate(
            lam={(3, 1): 0.0, (3, 2): b},
            omega={1: 0.2, 2: 0.2, 3: 0.2},
            omega_exists={1: True, 2: True, 3: True},
        )
        with pytest.raises(AlphaNotMleError):
            in_Xf_alpha(VarietyQuery(f=f, candidate=fp, g=g, alpha=alpha))

    def test_requires_alpha(self):
        f, fp, _ = sparse_hub_instance(7)
        with pytest.raises(ValueError, match="alpha"):
            in_Xf_alpha(VarietyQuery(f=f, candidate=fp, g=collider()))


class TestInXfAlphaLim:
    def test_ratio_quadric(self):
        for seed in range(5):
            f, fp, b = sparse_hub_instance(seed + 10)
            g = collider()
            good = MleEstimate(lam={(3, 1): 0.0, (3, 2): b})
            bad = MleEstimate(lam={(3, 1): 0.0, (3, 2): b + 0.01})
            assert in_Xf_alpha_lim(
                VarietyQuery(f=f, candidate=fp, g=g, alpha=good, tol=1e-8)
            )
            assert not in_Xf_alpha_lim(
                VarietyQuery(f=f, candidate=fp, g=g, alpha=bad, tol=1e-8)
            )

    def test_dependent_line_limit_membership(self):
        f = np.array(
            [[1.0, 1.0, 2.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        )
        v = np.array([0.0, 0.0, 1.0, 0.0])
        fp = np.column_stack([-v, -v, v])
        alpha = MleEstimate(lam={(3, 1): 1.0, (3, 2): 1.0})
        assert in_Xf_alpha_lim(VarietyQuery(f=f, candidate=fp, g=collider(), alpha=alpha))

    def test_full_rank_degenerate_variety(self):
        rng = np.random.default_rng(11)
        f = rng.standard_normal((5, 3))
        g = collider()
        unique = full_mle(f, g)
        zero = np.zeros((5, 3))
        assert in_Xf_alpha_lim(VarietyQuery(f=f, candidate=zero, g=g, alpha=unique))
        off = MleEstimate(
            lam={(3, 1): unique.lam[(3, 1)] + 0.1, (3, 2): unique.lam[(3, 2)]}
        )
        assert not in_Xf_alpha_lim(VarietyQuery(f=f, candidate=zero, g=g, alpha=off))


def nullspace_limit(f, fp, g):
    """The limit edge weights by the nullspace method, vertex by vertex:
    ``x_A + N (E N)^+ (v - E x_A)`` with ``x_A`` the minimum-norm solution
    of ``A x = b`` and ``N`` an orthonormal basis of ``ker A``; also the
    bases ``N``."""
    lam, kernels = {}, {}
    for i in g.child_vertices():
        idx = [j - 1 for j in g.parents(i)]
        A, E, b, v = f[:, idx], fp[:, idx], f[:, i - 1], fp[:, i - 1]
        x_A = np.linalg.lstsq(A, b, rcond=None)[0]
        _, s, Vt = np.linalg.svd(A)
        N = Vt[int((s > 1e-10 * s[0]).sum()):].T
        x = x_A + N @ (np.linalg.pinv(E @ N) @ (v - E @ x_A))
        lam.update(zip([(i, j) for j in g.parents(i)], x.tolist()))
        kernels[i] = N
    return lam, kernels


class TestLimitVarietyEquations:
    def deep_pencil(self):
        # the complete 10-vertex DAG at sample rank 1, on which the pencil
        # expansion of the 9-parent vertex loses every digit
        rng = np.random.default_rng(20231106)
        g = Dag(10, [(j, i) for i in range(2, 11) for j in range(1, i)])
        f = random_rank_deficient(rng, 10, 10, 1)
        return f, random_perturbation(f, seed=3), g

    def test_deep_pencil_exact_limit_is_a_member(self):
        f, fp, g = self.deep_pencil()
        lam, _ = nullspace_limit(f, fp, g)
        num = limit_mle_numeric(f, fp, g)
        scale = max(1.0, max(abs(x) for x in lam.values()))
        assert max(abs(num.lam[k] - x) for k, x in lam.items()) < 1e-10 * scale
        assert in_Xf_alpha_lim(VarietyQuery(f=f, candidate=fp, g=g, alpha=MleEstimate(lam=lam)))

    def test_deep_pencil_shift_along_the_kernel_is_not(self):
        f, fp, g = self.deep_pencil()
        lam, kernels = nullspace_limit(f, fp, g)
        for i in (3, 10):  # the shallowest and the deepest pencil
            shifted = dict(lam)
            for j, d in zip(g.parents(i), 1e-3 * kernels[i][:, 0]):
                shifted[(i, j)] += d
            q = VarietyQuery(f=f, candidate=fp, g=g, alpha=MleEstimate(lam=shifted))
            assert not in_Xf_alpha_lim(q)

    def test_alpha_missing_a_weight_raises(self):
        f, fp, b = sparse_hub_instance(10)
        alpha = MleEstimate(lam={(3, 2): b})
        with pytest.raises(ValueError, match="missing edge weights at vertex 3"):
            in_Xf_alpha_lim(VarietyQuery(f=f, candidate=fp, g=collider(), alpha=alpha))

    def test_alpha_weight_on_a_non_edge_raises(self):
        f, fp, b = sparse_hub_instance(10)
        alpha = MleEstimate(lam={(3, 1): 0.0, (3, 2): b, (2, 1): 1.0})
        with pytest.raises(ValueError, match="non-edge 1 -> 2"):
            in_Xf_alpha_lim(VarietyQuery(f=f, candidate=fp, g=collider(), alpha=alpha))


class TestLimitVarietyConsistency:
    def test_membership_holds_exactly_at_the_limit(self):
        # the analytic limit satisfies the defining relation of its own
        # variety by construction; shifting any coordinate breaks it
        from dagstab import star
        from _helpers import random_rank_deficient

        rng = np.random.default_rng(71)
        for trial in range(12):
            g = [star(4), collider()][trial % 2]
            m = g.m
            f = random_rank_deficient(rng, m + 2, m, int(rng.integers(1, m)))
            fp = random_perturbation(f, seed=trial + 1000)
            lim = limit_mle(f, fp, g)
            alpha = MleEstimate(lam=dict(lim.lam))
            q = VarietyQuery(f=f, candidate=fp, g=g, alpha=alpha, tol=1e-8)
            assert in_Xf_alpha_lim(q)
            hub = g.child_vertices()[0]
            shifted = dict(lim.lam)
            shifted[(hub, 1)] += 1e-3
            q_bad = VarietyQuery(
                f=f, candidate=fp, g=g, alpha=MleEstimate(lam=shifted), tol=1e-8
            )
            assert not in_Xf_alpha_lim(q_bad)


    def test_every_returned_limit_is_a_member(self):
        # low-rank star samples with columns scaled over 1e-3..1e3: where the
        # pencil expansion loses digits along ker A, limit_mle must raise
        # rather than return a limit that in_Xf_alpha_lim rejects
        rng = np.random.default_rng(5)
        returned = 0
        for trial in range(300):
            p = rng.integers(4, 9)
            m, r = p + 1, rng.integers(1, p)
            n = m + 2
            f = rng.standard_normal((n, r)) @ rng.standard_normal((r, m))
            f = f * 10 ** rng.uniform(-3, 3, m)
            g = star(int(m))
            pert = build_from_lift(random_lift(f, trial))
            try:
                lim = limit_mle(None, pert, g)
            except ValueError as exc:
                assert "fails the normal equations" in str(exc)
                continue
            returned += 1
            q = VarietyQuery(f=f, candidate=pert, g=g, alpha=MleEstimate(lam=lim.lam))
            assert in_Xf_alpha_lim(q), trial
        assert returned >= 250

class TestStarMinNorm:
    def test_orthogonal_hub_column(self):
        g = star(3)
        f = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        est = star_min_norm_mle(f, g)
        # hub column orthogonal to the repeated parent: projection is zero and
        # the minimum-norm coefficient vector is (0, 0)
        assert np.allclose(est.lambda_vector(g, 3), [0.0, 0.0], atol=1e-12)
        assert est.omega == pytest.approx({1: 1 / 3, 2: 1 / 3, 3: 1 / 3})

    def test_full_rank_parents_reduce_to_unique_mle(self):
        rng = np.random.default_rng(12)
        g = star(4)
        f = rng.standard_normal((6, 4))
        est = star_min_norm_mle(f, g)
        base = full_mle(f, g)
        assert est.lam == pytest.approx(base.lam)
        assert est.omega == pytest.approx(base.omega)

    def test_agrees_with_limit_of_random_stabilisations(self):
        rng = np.random.default_rng(13)
        for trial in range(20):
            m = int(rng.integers(3, 6))
            f, g = star_instance(rng, m, m + 2, parent_rank=int(rng.integers(1, m - 1)))
            mn = star_min_norm_mle(f, g)
            fp = random_perturbation(f, seed=trial)
            lim = limit_mle(f, fp, g)
            hub = m
            assert (
                np.max(np.abs(lim.lambda_vector(g, hub) - mn.lambda_vector(g, hub)))
                < 1e-8
            )
            assert lim.omega == pytest.approx(mn.omega, abs=1e-10)

    def test_rejects_non_star(self):
        with pytest.raises(ValueError, match="star"):
            star_min_norm_mle(np.eye(3), Dag(3, [(1, 2)]))

    def test_rejects_nonexistent_mle(self):
        g = star(3)
        f = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="witness"):
            star_min_norm_mle(f, g)


class TestStarVariety:
    def test_membership_collapses_to_perturbation_predicate(self):
        # for star samples with an existing MLE, membership in the
        # alpha-variety at the minimum-norm alpha is no extra condition
        rng = np.random.default_rng(14)
        for trial in range(10):
            m = int(rng.integers(3, 5))
            f, g = star_instance(rng, m, m + 2, parent_rank=int(rng.integers(1, m - 1)))
            alpha = star_min_norm_mle(f, g)
            fp = random_perturbation(f, seed=trial + 50)
            q = VarietyQuery(f=f, candidate=fp, g=g, alpha=alpha)
            assert in_Xf(q) and in_Xf_alpha(q) and in_Xf_alpha_lim(q)

    def test_non_minimal_alpha_gives_empty_slice(self):
        rng = np.random.default_rng(15)
        f, g = star_instance(rng, 4, 6, parent_rank=2)
        alpha = star_min_norm_mle(f, g)
        # shift along the kernel of the parent submatrix: another valid MLE
        from dagstab import lambda_kernel_basis

        K = lambda_kernel_basis(f, g, 4)
        assert K.shape[1] >= 1
        shifted_vec = alpha.lambda_vector(g, 4) + K[:, 0]
        lam = dict(alpha.lam)
        for j, value in zip(g.parents(4), shifted_vec):
            lam[(4, j)] = float(value)
        other = MleEstimate(
            lam=lam,
            lambda_kernel_dims=alpha.lambda_kernel_dims,
            omega=alpha.omega,
            omega_exists=alpha.omega_exists,
        )
        for trial in range(5):
            fp = random_perturbation(f, seed=trial + 80)
            q = VarietyQuery(f=f, candidate=fp, g=g, alpha=other)
            assert not in_Xf_alpha(q)
