import warnings

import numpy as np
import pytest

from dagstab import (
    Dag,
    MleEstimate,
    VarietyQuery,
    check_alpha_fixed,
    check_full_condition,
    check_lambda_condition,
    classify,
    duplicate,
    full_mle,
    in_Xf_alpha_lim,
    is_mle,
    limit_mle,
    limit_mle_numeric,
    mle_at_epsilon,
    star,
)
from dagstab.graph import NONEXISTENT
from dagstab.stabilise import InvalidPerturbationError
from _helpers import (
    collider,
    project,
    random_dag,
    random_perturbation,
    random_rank_deficient,
    star_instance,
    tournament,
)


def dependent_line_instance():
    """Columns (1,0,..), (1,1,0,..), (2,1,0,..) with the forced perturbation
    (-v, -v, v) for v = e3; the kernel of the sample is spanned by (1,1,-1)."""
    f = np.array(
        [
            [1.0, 1.0, 2.0],
            [0.0, 1.0, 1.0],
            [0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0],
        ]
    )
    v = np.array([0.0, 0.0, 1.0, 0.0])
    fp = np.column_stack([-v, -v, v])
    return f, fp


def nearly_dependent_instance():
    """Vertex 3's parents have singular values 5.9 and 2.6e-5: the MLE given
    f is unique, with weights near (-8616, -3702); on the default grid they
    grow from 3.4 to 8601, so the numeric route flags vertex 3 as diverged."""
    rng = np.random.default_rng(51)
    m = int(rng.integers(3, 8))
    g = random_dag(rng, m, 0.5)
    f = random_rank_deficient(rng, m + 1, m, m - 2)
    return f, random_perturbation(f, seed=51), g


def sparse_hub_instance(seed):
    """First column e1, zero second and third columns; perturbation columns
    (0, v2, v3) with independent v2, v3 vanishing in coordinate one."""
    rng = np.random.default_rng(seed)
    f = np.zeros((5, 3))
    f[0, 0] = 1.0
    v2 = np.concatenate([[0.0], rng.standard_normal(4)])
    v3 = np.concatenate([[0.0], rng.standard_normal(4)])
    fp = np.column_stack([np.zeros(5), v2, v3])
    b = float(v2 @ v3 / (v2 @ v2))
    return f, fp, v2, v3, b


class TestMleAtEpsilon:
    def test_dependent_line_closed_form(self):
        f, fp = dependent_line_instance()
        g = collider()
        for eps in (0.5, 0.1, 0.01, 0.003):
            est = mle_at_epsilon(f, fp, g, eps)
            expect = np.array([(1 - 2 * eps**2) / (1 + eps**2), 1.0])
            assert np.max(np.abs(est.lambda_vector(g, 3) - expect)) < 1e-12

    def test_dependent_line_general_norm(self):
        # the same closed form with the squared perturbation norm in place
        # of 1: ((1 - 2 e^2 s) / (1 + e^2 s), 1) for s = v.v
        g = collider()
        f = np.array(
            [[1.0, 1.0, 2.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        )
        v = np.array([0.0, 0.0, 0.7, -1.9])
        s = float(v @ v)
        fp = np.column_stack([-v, -v, v])
        for eps in (0.8, 0.05):
            got = mle_at_epsilon(f, fp, g, eps).lambda_vector(g, 3)
            expect = np.array([(1.0 - 2.0 * eps**2 * s) / (1.0 + eps**2 * s), 1.0])
            assert np.max(np.abs(got - expect)) < 1e-12
        limit = limit_mle(f, fp, g).lambda_vector(g, 3)
        assert np.max(np.abs(limit - [1.0, 1.0])) < 1e-12

    def test_full_rank_sample_constant_in_eps(self):
        rng = np.random.default_rng(1)
        f = rng.standard_normal((5, 3))
        g = collider()
        base = full_mle(f, g)
        for eps in (1.0, 0.25, 1e-3):
            est = mle_at_epsilon(f, np.zeros((5, 3)), g, eps)
            assert np.allclose(est.lambda_vector(g, 3), base.lambda_vector(g, 3))

    def test_sparse_hub_independent_of_eps(self):
        f, fp, v2, v3, b = sparse_hub_instance(5)
        g = collider()
        for eps in (1.0, 0.2, 0.004):
            est = mle_at_epsilon(f, fp, g, eps)
            assert np.max(np.abs(est.lambda_vector(g, 3) - [0.0, b])) < 1e-10

    def test_zero_eps_rejected(self):
        f, fp = dependent_line_instance()
        with pytest.raises(ValueError, match="nonzero"):
            mle_at_epsilon(f, fp, collider(), 0.0)

    def test_invalid_perturbation_rejected(self):
        f, _ = dependent_line_instance()
        with pytest.raises(InvalidPerturbationError):
            mle_at_epsilon(f, np.zeros_like(f), collider(), 0.5)


class TestLimitNumeric:
    def test_dependent_line(self):
        f, fp = dependent_line_instance()
        g = collider()
        res = limit_mle_numeric(f, fp, g)
        assert not res.diverged
        assert np.max(np.abs(res.lambda_vector(g, 3) - [1.0, 1.0])) < 1e-8
        assert res.omega_exists == {1: True, 2: True, 3: False}
        assert res.partial

    @pytest.mark.parametrize("grid", [(1e-3, 1e-2), (1e-2, 1e-2), (1e-2, 0.0), ()])
    def test_bad_grid_rejected(self, grid):
        f, fp = dependent_line_instance()
        with pytest.raises(ValueError, match="decreasing|non-empty"):
            limit_mle_numeric(f, fp, collider(), eps_grid=grid)

    def test_omega_values_match_base_sample(self):
        Y = duplicate(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), 2)
        g = collider()
        fp = random_perturbation(Y, seed=3)
        res = limit_mle_numeric(Y, fp, g)
        assert res.omega == pytest.approx({1: 0.5, 2: 0.5, 3: 0.5})
        assert not res.partial

    @pytest.mark.parametrize("s", [1e-5, 1e-8])
    def test_small_perturbation_gives_the_unscaled_limit(self, s):
        # f + eps s f' is a reparametrisation of the path; at these sizes the
        # smallest grid point used to leave f + eps f' numerically singular
        f = np.zeros((4, 3))
        f[0, 0] = f[1, 1] = 1.0
        f[:, 2] = f[:, 0] + f[:, 1]
        fp = np.outer(np.eye(4)[2], [1.0, 1.0, -1.0]) / np.sqrt(3.0)
        g = collider()
        ref, got = limit_mle_numeric(f, fp, g), limit_mle_numeric(f, s * fp, g)
        assert (got.omega_exists, got.partial, got.diverged) == (
            ref.omega_exists, ref.partial, ref.diverged
        )
        # the numeric route leaves the flags empty; the analytic ones must agree
        assert got.epsilon_independent == ref.epsilon_independent == {}
        assert limit_mle(f, s * fp, g).epsilon_independent == {3: False}
        assert limit_mle(f, fp, g).epsilon_independent == {3: False}
        assert got.lam.keys() == ref.lam.keys()
        for key, value in ref.lam.items():
            assert abs(got.lam[key] - value) < 1e-8, key

    @pytest.mark.parametrize("s", [1e5, 1e8])
    def test_large_perturbation_gives_the_unscaled_limit(self, s):
        # unscaled, the grid's eps leave f + eps s f' far from f, where the
        # extrapolation gives (-0.5, -0.5) with no divergence flag;
        # limit_mle is not compared: its pencil raises on these inputs
        f = np.zeros((4, 3))
        f[0, 0] = f[1, 1] = 1.0
        f[:, 2] = f[:, 0] + f[:, 1]
        fp = np.outer(np.eye(4)[2], [1.0, 1.0, -1.0]) / np.sqrt(3.0)
        g = collider()
        ref, got = limit_mle_numeric(f, fp, g), limit_mle_numeric(f, s * fp, g)
        assert (got.omega_exists, got.partial, got.diverged) == (
            ref.omega_exists, ref.partial, ref.diverged
        ) == ({1: True, 2: True, 3: False}, True, False)
        assert got.lam.keys() == ref.lam.keys()
        assert np.max(np.abs(got.lambda_vector(g, 3) - [1.0, 1.0])) < 1e-8
        for key, value in ref.lam.items():
            assert abs(got.lam[key] - value) < 1e-8, key


    @pytest.mark.parametrize("c", [10.0**k for k in range(-12, 13)])
    def test_flags_do_not_depend_on_units(self, c):
        # c f + eps c f' is the same path in other units: the weights and every
        # flag stay, the variances scale by c^2
        for f, fp, g in [(*dependent_line_instance(), collider()), nearly_dependent_instance()]:
            ref, got = limit_mle_numeric(f, fp, g), limit_mle_numeric(c * f, c * fp, g)
            assert got.diverged_vertices == ref.diverged_vertices
            assert (got.omega_exists, got.partial) == (ref.omega_exists, ref.partial)
            assert got.lam.keys() == ref.lam.keys()
            for key, value in ref.lam.items():
                assert abs(got.lam[key] - value) < 1e-8, key
            for i, value in ref.omega.items():
                assert got.omega[i] == pytest.approx(c * c * value, rel=1e-8), i
        assert ref.diverged_vertices == (3,)


class TestLimitAnalytic:
    def test_full_rank_parents_reduce_to_normal_equations(self):
        rng = np.random.default_rng(23)
        g = collider()
        # parents independent, hub column dependent on them: MLE nonexistent
        # but parent Gram matrix invertible so l = 0
        f = np.zeros((5, 3))
        f[:, 0] = rng.standard_normal(5)
        f[:, 1] = rng.standard_normal(5)
        f[:, 2] = 2.0 * f[:, 0] - f[:, 1]
        fp = random_perturbation(f, seed=11)
        res = limit_mle(f, fp, g)
        assert res.diagnostics[3].first_nonzero == 0
        assert np.max(np.abs(res.lambda_vector(g, 3) - [2.0, -1.0])) < 1e-9

    def test_dependent_line_limit(self):
        f, fp = dependent_line_instance()
        g = collider()
        res = limit_mle(f, fp, g)
        assert np.max(np.abs(res.lambda_vector(g, 3) - [1.0, 1.0])) < 1e-12
        assert res.epsilon_independent == {3: False}

    def test_star_limit_is_min_norm(self):
        rng = np.random.default_rng(31)
        for trial in range(10):
            f, g = star_instance(rng, 4, 7, parent_rank=int(rng.integers(1, 3)))
            hub = 4
            fp = random_perturbation(f, seed=trial)
            res = limit_mle(f, fp, g)
            oracle = np.linalg.lstsq(f[:, :3], f[:, hub - 1], rcond=1e-10)[0]
            assert np.max(np.abs(res.lambda_vector(g, hub) - oracle)) < 1e-8


    def test_nearly_dependent_parents_give_the_unique_fit(self):
        # the MLE given f is unique, so it is the limit, although its weights are large
        f, fp, g = nearly_dependent_instance()
        res = limit_mle(f, fp, g)
        assert in_Xf_alpha_lim(VarietyQuery(f=f, candidate=fp, g=g, alpha=MleEstimate(lam=res.lam)))
        pa = [j - 1 for j in g.parents(3)]
        oracle = np.linalg.lstsq(f[:, pa], f[:, 2], rcond=None)[0]
        assert np.allclose(res.lambda_vector(g, 3), oracle, rtol=1e-6, atol=0.0)
        assert np.allclose(oracle, [-8615.9, -3701.7], rtol=1e-4)

    def test_full_rank_vertex_is_the_fit_bit_for_bit(self):
        # vertices 3 and 6 share a parent-count group; the parents of 6 are
        # proportional, so only 6 goes through the pencil
        rng = np.random.default_rng(8)
        g = Dag(6, [(1, 3), (2, 3), (4, 6), (5, 6)])
        f = rng.standard_normal((8, 6))
        f[:, 4] = 2.0 * f[:, 3]
        fp = random_perturbation(f, seed=8)
        res, est = limit_mle(f, fp, g), full_mle(f, g)
        assert res.lambda_vector(g, 3).tolist() == est.lambda_vector(g, 3).tolist()
        d = res.diagnostics[3]
        assert d.first_nonzero == 0
        assert d.det_coeff == pytest.approx(np.linalg.det(f[:, :2].T @ f[:, :2]), rel=1e-12)
        assert d.numerator.tolist() == (d.det_coeff * est.lambda_vector(g, 3)).tolist()
        assert res.diagnostics[6].first_nonzero == 1
        assert in_Xf_alpha_lim(VarietyQuery(f=f, candidate=fp, g=g, alpha=MleEstimate(lam=res.lam)))

    def test_overflowing_determinant_raises_without_a_warning(self):
        # det(A^T A) of the collider's parents at 1e80 is about 1e320
        f = 1e80 * np.random.default_rng(7).standard_normal((6, 3))
        fp = random_perturbation(f, seed=7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^all determinant coefficients vanish; "
                               "input is numerically invalid$"):
                limit_mle(f, fp, collider())


class TestLimitMle:
    def test_repeated_parents_after_duplication(self):
        Y = duplicate(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), 2)
        g = collider()
        fp = random_perturbation(Y, seed=21)
        res = limit_mle(Y, fp, g)
        assert res.omega == pytest.approx({1: 0.5, 2: 0.5, 3: 0.5})
        assert not res.partial
        num = limit_mle_numeric(Y, fp, g)
        assert np.max(np.abs(res.lambda_vector(g, 3) - num.lambda_vector(g, 3))) < 1e-6
        # the assembled limit is an MLE given the original sample
        assert is_mle(Y, g, res, tol=1e-8)

    def test_full_rank_reduces_to_plain_estimate(self):
        rng = np.random.default_rng(2)
        f = rng.standard_normal((6, 4))
        g = tournament(4)
        res = limit_mle(f, np.zeros((6, 4)), g)
        base = full_mle(f, g)
        for key, value in base.lam.items():
            assert abs(res.lam[key] - value) < 1e-12
        assert res.omega == pytest.approx(base.omega)

    def test_dependent_line_partial(self):
        f, fp = dependent_line_instance()
        res = limit_mle(f, fp, collider())
        assert res.partial
        assert res.omega_exists[3] is False
        assert np.max(np.abs(res.lambda_vector(collider(), 3) - [1.0, 1.0])) < 1e-12


class TestLambdaCondition:
    def test_sparse_hub_true(self):
        f, fp, *_ = sparse_hub_instance(7)
        assert check_lambda_condition(f, fp, collider()) == {3: True}

    def test_dependent_line_false(self):
        f, fp = dependent_line_instance()
        assert check_lambda_condition(f, fp, collider()) == {3: False}

    def test_full_rank_vacuous(self):
        rng = np.random.default_rng(13)
        f = rng.standard_normal((5, 3))
        assert check_lambda_condition(f, np.zeros((5, 3)), collider()) == {3: True}

    def test_condition_implies_eps_independent_estimates(self):
        f, fp, *_ = sparse_hub_instance(19)
        g = collider()
        assert all(check_lambda_condition(f, fp, g).values())
        a = mle_at_epsilon(f, fp, g, 0.3).lambda_vector(g, 3)
        b = mle_at_epsilon(f, fp, g, 0.05).lambda_vector(g, 3)
        assert np.max(np.abs(a - b)) < 1e-9

    def test_target_inside_perturbed_span_gives_exact_coefficients(self):
        # when proj(f_i) + proj(v_i) is an explicit combination of the
        # perturbed parent columns, the estimate equals those coefficients
        # exactly for every eps, not only in the limit
        rng = np.random.default_rng(26)
        g = collider()
        basis = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        u = basis[:, 0]
        w = basis[:, 1]
        a = rng.normal()
        f = np.column_stack([u, u, a * u + w])
        q = basis[:, 2]
        fp = np.column_stack([q, -q, np.zeros(6)]) / np.sqrt(2.0)
        mu = np.array([a / 2, a / 2])
        for eps in (1.0, 0.37, 0.02):
            got = mle_at_epsilon(f, fp, g, eps).lambda_vector(g, 3)
            assert np.max(np.abs(got - mu)) < 1e-12


class TestFullCondition:
    def test_star_with_existing_mle_always_true(self):
        rng = np.random.default_rng(3)
        for trial in range(8):
            f, g = star_instance(rng, 4, 6, parent_rank=int(rng.integers(1, 3)))
            fp = random_perturbation(f, seed=trial + 100)
            assert all(check_full_condition(f, fp, g).values())

    def test_nonexistent_mle_never_all_true(self):
        rng = np.random.default_rng(4)
        g = collider()
        for trial in range(8):
            f = np.zeros((5, 3))
            f[:, 0] = rng.standard_normal(5)
            f[:, 1] = rng.standard_normal(5)
            f[:, 2] = f[:, 0] + f[:, 1]  # hub in parent span: MLE nonexistent
            assert classify(f, g).status == NONEXISTENT
            fp = random_perturbation(f, seed=trial)
            assert not all(check_full_condition(f, fp, g).values())

    def test_full_rank_vacuous(self):
        rng = np.random.default_rng(6)
        f = rng.standard_normal((5, 3))
        assert check_full_condition(f, np.zeros((5, 3)), collider()) == {3: True}

    def test_unique_mle_with_kernel_off_parents(self):
        # equal non-parent columns force a nonzero hub perturbation column,
        # so no stabilisation preserves the (unique) MLE
        rng = np.random.default_rng(8)
        g = Dag(4, [(1, 4), (2, 4)])
        f = np.zeros((6, 4))
        f[:, 0] = rng.standard_normal(6)
        f[:, 1] = rng.standard_normal(6)
        f[:, 2] = rng.standard_normal(6)
        f[:, 3] = f[:, 2]
        assert classify(f, g).status == "exists-unique"
        fp = random_perturbation(f, seed=5)
        cond = check_full_condition(f, fp, g)
        assert cond[4] is False
        stab_est = full_mle(f + fp, g)
        assert not is_mle(f, g, stab_est, tol=1e-8)
        # the failure is visible in a child-vertex component: the residual
        # variance at the hub picks up the perturbation column's norm
        base = full_mle(f, g)
        assert abs(stab_est.omega[4] - base.omega[4]) > 1e-4


class TestAlphaFixed:
    def test_zero_perturbation_trivially_fixed(self):
        rng = np.random.default_rng(10)
        f = rng.standard_normal((5, 3))
        lam = {(3, 1): rng.normal(), (3, 2): rng.normal()}
        assert check_alpha_fixed(np.zeros((5, 3)), lam, collider()) == {3: True}

    def test_exact_linear_relation(self):
        # the defining relation is the exact equation v_i = sum lambda_ij v_j,
        # not its projected weakening: independent columns always fail it
        f, fp, v2, v3, b = sparse_hub_instance(12)
        assert check_alpha_fixed(fp, {(3, 1): 0.0, (3, 2): b}, collider()) == {3: False}
        # a candidate whose hub column is the exact combination satisfies it
        forced = np.column_stack([np.zeros(5), v2, b * v2])
        assert check_alpha_fixed(forced, {(3, 1): 0.0, (3, 2): b}, collider()) == {
            3: True
        }
        assert check_alpha_fixed(forced, {(3, 1): 0.0, (3, 2): b + 0.2}, collider()) == {
            3: False
        }

    def test_rejects_non_edges(self):
        with pytest.raises(ValueError, match="non-edge"):
            check_alpha_fixed(np.zeros((5, 3)), {(2, 1): 1.0}, collider())


class TestCrossMethod:
    def test_agreement_on_seeded_instances(self):
        rng = np.random.default_rng(96)
        graphs = [star(4), tournament(4), collider()]
        done = 0
        while done < 20:
            g = graphs[done % 3]
            m = g.m
            n = m + 2
            r = int(rng.integers(1, m))
            f = random_rank_deficient(rng, n, m, r)
            fp = random_perturbation(f, seed=int(rng.integers(0, 2**32)))
            ana = limit_mle(f, fp, g)
            num = limit_mle_numeric(f, fp, g)
            assert not num.diverged
            for i in g.child_vertices():
                assert (
                    np.max(np.abs(ana.lambda_vector(g, i) - num.lambda_vector(g, i)))
                    < 1e-6
                )
            done += 1

    def test_limit_solves_degenerate_system(self):
        rng = np.random.default_rng(97)
        for trial in range(10):
            g = star(4)
            f = random_rank_deficient(rng, 6, 4, int(rng.integers(1, 4)))
            fp = random_perturbation(f, seed=trial)
            res = limit_mle(f, fp, g)
            A = f[:, :3]
            fbar = project(f[:, 3], A)
            assert np.max(np.abs(A @ res.lambda_vector(g, 4) - fbar)) < 1e-8


def test_ill_scaled_columns_stay_cross_consistent():
    # with a 1e12 dynamic range across columns the exact-arithmetic limit
    # regime lies below float64 resolution; both routes must still agree
    # with each other, on the short grid and on the default one, which
    # evaluates the small perturbation at a power-of-two multiple of eps
    rng = np.random.default_rng(4)
    g = collider()
    f = np.zeros((5, 3))
    f[:, 0] = 1e6 * rng.standard_normal(5)
    f[:, 1] = 1e-6 * rng.standard_normal(5)
    f[:, 2] = 2.0 * f[:, 0] + 3.0 * f[:, 1]
    fp = random_perturbation(f, seed=123)
    ana = limit_mle(f, fp, g)
    num = limit_mle_numeric(f, fp, g, eps_grid=(1e-1, 1e-2, 1e-3))
    assert np.max(np.abs(ana.lambda_vector(g, 3) - num.lambda_vector(g, 3))) < 1e-4
    default = limit_mle_numeric(f, fp, g)
    assert np.max(np.abs(ana.lambda_vector(g, 3) - default.lambda_vector(g, 3))) < 1e-8


def test_projection_continuity_along_grid():
    rng = np.random.default_rng(15)
    f = random_rank_deficient(rng, 6, 4, 2)
    fp = random_perturbation(f, seed=2)
    A, E = f[:, :3], fp[:, :3]
    w = rng.standard_normal(6)
    grid = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
    ref = project(w, A + 1e-6 * E)
    dists = [np.linalg.norm(project(w, A + e * E) - ref) for e in grid]
    for k in range(len(dists) - 1):
        assert dists[k + 1] <= dists[k] * 1.05 + 1e-9
