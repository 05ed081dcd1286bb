from dataclasses import replace

import numpy as np
import pytest

from dagstab import (
    Dag,
    Perturbation,
    VarietyQuery,
    classify,
    covariance,
    duplicate,
    full_mle,
    in_Xf_alpha_lim,
    is_lambda_mle,
    is_mle,
    lambda_kernel_basis,
    lambda_mle,
    limit_mle,
    loglik,
    omega_mle,
)
from dagstab.graph import EXISTS_NON_UNIQUE, EXISTS_UNIQUE, NONEXISTENT
from dagstab.limits import _limit_equation_failures
from dagstab.linalg import DEFAULT_TOL, _verification_tol, rank
from dagstab.mle import GIT_LABELS, MleEstimate, _fit, _normal_equation_failures
from _helpers import (
    collider, project, random_perturbation, random_rank_deficient, random_transitive_dag,
    star_instance,
)
from test_layout import DAGS, IDS

# The worked three-variable example: two observations of three variables,
# columns (1,0), (0,1), (1,1) / (1,0), (1,0), (0,1) / the 3x3 identity.
Y_DEP = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
Y_PRIME = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
Y_ID = np.eye(3)
# the README sample and its perturbation: column 3 lies in the span of 1 and 2
LINE_SAMPLE = np.array([[1.0, 1.0, 2.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
LINE_PERT = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [-1.0, -1.0, 1.0], [0.0, 0.0, 0.0]])


class TestLambdaMle:
    def test_dependent_target(self):
        est = lambda_mle(Y_DEP, collider())
        assert est.lam == {(3, 1): pytest.approx(1.0), (3, 2): pytest.approx(1.0)}
        assert est.lambda_kernel_dims[3] == 0

    def test_repeated_parents_min_norm_representative(self):
        est = lambda_mle(Y_PRIME, collider())
        assert np.allclose(est.lambda_vector(collider(), 3), [0.0, 0.0], atol=1e-12)
        assert est.lambda_kernel_dims[3] == 1
        K = lambda_kernel_basis(Y_PRIME, collider(), 3)
        # solution set is {(t, -t)}: kernel spanned by (1, -1)/sqrt(2)
        assert K.shape == (2, 1)
        assert abs(abs(K[0, 0]) - 1 / np.sqrt(2)) < 1e-12
        assert abs(K[0, 0] + K[1, 0]) < 1e-12

    def test_identity_sample(self):
        est = lambda_mle(Y_ID, collider())
        assert np.allclose(est.lambda_vector(collider(), 3), [0.0, 0.0], atol=1e-14)
        assert est.lambda_kernel_dims[3] == 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="columns"):
            lambda_mle(Y_DEP, Dag(4, [(1, 4)]))


class TestOmegaMle:
    def test_zero_residual_is_absent(self):
        est = omega_mle(Y_DEP, collider())
        assert est.omega_exists == {1: True, 2: True, 3: False}
        assert est.omega == {1: pytest.approx(0.5), 2: pytest.approx(0.5)}

    def test_repeated_parents(self):
        est = omega_mle(Y_PRIME, collider())
        assert est.omega == {
            1: pytest.approx(0.5),
            2: pytest.approx(0.5),
            3: pytest.approx(0.5),
        }

    def test_identity(self):
        est = omega_mle(Y_ID, collider())
        assert est.omega == {
            1: pytest.approx(1 / 3),
            2: pytest.approx(1 / 3),
            3: pytest.approx(1 / 3),
        }


class TestClassify:
    def test_dependent_is_nonexistent(self):
        c = classify(Y_DEP, collider())
        assert (c.status, c.git_label, c.witness) == (NONEXISTENT, "unstable", 3)

    def test_repeated_parents_non_unique(self):
        c = classify(Y_PRIME, collider())
        assert (c.status, c.git_label, c.witness) == (EXISTS_NON_UNIQUE, "polystable", 3)

    def test_identity_unique(self):
        c = classify(Y_ID, collider())
        assert (c.status, c.git_label, c.witness) == (EXISTS_UNIQUE, "stable", None)

    def test_zero_column_without_parents(self):
        # empty parent set spans the zero space, so a zero column kills existence
        Y = np.array([[0.0, 1.0], [0.0, 2.0]])
        c = classify(Y, Dag(2, [(1, 2)]))
        assert c.status == NONEXISTENT and c.witness == 1


class TestFullMle:
    def test_merges_parts(self):
        est = full_mle(Y_PRIME, collider())
        assert est.lambda_kernel_dims[3] == 1
        assert est.omega[3] == pytest.approx(0.5)

    def test_unique_case_has_all_parts(self):
        est = full_mle(Y_ID, collider())
        assert est.all_omega_exist(collider())
        assert all(d == 0 for d in est.lambda_kernel_dims.values())


class TestCovariance:
    def test_identity_parameters(self):
        est = MleEstimate(
            lam={}, omega={1: 1.0, 2: 1.0}, omega_exists={1: True, 2: True}
        )
        assert np.allclose(covariance(est, Dag(2)), np.eye(2))

    def test_single_edge_closed_form(self):
        a = 0.7
        est = MleEstimate(
            lam={(2, 1): a}, omega={1: 1.0, 2: 1.0}, omega_exists={1: True, 2: True}
        )
        S = covariance(est, Dag(2, [(1, 2)]))
        assert np.allclose(S, [[1.0, a], [a, 1.0 + a * a]])

    def test_identity_sample_covariance(self):
        est = full_mle(Y_ID, collider())
        assert np.allclose(covariance(est, collider()), np.eye(3) / 3)

    def test_missing_omega_raises(self):
        est = full_mle(Y_DEP, collider())
        with pytest.raises(ValueError, match="missing"):
            covariance(est, collider())

    def test_missing_edge_weights_raise(self):
        # omega_mle fills only the variances; the weights of 1 -> 3 and 2 -> 3 must not read as 0
        with pytest.raises(ValueError, match=r"^edge weights missing at vertices \[3\]$"):
            covariance(omega_mle(Y_ID, collider()), collider())
        partial = MleEstimate(lam={(3, 1): 0.5}, omega={i: 1.0 for i in (1, 2, 3)},
                              omega_exists={i: True for i in (1, 2, 3)})
        with pytest.raises(ValueError, match=r"^edge weights missing at vertices \[3\]$"):
            covariance(partial, collider())

    @pytest.mark.parametrize("t", [1e200, 1e307])
    def test_overflow_raises(self, t):
        # (1 + t, 1 - t) is an MLE: the minimum-norm (1, 1) plus t times the kernel
        g = collider()
        f = np.array([[1.0, 1.0, 2.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        est = replace(full_mle(f, g), lam={(3, 1): 1.0 + t, (3, 2): 1.0 - t})
        assert is_mle(f, g, est)
        with pytest.raises(ValueError, match="overflows"):
            covariance(est, g)

    def test_overflow_in_the_inverse_raises(self):
        # kernel offsets of 1e200 at vertex 3 (parents 1 = 2) and at vertex 4
        # (parents 3 = 5): the LU of I - L overflows, which read as "singular"
        g = Dag(5, [(1, 3), (2, 3), (3, 4), (5, 4), (1, 5), (2, 5)])
        a, b, c = np.eye(6)[:3]
        f = np.column_stack([a, a, 2 * a + b, 6 * a + 3 * b + c, 2 * a + b])
        est = full_mle(f, g)
        lam = dict(est.lam)
        for (i, j), sign in {(3, 1): 1, (3, 2): -1, (4, 3): 1, (4, 5): -1}.items():
            lam[(i, j)] += sign * 1e200
        assert is_mle(f, g, replace(est, lam=lam))
        with pytest.raises(ValueError, match="overflows"):
            covariance(replace(est, lam=lam), g)


class TestLoglik:
    def test_identity_covariance(self):
        assert loglik(np.eye(2), np.eye(2)) == pytest.approx(-1.0)

    def test_sample_covariance_is_unconstrained_maximum(self):
        rng = np.random.default_rng(0)
        Y = rng.standard_normal((8, 3))
        S = Y.T @ Y / 8
        expect = -np.linalg.slogdet(S)[1] - 3
        assert loglik(S, Y) == pytest.approx(expect)
        # any other PD matrix scores no higher
        for _ in range(20):
            M = rng.standard_normal((3, 3))
            other = M @ M.T + 0.1 * np.eye(3)
            assert loglik(other, Y) <= loglik(S, Y) + 1e-12

    def test_scaled_identity(self):
        assert loglik(2 * np.eye(2), np.eye(2)) == pytest.approx(-2 * np.log(2.0) - 0.5)

    def test_trace_beyond_the_float_range_is_minus_inf(self):
        # tr(Sigma^-1 S_Y) = 2e310 here, and the solve returned NaN; at a
        # hundredth of the sample it is 2e306, still in range
        assert loglik(1e-10 * np.eye(3), 1e150 * LINE_SAMPLE) == -np.inf
        assert loglik(1e-10 * np.eye(3), 1e148 * LINE_SAMPLE) == pytest.approx(-2e306)

    @pytest.mark.parametrize("power", [-400, -100, 0, 1, 100, 400])
    def test_in_range_value_is_the_plain_formula_bit_for_bit(self, power):
        # the trace is taken in the sample's power-of-two units, which scale exactly
        rng = np.random.default_rng(power % 7)
        Y = np.ldexp(rng.standard_normal((6, 3)), power)
        M = rng.standard_normal((3, 3))
        S = np.ldexp(M @ M.T + np.eye(3), 2 * power)
        plain = -np.linalg.slogdet(S)[1] - np.trace(np.linalg.solve(S, Y.T @ Y / 6))
        assert loglik(S, Y) == float(plain)

    def test_rejects_non_pd(self):
        with pytest.raises(ValueError, match="positive definite"):
            loglik(np.diag([1.0, 0.0]), np.eye(2))
        with pytest.raises(ValueError, match="symmetric"):
            loglik(np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2))


class TestDuplicate:
    def test_single_copy_unchanged(self):
        assert np.array_equal(duplicate(Y_DEP, 1), Y_DEP)

    def test_blocks_and_invariance(self):
        Z = duplicate(Y_ID, 2)
        assert Z.shape == (6, 3)
        assert np.array_equal(Z[:3], Y_ID) and np.array_equal(Z[3:], Y_ID)
        a, b = full_mle(Y_ID, collider()), full_mle(Z, collider())
        assert a.lam == b.lam and a.omega == pytest.approx(b.omega)

    def test_row_count_reaches_variable_count(self):
        Y = np.ones((1, 3))
        k = -(-3 // 1)
        assert duplicate(Y, k).shape[0] >= 3

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            duplicate(Y_ID, 0)


class TestInvariants:
    def test_lambda_mle_total_and_normal_equations(self):
        rng = np.random.default_rng(21)
        for trial in range(25):
            m = int(rng.integers(2, 6))
            g = random_transitive_dag(rng, m)
            n = int(rng.integers(1, m + 3))
            r = int(rng.integers(0, min(n, m) + 1))
            Y = (
                rng.standard_normal((n, r)) @ rng.standard_normal((r, m))
                if r
                else np.zeros((n, m))
            )
            est = lambda_mle(Y, g)  # never raises
            for i in g.child_vertices():
                P = Y[:, [j - 1 for j in g.parents(i)]]
                resid = P.T @ (Y[:, i - 1] - P @ est.lambda_vector(g, i))
                assert np.max(np.abs(resid), initial=0.0) < 1e-9 * (
                    1 + np.max(np.abs(Y)) ** 2
                )

    def test_unique_classification_implies_complete_estimate(self):
        rng = np.random.default_rng(33)
        for trial in range(20):
            m = int(rng.integers(2, 6))
            g = random_transitive_dag(rng, m)
            Y = rng.standard_normal((m + 2, m))
            if classify(Y, g).status != EXISTS_UNIQUE:
                continue
            est = full_mle(Y, g)
            assert est.all_omega_exist(g)
            assert all(d == 0 for d in est.lambda_kernel_dims.values())

    def test_duplication_invariance_seeded(self):
        rng = np.random.default_rng(55)
        for trial in range(10):
            m = int(rng.integers(2, 5))
            g = random_transitive_dag(rng, m)
            Y = rng.standard_normal((int(rng.integers(1, m + 2)), m))
            base = full_mle(Y, g)
            for k in (2, 3):
                dup = full_mle(duplicate(Y, k), g)
                for key, value in base.lam.items():
                    assert abs(dup.lam[key] - value) < 1e-10
                assert dup.lambda_kernel_dims == base.lambda_kernel_dims
                assert dup.omega_exists == base.omega_exists
                for i, value in base.omega.items():
                    assert abs(dup.omega[i] - value) < 1e-10

    def test_mle_maximises_loglik_over_random_model_points(self):
        rng = np.random.default_rng(77)
        g = collider()
        Y = rng.standard_normal((6, 3))
        assert classify(Y, g).status == EXISTS_UNIQUE
        best = loglik(covariance(full_mle(Y, g), g), Y)
        for _ in range(100):
            lam = {(3, 1): rng.normal(), (3, 2): rng.normal()}
            omg = {i: float(rng.uniform(0.05, 4.0)) for i in (1, 2, 3)}
            est = MleEstimate(lam=lam, omega=omg, omega_exists={i: True for i in omg})
            assert loglik(covariance(est, g), Y) <= best + 1e-12

    def test_is_mle_predicates(self):
        g = collider()
        est = full_mle(Y_ID, g)
        assert is_lambda_mle(Y_ID, g, est.lam)
        assert is_mle(Y_ID, g, est)
        # non-minimum-norm solution on the repeated-parents sample still solves
        other = MleEstimate(
            lam={(3, 1): 2.0, (3, 2): -2.0},
            omega={1: 0.5, 2: 0.5, 3: 0.5},
            omega_exists={1: True, 2: True, 3: True},
        )
        assert is_lambda_mle(Y_PRIME, g, other.lam)
        assert is_mle(Y_PRIME, g, other)
        wrong = MleEstimate(
            lam={(3, 1): 2.0, (3, 2): -1.0},
            omega={1: 0.5, 2: 0.5, 3: 0.5},
            omega_exists={1: True, 2: True, 3: True},
        )
        assert not is_lambda_mle(Y_PRIME, g, wrong.lam)
        # no MLE exists given the dependent sample
        dep = MleEstimate(
            lam={(3, 1): 1.0, (3, 2): 1.0},
            omega={1: 0.5, 2: 0.5, 3: 0.1},
            omega_exists={1: True, 2: True, 3: True},
        )
        assert not is_mle(Y_DEP, g, dep)


class TestNormalEquationsAtHugeWeights:
    """The weight norm ``|x|`` overflowed to ``inf`` from about 1e155, and
    ``inf <= tol * inf`` then accepted any weights."""

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["same-sign", "opposite-sign"])
    @pytest.mark.parametrize("size", [1e155, 1e200, 1e308])
    def test_huge_weights_are_rejected(self, size, sign):
        g, lam = collider(), {(3, 1): size, (3, 2): sign * size}
        assert not is_lambda_mle(LINE_SAMPLE, g, lam)
        query = VarietyQuery(LINE_SAMPLE, LINE_PERT, g, MleEstimate(lam=lam))
        assert not in_Xf_alpha_lim(query)
        est = full_mle(Y_ID, g)
        assert not is_lambda_mle(Y_ID, g, lam)
        assert not is_mle(Y_ID, g, replace(est, lam=lam))

    @pytest.mark.parametrize("size", [1e0, 1e50, 1e150, 1e250, 1e300])
    def test_kernel_offsets_pass_and_other_offsets_fail_at_any_size(self, size):
        # the parents of vertex 5 have rank 3, so the MLEs are x + t N
        rng = np.random.default_rng(3)
        g = Dag(5, [(1, 5), (2, 5), (3, 5), (4, 5)])
        Y = random_rank_deficient(rng, 7, 5, 3)
        x, N = full_mle(Y, g).lambda_vector(g, 5), lambda_kernel_basis(Y, g, 5)[:, 0]
        off = rng.standard_normal(4)
        off -= N * (N @ off)
        keys = [(5, j) for j in range(1, 5)]
        assert is_lambda_mle(Y, g, dict(zip(keys, x + size * N)))
        assert not is_lambda_mle(Y, g, dict(zip(keys, x + size * (N + 1e-6 * off))))

    @pytest.mark.parametrize("t", [1e200, 1e307])
    def test_huge_kernel_offset_of_an_mle_is_accepted(self, t):
        # (1 + t, 1 - t) is the minimum-norm MLE (1, 1) plus t times the kernel
        g = collider()
        f = np.array([[1.0, 1.0, 2.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        est = full_mle(f, g)
        lam = {(3, 1): 1.0 + t, (3, 2): 1.0 - t}
        assert is_lambda_mle(f, g, lam)
        assert is_mle(f, g, replace(est, lam=lam))


# -- the grouped fit against the per-vertex loop it replaced -----------------

# Fixed before the grouped fit was written: coefficient vectors and variances
# agree with the per-vertex reference within this relative distance.
REFERENCE_RTOL = 1e-9


def _reference_mle(Y, g: Dag, tol: float = DEFAULT_TOL):
    """One least-squares solve and one projection per vertex.  ``lstsq``
    (LAPACK's gelsd) drops the singular values ``s <= rcond * s_max``, the
    cut of ``_kept``, and its rank gives the kernel dimension."""
    lam, kdims, omega, exists = {}, {}, {}, {}
    for i in range(1, g.m + 1):
        pa = g.parents(i)
        P = Y[:, [j - 1 for j in pa]]
        col = Y[:, i - 1]
        kdims[i] = 0
        if pa:
            x, _, r, _ = np.linalg.lstsq(P, col, rcond=tol)
            lam.update(zip([(i, j) for j in pa], x))
            kdims[i] = len(pa) - int(r)
        resid = col - project(col, P, tol)
        exists[i] = bool(np.linalg.norm(resid) > tol * (1.0 + np.linalg.norm(col)))
        if exists[i]:
            omega[i] = float(resid @ resid) / Y.shape[0]
    return MleEstimate(lam=lam, lambda_kernel_dims=kdims, omega=omega, omega_exists=exists)


def _reference_classify(Y, g: Dag, tol: float = DEFAULT_TOL):
    """The paper's definition: nonexistent at the first vertex whose
    variance does not exist, else non-unique at the first vertex whose
    parent-and-self submatrix is rank deficient.  That rank is taken with
    each column scaled to unit norm (a zero column stays zero), which
    cannot change it in exact arithmetic."""
    ref = _reference_mle(Y, g, tol)
    for i in range(1, g.m + 1):
        if not ref.omega_exists[i]:
            return NONEXISTENT, i
    for i in range(1, g.m + 1):
        M = Y[:, [c - 1 for c in sorted(g.parents(i) + [i])]]
        norms = np.linalg.norm(M, axis=0)
        if rank(M / np.where(norms > 0, norms, 1.0), tol) < M.shape[1]:
            return EXISTS_NON_UNIQUE, i
    return EXISTS_UNIQUE, None


def _mixed_dag() -> Dag:
    # parent counts 0, 1, 1, 2, 2, 3, 0, 4, 4
    return Dag(9, [(1, 2), (2, 3), (1, 4), (2, 4), (3, 5), (4, 5), (1, 6), (3, 6),
                   (5, 6), (2, 8), (4, 8), (6, 8), (7, 8), (5, 9), (6, 9), (7, 9), (8, 9)])


def _reference_cases():
    rng = np.random.default_rng(2311)
    mixed = _mixed_dag()
    cases = [
        ("mixed-full-rank", rng.standard_normal((12, 9)), mixed),
        ("mixed-rank-5", random_rank_deficient(rng, 12, 9, 5), mixed),
        ("rank-1", random_rank_deficient(rng, 6, 9, 1), mixed),
        ("rank-1-one-row", rng.standard_normal((1, 9)), mixed),
    ]
    wide = Dag(7, [(j, 7) for j in range(1, 7)] + [(j, 6) for j in range(1, 6)] + [(1, 4), (2, 4)])
    cases.append(("more-parents-than-rows", rng.standard_normal((3, 7)), wide))

    Y = rng.standard_normal((8, 9))
    Y[:, 6] = Y[:, 3]       # vertex 7 duplicates vertex 4, both parents of 8
    cases.append(("duplicated-parents", Y, mixed))
    Y = Y.copy()
    Y[:, 1] = 0.0           # zero parent column of vertices 3, 4 and 8
    cases.append(("zero-and-duplicated-parents", Y, mixed))
    Y = Y.copy()
    Y[:, 2] = 0.0           # zero target with parent 2
    cases.append(("zero-target", Y, mixed))
    Y = rng.standard_normal((8, 9))
    Y[:, 5] = Y[:, 2]       # vertex 6 repeats its parent 3
    cases.append(("target-duplicates-parent", Y, mixed))

    scales = 10.0 ** rng.permutation(np.linspace(-6.0, 6.0, 9))
    cases.append(("scaled-1e-6-to-1e6", rng.standard_normal((15, 9)) * scales, mixed))
    cases.append(("scaled-rank-4", random_rank_deficient(rng, 15, 9, 4) * scales, mixed))
    for trial in range(12):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(1, m + 3))
        Y = random_rank_deficient(rng, n, m, int(rng.integers(1, min(n, m) + 1)))
        cases.append((f"random-{trial}", Y, random_transitive_dag(rng, m)))
    # four rows: the 4-parent blocks of vertices 8 and 9 are square
    cases.append(("square-blocks", rng.standard_normal((4, 9)), mixed))
    cases.append(("duplicated-rows", np.repeat(rng.standard_normal((5, 9)), 2, axis=0), mixed))
    return cases


def _assert_close(actual, expected, what):
    dist = float(np.linalg.norm(np.asarray(actual) - np.asarray(expected)))
    assert dist <= REFERENCE_RTOL * float(np.linalg.norm(expected)), (what, actual, expected)


class TestGroupedFitMatchesPerVertexLoop:
    @pytest.mark.parametrize(
        "Y,g", [pytest.param(Y, g, id=label) for label, Y, g in _reference_cases()]
    )
    def test_matches_reference(self, Y, g):
        ref = _reference_mle(Y, g)
        est = full_mle(Y, g)
        lpart = lambda_mle(Y, g)
        opart = omega_mle(Y, g)
        assert est.lambda_kernel_dims == lpart.lambda_kernel_dims == ref.lambda_kernel_dims
        assert est.omega_exists == opart.omega_exists == ref.omega_exists
        assert est.lam.keys() == lpart.lam.keys() == ref.lam.keys()
        assert est.omega.keys() == opart.omega.keys() == ref.omega.keys()
        for i in g.child_vertices():
            expected = ref.lambda_vector(g, i)
            _assert_close(est.lambda_vector(g, i), expected, ("lambda", i))
            _assert_close(lpart.lambda_vector(g, i), expected, ("lambda", i))
        for i, value in ref.omega.items():
            _assert_close(est.omega[i], value, ("omega", i))
            _assert_close(opart.omega[i], value, ("omega", i))
        fit = _fit(Y, g, DEFAULT_TOL)
        assert (g._parent_counts - fit.rank).tolist() == list(ref.lambda_kernel_dims.values())
        assert fit.exists.tolist() == list(ref.omega_exists.values())
        c = classify(Y, g)
        assert (c.status, c.witness) == _reference_classify(Y, g)
        assert c.git_label == GIT_LABELS[c.status]
        if ref.all_omega_exist(g):
            assert is_mle(Y, g, ref)

    def test_cases_cover_every_status(self):
        seen = {_reference_classify(Y, g)[0] for _, Y, g in _reference_cases()}
        assert seen == {NONEXISTENT, EXISTS_NON_UNIQUE, EXISTS_UNIQUE}


def _stack_samples(g: Dag, n: int, seed: int) -> list[np.ndarray]:
    """``n x m`` samples of ``g``: full rank, rank deficient, with two parent
    columns of one child proportional, and with a zero parent column.  At
    ``n = 2`` every block of more than two parents is wide."""
    rng = np.random.default_rng(seed)
    out = [rng.standard_normal((n, g.m)), random_rank_deficient(rng, n, g.m, 1)]
    parents = next((pa for pa in map(g.parents, range(1, g.m + 1)) if len(pa) > 1), None)
    if parents:
        Y = rng.standard_normal((n, g.m))
        Y[:, parents[1] - 1] = 2.0 * Y[:, parents[0] - 1]
        out.append(Y)
    if g.edges:
        Y = rng.standard_normal((n, g.m))
        Y[:, int(g._edge_keys[0, 1]) - 1] = 0.0
        out.append(Y)
    return out


def _assert_same_bits(got, want, what):
    assert (got.shape, got.dtype) == (want.shape, want.dtype), what
    assert got.tobytes() == want.tobytes(), what


@pytest.mark.parametrize("g", DAGS, ids=IDS)
def test_stacked_fit_is_the_single_fits_bit_for_bit(g):
    """One fit of an ``(S, n, m)`` stack gives, per sample, every field of
    the fit of that sample alone, bit for bit."""
    for n in (2, g.m + 2):
        samples = _stack_samples(g, n, 10 * g.m + n)
        stacked = _fit(np.stack(samples), g, DEFAULT_TOL)
        assert len(stacked) == len(samples)
        for k, (got, Y) in enumerate(zip(stacked, samples)):
            want = _fit(Y, g, DEFAULT_TOL)
            for name in ("coef", "rank", "resid_sq", "exists"):
                _assert_same_bits(getattr(got, name), getattr(want, name), (n, k, name))
            assert len(got.spans) == len(want.spans)
            for grp, (a, b) in enumerate(zip(got.spans, want.spans)):
                assert len(a) == len(b)
                for field, (x, y) in enumerate(zip(a, b)):
                    _assert_same_bits(x, y, (n, k, "spans", grp, field))


class TestStackedLimitCheck:
    """The one stacked check of ``f`` and ``f'`` in ``limit_mle`` gives each
    sample's own list, and returns what the check of ``f`` and then, if it
    passes, that of ``f'`` returns."""

    @pytest.mark.parametrize("case", ["both-pass", "f-fails", "only-fp-fails"])
    def test_equals_the_sequential_checks(self, case):
        f, g = star_instance(np.random.default_rng(5), 4, 6, parent_rank=2)
        pert = Perturbation(f, random_perturbation(f, seed=9))
        lam = dict(limit_mle(None, pert, g).lam)
        hub = g.m  # its three parent columns have rank 2
        if case == "f-fails":
            lam[(hub, 1)] += 1.0
        elif case == "only-fp-fails":  # a step in ker A leaves f's equations as they are
            for j, v in zip(g.parents(hub), lambda_kernel_basis(f, g, hub)[:, 0]):
                lam[(hub, j)] += v
        fit = _fit(pert.base, g, DEFAULT_TOL)
        check = _verification_tol(DEFAULT_TOL)
        bad_f = _normal_equation_failures(pert.base, g, lam, check)
        bad_fp = _normal_equation_failures(pert.delta, g, lam, check, fit)
        want = {"both-pass": ([], []), "f-fails": ([hub], [hub]), "only-fp-fails": ([], [hub])}
        assert (bad_f, bad_fp) == want[case]
        stack = np.stack([pert.base, pert.delta])
        assert _normal_equation_failures(stack, g, lam, check, fit) == [bad_f, bad_fp]
        assert _limit_equation_failures(pert, g, lam, DEFAULT_TOL, fit) == (bad_f or bad_fp)
