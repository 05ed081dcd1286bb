"""Acceptance suite.

One test per acceptance criterion, each at its stated tolerance, printing a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import functools
import time

import numpy as np
import pytest

from dagstab import (
    Dag,
    InvalidPerturbationError,
    MleEstimate,
    VarietyQuery,
    build_from_lift,
    classify,
    duplicate,
    full_mle,
    in_Xf_alpha_lim,
    is_perturbation,
    limit_mle,
    limit_mle_numeric,
    mle_at_epsilon,
    mlt,
    random_lift,
    rank,
    regime,
    stabilize,
    star,
    star_min_norm_mle,
    unshielded_colliders,
)
from dagstab.graph import (
    ABOVE_NO_COLLIDERS,
    ABOVE_WITH_COLLIDERS,
    BELOW_DEPTH,
    BETWEEN,
    EXISTS_NON_UNIQUE,
    EXISTS_UNIQUE,
    NONEXISTENT,
    depth,
)
from dagstab.limits import check_full_condition
from _helpers import (
    collider,
    project,
    random_perturbation,
    random_rank_deficient,
    random_transitive_dag,
    star_instance,
    tournament,
)


MODULE_START = time.perf_counter()


def criterion(num, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[acceptance] criterion {num:2d}: FAIL - {title}")
                raise
            print(f"\n[acceptance] criterion {num:2d}: PASS - {title}")

        return wrapper

    return decorate


@criterion(1, "three-variable worked example: estimates, kernel dims, runtime")
def test_criterion_1_worked_example():
    g = collider()
    Y = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    Yp = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    Ypp = np.eye(3)
    tol = 1e-10

    c = classify(Y, g)
    assert c.status == NONEXISTENT
    est = full_mle(Y, g)
    assert abs(est.lam[(3, 1)] - 1.0) < tol and abs(est.lam[(3, 2)] - 1.0) < tol

    est = full_mle(Yp, g)
    assert est.lambda_kernel_dims[3] == 1
    assert np.max(np.abs(est.lambda_vector(g, 3))) < tol  # minimum-norm rep (0, 0)
    for i in (1, 2, 3):
        assert abs(est.omega[i] - 0.5) < tol

    est = full_mle(Ypp, g)
    assert np.max(np.abs(est.lambda_vector(g, 3))) < tol
    for i in (1, 2, 3):
        assert abs(est.omega[i] - 1.0 / 3.0) < tol

    for sample in (Y, Yp, Ypp):
        best = min(
            _timed(lambda: (full_mle(sample, g), classify(sample, g)))
            for _ in range(20)
        )
        assert best < 1e-3, f"estimation took {best * 1e3:.3f} ms"


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


@criterion(2, "numeric limit: convergent and divergent model systems")
def test_criterion_2_numeric_limit_examples():
    # both systems on the collider: the parents of vertex 3 are e1 and the
    # perturbation's e2; vertex 3's target is e2 in f (divergent) or in f'
    g = collider()
    f = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    fp = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    # (e1, eps e2) -> e2 has weights (0, 1/eps): f' is not orthogonal to f
    assert is_perturbation(f, fp).failures == ("column-orthogonality",)
    with pytest.raises(InvalidPerturbationError, match="column-orthogonality"):
        limit_mle_numeric(f, fp, g)

    f[:, 2] = 0.0
    fp = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    # (e1, eps e2) -> eps (e2 + e3) has weights (0, 1) for every eps
    assert is_perturbation(f, fp).ok
    for res in (limit_mle_numeric(f, fp, g), limit_mle(f, fp, g)):
        assert not res.diverged
        assert np.max(np.abs(res.lambda_vector(g, 3) - [0.0, 1.0])) < 1e-8


@criterion(3, "closed-form path and analytic limit on the dependent-line sample")
def test_criterion_3_dependent_line_closed_form():
    g = collider()
    f = np.array(
        [[1.0, 1.0, 2.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    )
    v = np.array([0.0, 0.0, 1.0, 0.0])
    fp = np.column_stack([-v, -v, v])
    for eps in (0.5, 0.1, 0.01):
        got = mle_at_epsilon(f, fp, g, eps).lambda_vector(g, 3)
        expect = np.array([(1.0 - 2.0 * eps**2) / (1.0 + eps**2), 1.0])
        assert np.max(np.abs(got - expect)) < 1e-10
    limit = limit_mle(f, fp, g).lambda_vector(g, 3)
    assert np.max(np.abs(limit - [1.0, 1.0])) < 1e-12


@criterion(4, "limit-variety membership at the projection ratio (50 seeds)")
def test_criterion_4_limit_variety_ratio():
    g = collider()
    for seed in range(50):
        rng = np.random.default_rng(seed)
        f = np.zeros((5, 3))
        f[0, 0] = 1.0
        v2 = np.concatenate([[0.0], rng.standard_normal(4)])
        v3 = np.concatenate([[0.0], rng.standard_normal(4)])
        fp = np.column_stack([np.zeros(5), v2, v3])
        b = float(v2 @ v3 / (v2 @ v2))
        good = MleEstimate(lam={(3, 1): 0.0, (3, 2): b})
        bad = MleEstimate(lam={(3, 1): 0.0, (3, 2): b + 0.01})
        assert in_Xf_alpha_lim(VarietyQuery(f=f, candidate=fp, g=g, alpha=good, tol=1e-8))
        assert not in_Xf_alpha_lim(
            VarietyQuery(f=f, candidate=fp, g=g, alpha=bad, tol=1e-8)
        )


@criterion(5, "star graphs: every stabilisation recovers the minimum-norm MLE")
def test_criterion_5_star_minimum_norm():
    rng = np.random.default_rng(500)
    ms = [3, 4, 5] * 10
    for idx, m in enumerate(ms):
        parent_rank = int(rng.integers(1, m - 1))
        f, g = star_instance(rng, m, m + int(rng.integers(0, 3)), parent_rank)
        mn = star_min_norm_mle(f, g)
        hub = m
        for lift_no in range(3):
            seed = int(rng.integers(0, 2**32))
            est = full_mle(stabilize(f, build_from_lift(random_lift(f, seed))), g)
            # edge weights and the hub residual variance are preserved;
            # source variances shift by the perturbation column norms
            assert (
                np.max(np.abs(est.lambda_vector(g, hub) - mn.lambda_vector(g, hub)))
                < 1e-8
            )
            assert abs(est.omega[hub] - mn.omega[hub]) < 1e-8


@criterion(6, "stabilised samples have full column rank (200 seeded pairs)")
def test_criterion_6_stabilisation_rank():
    rng = np.random.default_rng(600)
    failures = 0
    count = 0
    while count < 200:
        m = int(rng.integers(3, 7))
        n = m + (2 if rng.random() < 0.5 else 0)
        r = int(rng.integers(0, m))
        f = random_rank_deficient(rng, n, m, r)
        seed = int(rng.integers(0, 2**32))
        out = stabilize(f, build_from_lift(random_lift(f, seed)))
        if rank(out, 1e-10) != m:
            failures += 1
        count += 1
    assert failures == 0


@criterion(7, "analytic and numeric limits agree to 1e-6 (100 seeded triples)")
def test_criterion_7_cross_method_agreement():
    rng = np.random.default_rng(700)
    graphs = [star(4), tournament(4), collider()]
    done = 0
    worst = 0.0
    while done < 100:
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
            delta = float(
                np.max(np.abs(ana.lambda_vector(g, i) - num.lambda_vector(g, i)))
            )
            worst = max(worst, delta)
            assert delta < 1e-6
        done += 1
    print(f"\n[acceptance]   worst cross-method deviation: {worst:.3e}")


@criterion(8, "estimates invariant under vertical duplication (20 seeded samples)")
def test_criterion_8_duplication_invariance():
    rng = np.random.default_rng(800)
    for trial in range(20):
        m = int(rng.integers(2, 6))
        g = random_transitive_dag(rng, m)
        n = int(rng.integers(1, m + 3))
        r = int(rng.integers(1, min(n, m) + 1))
        Y = random_rank_deficient(rng, n, m, r)
        base = full_mle(Y, g)
        for k in (2, 3):
            dup = full_mle(duplicate(Y, k), g)
            assert dup.lambda_kernel_dims == base.lambda_kernel_dims
            assert dup.omega_exists == base.omega_exists
            for key, value in base.lam.items():
                assert abs(dup.lam[key] - value) < 1e-10
            for i, value in base.omega.items():
                assert abs(dup.omega[i] - value) < 1e-10


def _longest_path_from(g):
    out = {i: 0 for i in range(1, g.m + 1)}
    for v in reversed(g.topological_order()):
        children = g.children(v)
        if children:
            out[v] = 1 + max(out[c] for c in children)
    return out


def _find_dags(rng, predicate, count, max_tries=3000):
    found = []
    tries = 0
    while len(found) < count and tries < max_tries:
        tries += 1
        m = int(rng.integers(3, 7))
        g = random_transitive_dag(rng, m, edge_prob=float(rng.uniform(0.2, 0.7)))
        if predicate(g):
            found.append(g)
    assert len(found) == count, "could not generate enough DAGs"
    return found


@criterion(9, "sample-count regimes realise exactly the tabulated outcome sets")
def test_criterion_9_regimes():
    rng = np.random.default_rng(900)

    # row 1: up to depth-many samples, the MLE never exists
    for g in _find_dags(rng, lambda g: depth(g) >= 1, 10):
        d = depth(g)
        n = int(rng.integers(1, d + 1))
        reg = regime(g, n)
        assert reg.label == BELOW_DEPTH and reg.outcomes == {NONEXISTENT}
        Y = rng.standard_normal((n, g.m))
        assert classify(Y, g).status == NONEXISTENT

    # row 2: between depth and threshold, nonexistent generically but
    # existence (never uniqueness) at the longest-path construction
    for g in _find_dags(rng, lambda g: mlt(g) >= depth(g) + 2, 10):
        d, t = depth(g), mlt(g)
        n = int(rng.integers(d + 1, t))
        reg = regime(g, n)
        assert reg.label == BETWEEN
        assert reg.outcomes == {NONEXISTENT, EXISTS_NON_UNIQUE}
        generic = rng.standard_normal((n, g.m))
        assert classify(generic, g).status == NONEXISTENT
        basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
        levels = _longest_path_from(g)
        crafted = np.column_stack([basis[:, levels[i]] for i in range(1, g.m + 1)])
        assert classify(crafted, g).status == EXISTS_NON_UNIQUE

    # row 3: at or above the threshold with unshielded colliders, all three
    # outcomes occur
    for g in _find_dags(rng, lambda g: len(unshielded_colliders(g)) > 0, 10):
        n = mlt(g)
        reg = regime(g, n)
        assert reg.label == ABOVE_WITH_COLLIDERS
        assert reg.outcomes == {NONEXISTENT, EXISTS_NON_UNIQUE, EXISTS_UNIQUE}
        generic = rng.standard_normal((n, g.m))
        assert classify(generic, g).status == EXISTS_UNIQUE
        zeroed = generic.copy()
        zeroed[:, 0] = 0.0
        assert classify(zeroed, g).status == NONEXISTENT
        j, i, k = unshielded_colliders(g)[0]
        copied = generic.copy()
        copied[:, k - 1] = copied[:, j - 1]
        assert classify(copied, g).status == EXISTS_NON_UNIQUE

    # row 4: at or above the threshold without unshielded colliders,
    # non-uniqueness is impossible
    def no_colliders(g):
        return len(g.edges) >= 1 and not unshielded_colliders(g)

    for g in _find_dags(rng, no_colliders, 10):
        n = mlt(g)
        reg = regime(g, n)
        assert reg.label == ABOVE_NO_COLLIDERS
        assert reg.outcomes == {NONEXISTENT, EXISTS_UNIQUE}
        generic = rng.standard_normal((n, g.m))
        assert classify(generic, g).status == EXISTS_UNIQUE
        zeroed = generic.copy()
        zeroed[:, 0] = 0.0
        assert classify(zeroed, g).status == NONEXISTENT


def _child_components_are_mle(f, g, est, tol=1e-8):
    """Substitute the estimate into the per-vertex projection equations of
    the base sample: edge weights must solve the normal equations and the
    child residual variances must match the base residuals."""
    F = np.asarray(f, dtype=float)
    n = F.shape[0]
    for i in g.child_vertices():
        P = F[:, [j - 1 for j in g.parents(i)]]
        b = F[:, i - 1]
        lam_i = est.lambda_vector(g, i)
        normal = P.T @ (b - P @ lam_i)
        scale = 1.0 + np.linalg.norm(P.T @ b) + np.linalg.norm(P.T @ P) * np.linalg.norm(lam_i)
        if np.linalg.norm(normal) > tol * scale:
            return False
        resid = b - project(b, P)
        w = float(resid @ resid) / n
        if not est.omega_exists.get(i, False):
            return False
        if abs(est.omega[i] - w) > tol * (1.0 + w):
            return False
    return True


@criterion(10, "child-vertex condition equivalence over 50 mixed instances")
def test_criterion_10_condition_equivalence():
    rng = np.random.default_rng(1000)
    true_count = 0
    for trial in range(50):
        kind = trial % 4
        if kind == 0:
            # star with an existing MLE: conditions always hold
            m = int(rng.integers(3, 6))
            f, g = star_instance(rng, m, m + 2, int(rng.integers(1, m - 1)))
        elif kind == 1:
            # equal parent columns under a collider: conditions hold
            g = collider()
            basis = np.linalg.qr(rng.standard_normal((6, 6)))[0]
            u = basis[:, 0] * rng.uniform(0.5, 2.0)
            w = basis[:, 1] * rng.uniform(0.5, 2.0)
            f = np.column_stack([u, u, rng.normal() * u + w])
        elif kind == 2:
            # hub column inside the parent span: no MLE, conditions must fail
            g = collider()
            f = np.zeros((5, 3))
            f[:, 0] = rng.standard_normal(5)
            f[:, 1] = rng.standard_normal(5)
            f[:, 2] = f[:, 0] + rng.normal() * f[:, 1]
        else:
            # equal columns off the parent sets: unique MLE that no
            # stabilisation preserves
            g = Dag(4, [(1, 4), (2, 4)])
            f = rng.standard_normal((6, 4))
            f[:, 3] = f[:, 2]
        fp = random_perturbation(f, seed=int(rng.integers(0, 2**32)))
        all_true = all(check_full_condition(f, fp, g).values())
        est = full_mle(stabilize(f, fp), g)
        matches = _child_components_are_mle(f, g, est)
        assert all_true == matches, f"trial {trial}: {all_true} vs {matches}"
        true_count += int(all_true)
    assert 0 < true_count < 50  # both sides of the equivalence were exercised
    # criterion 10 runs last: the whole acceptance module stays under 30 s
    assert time.perf_counter() - MODULE_START < 30.0
