"""The oracle against exact rational arithmetic on small integer problems.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import oracle  # noqa: E402


def integer_matrix(rng, n, m, r) -> np.ndarray:
    return rng.integers(-3, 4, (n, r)) @ rng.integers(-3, 4, (r, m))


def exact_perturbation(F: sp.Matrix, rng) -> sp.Matrix:
    """A map from the kernel of F into the orthogonal complement of its
    image, in exact arithmetic."""
    K = sp.Matrix.hstack(*F.nullspace())
    C = sp.Matrix.hstack(*F.T.nullspace())
    M = sp.Matrix(rng.integers(-3, 4, (C.shape[1], K.shape[1])))
    while M.rank() < K.shape[1]:
        M = sp.Matrix(rng.integers(-3, 4, (C.shape[1], K.shape[1])))
    return C * M * K.T


def as_float(M: sp.Matrix) -> np.ndarray:
    return np.array(M.evalf(30).tolist(), dtype=float)


CASES = [(n, m, r, s) for n, m, r in ((5, 4, 2), (6, 5, 3), (6, 6, 1), (7, 5, 4)) for s in range(3)]


@pytest.mark.parametrize("n,m,r,seed", CASES)
def test_rank_null_space_and_min_norm(n, m, r, seed):
    rng = np.random.default_rng(seed)
    A = integer_matrix(rng, n, m, r)
    b = rng.integers(-5, 6, n)
    exact = sp.Matrix(A)
    assert oracle.rank(A) == exact.rank()
    N = oracle.null_space(A)
    assert N.shape[1] == len(exact.nullspace())
    assert np.max(np.abs(A @ N), initial=0.0) < 1e-12
    x = as_float(exact.pinv() * sp.Matrix(b)).ravel()
    assert np.max(np.abs(oracle.min_norm(A, b) - x)) < 1e-12 * (1 + np.max(np.abs(x)))


def exact_limit(A, E, b, v) -> sp.Matrix:
    """The nullspace-method limit in exact rational arithmetic."""
    A, E, b, v = (sp.Matrix(X) for X in (A, E, b, v))
    x = A.pinv() * b
    kernel = A.nullspace()
    if kernel:
        N = sp.Matrix.hstack(*kernel)
        x += N * ((E * N).pinv() * (v - E * x))
    return x


def exact_solution_at(A, E, b, v, eps) -> sp.Matrix:
    """The least-squares solution of (A + eps E) x = b + eps v at a
    rational eps, from the normal equations."""
    Ae = sp.Matrix(A) + eps * sp.Matrix(E)
    be = sp.Matrix(b) + eps * sp.Matrix(v)
    return (Ae.T * Ae).LUsolve(Ae.T * be)


@pytest.mark.parametrize("seed", range(4))
def test_limit_matches_exact_limit(seed):
    rng = np.random.default_rng(seed)
    n, m = 5, 4
    F = integer_matrix(rng, n, m, 2)
    Fx = sp.Matrix(F)
    D = exact_perturbation(Fx, rng)
    Df = as_float(D)
    pa = {1: [], 2: [1], 3: [1, 2], 4: [1, 2, 3]}
    got = oracle.limit_lambda(F.astype(float), Df, pa)
    for i, p in pa.items():
        if not p:
            continue
        idx = [j - 1 for j in p]
        system = (F[:, idx], D[:, idx], F[:, i - 1], D[:, i - 1])
        want = exact_limit(*system)
        # The path approaches its limit at rate eps^2.
        near = exact_solution_at(*system, sp.Rational(1, 10**4))
        assert max(abs(x) for x in (near - want).evalf(30)) < 1e-6 * (1 + max(abs(x) for x in want))
        want = as_float(want).ravel()
        assert np.max(np.abs(got[i] - want)) < 1e-10 * (1 + np.max(np.abs(want)))


@pytest.mark.parametrize("seed", range(4))
def test_perturbation_conditions(seed):
    rng = np.random.default_rng(seed)
    F = integer_matrix(rng, 6, 4, 2)
    D = as_float(exact_perturbation(sp.Matrix(F), rng))
    assert oracle.perturbation_failures(F, D) == []
    assert "column-orthogonality" in oracle.perturbation_failures(F, D + F)
    assert "rank" in oracle.perturbation_failures(F, 0 * D)


def exact_in_span(t, A) -> bool:
    A = sp.Matrix(A)
    return A.rank() == sp.Matrix.hstack(A, sp.Matrix(t)).rank()


@pytest.mark.parametrize("n,m,r,seed", CASES)
def test_classify_and_mle_from_definitions(n, m, r, seed):
    rng = np.random.default_rng(100 + seed)
    Y = integer_matrix(rng, n, m, r).astype(float)
    pa = {i: list(range(max(1, i - 2), i)) for i in range(1, m + 1)}
    status, witness = oracle.classify(Y, pa)
    Yx = sp.Matrix(Y.astype(int))
    nonexistent = [i for i, p in pa.items() if exact_in_span(Yx[:, i - 1], Yx.extract(list(range(n)), [j - 1 for j in p]))]
    if nonexistent:
        assert (status, witness) == ("nonexistent", nonexistent[0])
    else:
        deficient = [
            i for i, p in pa.items()
            if Yx.extract(list(range(n)), sorted(j - 1 for j in p + [i])).rank() < len(p) + 1
        ]
        expected = ("exists-non-unique", deficient[0]) if deficient else ("exists-unique", None)
        assert (status, witness) == expected
    ref = oracle.mle(Y, pa)
    for i, p in pa.items():
        P = Yx.extract(list(range(n)), [j - 1 for j in p])
        y = Yx[:, i - 1]
        if p:
            x = as_float(P.pinv() * y).ravel()
            assert np.max(np.abs(ref["lam"][i] - x)) < 1e-10 * (1 + np.max(np.abs(x)))
        resid = y - P * (P.pinv() * y) if p else y
        norm2 = float((resid.T * resid)[0])
        assert ref["exists"][i] == (norm2 > 0)
        if norm2 > 0:
            assert abs(ref["omega"][i] - norm2 / n) < 1e-10 * (1 + norm2)


def test_cli_membership_cases_satisfy_their_construction():
    """The star-graph candidate built to lie inside the varieties fixes the
    minimum-norm alpha: v_hub equals the alpha-weighted parent columns."""
    cases = checks.cli_cases(seed=5)
    inside = next(c for c in cases if c["label"].endswith("inside"))
    moved = next(c for c in cases if c["label"].endswith("moved-alpha"))
    D = np.array(inside["problem"]["perturbation"])
    for case, fixed in ((inside, True), (moved, False)):
        lam = np.array([v for _, _, v in case["problem"]["alpha"]["lambda"]])
        resid = D[:, -1] - D[:, :-1] @ lam
        assert (np.linalg.norm(resid) < 1e-10) == fixed
