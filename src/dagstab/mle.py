"""Maximum likelihood estimation in Gaussian DAG models.

Each variable is a linear combination of its parents plus independent
mean-zero Gaussian noise.  A sample is an ``n x m`` matrix ``Y`` whose rows
are observations and whose columns ``Y^(k)`` are variables; the mean is
assumed known to be zero throughout.

The edge-weight estimate at a child vertex ``i`` consists of the
coefficients of the parent columns in the orthogonal projection of
``Y^(i)`` onto their span; the variance estimate is ``1/n`` times the
squared residual of that projection, and exists only when the residual is
strictly positive.  All functions are pure and thread-safe.

Every estimator, the classification and :mod:`dagstab.limits` read fits of
whole samples.  The grouping of the child vertices by parent count ``p``,
the edge order and the parent counts are the DAG's layout, built once by
:class:`dagstab.graph.Dag`; :func:`_groups` stacks each group's parent and
target columns from it, and every edge-weight vector is stacked in its edge
order.  Each group's parent submatrices go through one stacked
``n x p`` SVD; the rank (the cut of :func:`dagstab.linalg._kept`), the
minimum-norm coefficients, the projection, the residual and the kept
singular vectors all come from it, and ``classify`` reads existence and
uniqueness from that rank and residual.  One normal-equations check,
stacked per group, serves ``is_lambda_mle``, ``is_mle``,
``limits.limit_mle`` and ``in_Xf_alpha_lim``.
Zero tests go through :func:`dagstab.linalg._negligible`: a variance exists
when ``|y - proj y| > tol |y|``, and the normal equations hold when
``|P^T (y - P x)| <= tol (|P^T y| + |P^T P| |x|)``, so no answer depends on
the scale of the sample.  The sample is validated once per public call.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .graph import EXISTS_NON_UNIQUE, EXISTS_UNIQUE, NONEXISTENT, Dag
from .linalg import (
    DEFAULT_TOL, _as_matrix, _check_squares, _kept, _negligible, _unit_scaled, kernel_basis,
)

# Geometric-invariant-theory aliases for the three classification outcomes.
GIT_LABELS = {
    NONEXISTENT: "unstable",
    EXISTS_NON_UNIQUE: "polystable",
    EXISTS_UNIQUE: "stable",
}


def _as_sample(Y, name: str = "sample") -> np.ndarray:
    A = _as_matrix(Y, name)
    if A.size == 0:
        raise ValueError(f"{name} must be non-empty, got shape {A.shape}")
    return A


def _validated(Y, g: Dag, name: str = "sample") -> np.ndarray:
    """The one check of a matrix with one column per vertex of ``g``."""
    A = _as_sample(Y, name)
    if A.shape[1] != g.m:
        raise ValueError(f"{name} has {A.shape[1]} columns but the DAG has {g.m} vertices")
    _check_squares(A, name)
    return A


@dataclass(frozen=True)
class MleEstimate:
    """Edge-weight and variance estimates, possibly partial.

    ``lam`` maps ``(i, j)`` to the coefficient of parent ``j`` at child ``i``
    (present exactly for the edges ``j -> i`` of the DAG; the returned
    representative is the minimum-norm solution when the solution set is a
    translate of a positive-dimensional space).  ``lambda_kernel_dims[i]``
    is the dimension of that translate space.  ``omega`` holds variance
    estimates only at vertices where they exist; ``omega_exists`` records
    existence for every vertex.
    """

    lam: dict[tuple[int, int], float] = field(default_factory=dict)
    lambda_kernel_dims: dict[int, int] = field(default_factory=dict)
    omega: dict[int, float] = field(default_factory=dict)
    omega_exists: dict[int, bool] = field(default_factory=dict)

    def lambda_vector(self, g: Dag, i: int) -> np.ndarray:
        """Coefficients at child ``i``, ordered by ascending parent."""
        return np.array([self.lam[(i, j)] for j in g.parents(i)])

    def all_omega_exist(self, g: Dag) -> bool:
        return all(self.omega_exists.get(i, False) for i in range(1, g.m + 1))


@dataclass(frozen=True)
class Classification:
    """MLE existence/uniqueness status with its GIT-stability alias.

    ``witness`` names a vertex certifying nonexistence (its column lies in
    the parent span) or non-uniqueness (its parent columns are rank
    deficient); ``None`` in the unique case.
    """

    status: str
    git_label: str
    witness: int | None


def duplicate(Y, k: int) -> np.ndarray:
    """Stack ``Y`` vertically ``k`` times.

    MLEs are invariant under this map, which is how samples with fewer
    observations than variables are lifted to the ``n >= m`` setting.
    """
    A = _as_sample(Y)
    if not isinstance(k, numbers.Integral) or k < 1:
        raise ValueError(f"duplication count must be a positive integer, got {k!r}")
    return np.vstack([A] * int(k))


@dataclass(frozen=True, eq=False)
class _Fit:
    """Per-vertex projection data, indexed by vertex ``i - 1``.

    ``coef`` holds the minimum-norm coefficients in the DAG's edge order,
    ``rank`` the rank of the parent columns, ``proj`` (one row per vertex)
    the projection onto them, ``resid_sq`` the squared projection residual
    and ``exists`` the strict-positivity decision on it.  ``spans`` holds,
    per group of the DAG's layout, ``U, keep, V, s``: its singular vectors
    (``V`` as columns), which are kept and the singular values;
    :func:`_projection` takes ``U`` or ``V``.
    """

    coef: np.ndarray
    rank: np.ndarray
    proj: np.ndarray
    resid_sq: np.ndarray
    exists: np.ndarray
    spans: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]


def _groups(g: Dag, *mats: np.ndarray):
    """Child vertices grouped by parent count, with their columns stacked.

    Per group of ``k`` vertices with ``p`` parents each in ``g``'s layout,
    yields their 0-based indices and, for each ``n x m`` matrix ``M`` given,
    the pair of the ``(k, n, p)`` stack of parent submatrices
    ``M[:, parents(i)]`` and the ``(k, n)`` stack of columns ``M[:, i]``.
    """
    for cols, idx in g._parent_groups:
        yield cols, *((M.T[idx].transpose(0, 2, 1), M.T[cols]) for M in mats)


def _projection(Y: np.ndarray, U: np.ndarray, keep: np.ndarray):
    """Per row of the stack ``Y``: its coordinates on the matching ``U``,
    zero on the columns ``keep`` drops, and its orthogonal projection onto
    the span of the kept columns."""
    c = np.where(keep, (Y[:, None, :] @ U)[:, 0, :], 0.0)
    return c, (U @ c[:, :, None])[:, :, 0]


def _fit(A: np.ndarray, g: Dag, tol: float) -> _Fit:
    """Project every column of a validated sample onto its parent columns.

    Vertices with equally many parents share one stacked SVD.  With
    ``P = U S V^T`` and ``r`` the count of singular values kept by
    :func:`dagstab.linalg._kept`, the minimum-norm coefficients are
    ``V_r S_r^-1 U_r^T y`` and the projection is ``U_r U_r^T y``.  A source
    column is its own residual.
    """
    starts = np.cumsum(g._parent_counts) - g._parent_counts  # each vertex's first edge
    coef = np.zeros(len(g._edge_keys))
    rank = np.zeros(g.m, dtype=int)
    proj = np.zeros((g.m, A.shape[0]))
    spans = []
    for cols, (P, Y) in _groups(g, A):
        U, s, Vt = np.linalg.svd(P, full_matrices=False)
        keep = _kept(s, tol)
        spans.append((U, keep, Vt.transpose(0, 2, 1), s))
        c_kept, proj[cols] = _projection(Y, U, keep)
        x = (np.divide(c_kept, s, out=np.zeros_like(c_kept), where=keep)[:, None, :] @ Vt)[:, 0, :]
        rank[cols] = keep.sum(axis=1)
        coef[starts[cols, None] + np.arange(x.shape[1])] = x
    R = A.T - proj
    resid_sq = np.einsum("mn,mn->m", R, R)
    exists = ~_negligible(np.sqrt(resid_sq), np.sqrt(np.einsum("nm,nm->m", A, A)), tol)
    return _Fit(coef, rank, proj, resid_sq, exists, spans)


def _edge_pairs(g: Dag) -> list[tuple[int, int]]:
    """The keys ``(i, j)`` of the edges ``j -> i``, in ``g``'s edge order."""
    return list(zip(*g._edge_keys.T.tolist()))


def _lambda_part(fit: _Fit, g: Dag) -> tuple[dict, dict]:
    kdims = (g._parent_counts - fit.rank).tolist()
    return dict(zip(_edge_pairs(g), fit.coef.tolist())), dict(enumerate(kdims, start=1))


def _omega_part(fit: _Fit, n: int) -> tuple[dict, dict]:
    exists = dict(enumerate(fit.exists.tolist(), start=1))
    return {i: sq / n for i, sq in zip(exists, fit.resid_sq.tolist()) if exists[i]}, exists


def lambda_mle(Y, g: Dag, tol: float = DEFAULT_TOL) -> MleEstimate:
    """Edge-weight MLE given ``Y``.

    Always exists.  At each child vertex the minimum-norm coefficient vector
    is returned, with the kernel dimension of the parent submatrix recording
    the size of the full solution set.
    """
    lam, kdims = _lambda_part(_fit(_validated(Y, g), g, tol), g)
    return MleEstimate(lam=lam, lambda_kernel_dims=kdims)


def lambda_kernel_basis(Y, g: Dag, i: int, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the translate space of the edge-weight solution
    set at child ``i`` (the kernel of the parent submatrix)."""
    return kernel_basis(_validated(Y, g)[:, [j - 1 for j in g.parents(i)]], tol)


def omega_mle(Y, g: Dag, tol: float = DEFAULT_TOL) -> MleEstimate:
    """Variance MLE given ``Y``; marked absent wherever the projection
    residual vanishes.  Unique whenever it exists."""
    A = _validated(Y, g)
    omega, exists = _omega_part(_fit(A, g, tol), A.shape[0])
    return MleEstimate(omega=omega, omega_exists=exists)


def _estimate(fit: _Fit, g: Dag, n: int) -> MleEstimate:
    lam, kdims = _lambda_part(fit, g)
    omega, exists = _omega_part(fit, n)
    return MleEstimate(lam=lam, lambda_kernel_dims=kdims, omega=omega, omega_exists=exists)


def full_mle(Y, g: Dag, tol: float = DEFAULT_TOL) -> MleEstimate:
    """Combined edge-weight and variance estimates given ``Y``."""
    A = _validated(Y, g)
    return _estimate(_fit(A, g, tol), g, A.shape[0])


def classify(Y, g: Dag, tol: float = DEFAULT_TOL) -> Classification:
    """Existence/uniqueness of the MLE given ``Y``.

    Nonexistent iff some column lies in its parent span (the span of an
    empty parent set is the zero space, so a zero column always certifies
    nonexistence).  Otherwise every column lies off its parent span, so a
    parent-and-self submatrix has full column rank exactly when its parent
    columns do: the MLE is unique iff every kernel dimension of
    :func:`full_mle` is 0.  The witness is the lowest-numbered certifying
    vertex.
    """
    return _classification(_fit(_validated(Y, g), g, tol), g)


def _classified_mle(Y, g: Dag, tol: float = DEFAULT_TOL) -> tuple[MleEstimate, Classification]:
    """``full_mle`` and ``classify`` from one fit of the sample."""
    A = _validated(Y, g)
    fit = _fit(A, g, tol)
    return _estimate(fit, g, A.shape[0]), _classification(fit, g)


def _classification(fit: _Fit, g: Dag) -> Classification:
    absent = np.flatnonzero(~fit.exists)
    if absent.size:
        return Classification(NONEXISTENT, GIT_LABELS[NONEXISTENT], int(absent[0]) + 1)
    deficient = np.flatnonzero(fit.rank < g._parent_counts)
    if deficient.size:
        return Classification(
            EXISTS_NON_UNIQUE, GIT_LABELS[EXISTS_NON_UNIQUE], int(deficient[0]) + 1
        )
    return Classification(EXISTS_UNIQUE, GIT_LABELS[EXISTS_UNIQUE], None)


def _weight_matrix(lam, g: Dag, missing: float = 0.0) -> np.ndarray:
    """The ``m x m`` matrix ``L`` with ``L[i-1, j-1]`` the weight of edge
    ``j -> i`` (row = child), ``missing`` at edges ``lam`` leaves out and 0
    elsewhere.  The one check that ``lam`` names edges of ``g`` only."""
    keys = _edge_pairs(g)
    stray = lam.keys() - keys
    if stray:
        i, j = next(k for k in lam if k in stray)
        raise ValueError(f"edge weight given for non-edge {j} -> {i}")
    L = np.zeros((g.m, g.m))
    L[tuple(g._edge_keys.T - 1)] = [lam.get(k, missing) for k in keys]
    return L


def _normal_equation_failures(A: np.ndarray, g: Dag, lam, tol: float, fit=None) -> list[int]:
    """Child vertices, ascending, at which ``lam`` does not solve the normal
    equations ``P^T (y - P x) = 0`` of the sample ``A`` to within
    ``tol * (|P^T y| + |P^T P| |x|)``, with ``P`` the parent columns,
    ``y`` the child column and ``x`` the weights.  A missing or NaN weight
    fails.  Given ``fit`` (of another sample), only the part of the residual
    in the kernel of that sample's parent columns counts.  Powers of two,
    which scale exactly, keep every product finite: ``A`` is first scaled to
    a largest column norm in ``[1/2, 1)``, and at a child whose largest
    weight is at least 1 the residual and the scale are both divided by the
    ``2**k`` that brings that weight below 1."""
    A = _unit_scaled(A)[0]
    L = _weight_matrix(lam, g, missing=np.nan)
    k = np.maximum(np.frexp(np.abs(L).max(axis=1))[1], 0)  # 0 at a NaN or infinite weight
    L = np.ldexp(L, -k[:, None])
    with np.errstate(invalid="ignore"):  # an infinite weight gives NaN, which fails
        R = np.ldexp(A, -k) - A @ L.T  # column i is (y - P x) / 2**k at child i
    x_norm = np.sqrt(np.einsum("ij,ij->i", L, L))
    bad: list[int] = []
    for grp, (cols, (P, y), (_, r)) in enumerate(_groups(g, A, R)):
        resid = np.einsum("knp,kn->kp", P, r)
        if fit is not None:
            _, keep, V, _ = fit.spans[grp]
            resid = resid - _projection(resid, V, keep)[1]
        resid = np.linalg.norm(resid, axis=1)
        scale = (
            np.ldexp(np.linalg.norm(np.einsum("knp,kn->kp", P, y), axis=1), -k[cols])
            + np.linalg.norm(P.transpose(0, 2, 1) @ P, axis=(1, 2)) * x_norm[cols]
        )
        bad += (cols[~_negligible(resid, scale, tol)] + 1).tolist()
    return sorted(bad)


def is_lambda_mle(
    Y, g: Dag, lam: dict[tuple[int, int], float], tol: float = DEFAULT_TOL
) -> bool:
    """Verify that ``lam`` solves the per-vertex normal equations of ``Y``,
    i.e. that it is an edge-weight MLE given ``Y`` (not necessarily the
    minimum-norm one)."""
    return not _normal_equation_failures(_validated(Y, g), g, lam, tol)


def is_mle(Y, g: Dag, est: MleEstimate, tol: float = DEFAULT_TOL) -> bool:
    """Verify that ``est`` is an MLE given ``Y``: the edge weights solve the
    normal equations, the variance MLE exists at every vertex, and the
    variance entries match the projection residuals."""
    A = _validated(Y, g)
    return _is_mle(A, g, est, tol, _fit(A, g, tol))


def _is_mle(A: np.ndarray, g: Dag, est: MleEstimate, tol: float, fit: _Fit) -> bool:
    """``is_mle`` on a validated sample, given a fit of it."""
    if _normal_equation_failures(A, g, est.lam, tol):
        return False
    omega = [est.omega.get(i) if est.omega_exists.get(i) else None for i in range(1, g.m + 1)]
    if not fit.exists.all() or None in omega:
        return False
    ref = fit.resid_sq / A.shape[0]
    return bool(_negligible(np.abs(np.subtract(omega, ref)), ref, tol).all())


def covariance(est: MleEstimate, g: Dag) -> np.ndarray:
    """Model covariance ``(I - L)^-1 W (I - L)^-T`` assembled from an
    estimate with every edge weight and every variance present.

    ``L`` carries the edge weights (row = child, column = parent) and ``W``
    is the diagonal of variances.  ``I - L`` is unipotent in a topological
    order, hence always invertible.
    """
    m = g.m
    if not est.all_omega_exist(g):
        missing = [i for i in range(1, m + 1) if not est.omega_exists.get(i, False)]
        raise ValueError(f"variance estimates missing at vertices {missing}")
    missing = sorted({i for i, j in _edge_pairs(g) if (i, j) not in est.lam})
    if missing:
        raise ValueError(f"edge weights missing at vertices {missing}")
    L = _weight_matrix(est.lam, g)
    W = np.diag([est.omega[i] for i in range(1, m + 1)])
    Minv = np.linalg.inv(np.eye(m) - L)
    S = Minv @ W @ Minv.T
    return (S + S.T) / 2.0


def loglik(Sigma, Y, tol: float = DEFAULT_TOL) -> float:
    """Gaussian log-likelihood of covariance ``Sigma`` given ``Y``, up to
    additive and positive multiplicative constants:
    ``-log det(Sigma) - tr(Sigma^-1 S_Y)`` with ``S_Y = Y^T Y / n``.

    Rejects matrices that are not symmetric positive definite under ``tol``;
    boundary cases are the caller's concern.  A trace beyond the float range
    gives ``-inf``.
    """
    S = _as_matrix(Sigma, "covariance")
    A = _as_sample(Y)
    _check_squares(A, "sample")
    m = A.shape[1]
    if S.shape != (m, m):
        raise ValueError(f"covariance must be {m} x {m}, got {S.shape}")
    if not _negligible(np.max(np.abs(S - S.T)), np.max(np.abs(S)), tol):
        raise ValueError("covariance must be symmetric")
    eigs = np.linalg.eigvalsh((S + S.T) / 2.0)
    if _negligible(eigs[0], max(eigs[-1], 0.0), tol):
        raise ValueError("covariance must be positive definite")
    # the trace in the sample's power-of-two units, which scale exactly, so
    # that one beyond the float range gives -inf, not a NaN from the solve
    B, e = _unit_scaled(A)
    _, logdet = np.linalg.slogdet(S)
    with np.errstate(over="ignore"):
        trace = np.ldexp(np.trace(np.linalg.solve(S, B.T @ B / A.shape[0])), 2 * e)
    return float(-logdet - trace)
