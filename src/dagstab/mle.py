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

Every estimator, the classification and :mod:`dagstab.limits` read one
kind of fit of whole samples (:func:`_fit`), grouped by parent count in the
layout that :class:`dagstab.graph.Dag` builds once, with every edge-weight
vector in its edge order.  Per group, one stacked QR of ``[P | y]`` (its
triangular factor only) and one values-only SVD of that small factor give
every rank (the cut of :func:`dagstab.linalg._kept`) and residual, and
``classify`` reads existence and uniqueness from them.  One
normal-equations check, stacked per group, serves ``is_lambda_mle``,
``is_mle``, ``limits.limit_mle`` and ``in_Xf_alpha_lim``.  Both also take an
``(S, n, m)`` stack of samples, each call then running once per group for
all of them: ``limit_mle`` fits ``f`` and ``f'`` in one pass and checks
them in another.
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
    """Per-vertex fit data, indexed by vertex ``i - 1``: the minimum-norm
    ``coef`` in the DAG's edge order, the ``rank`` of the parent columns,
    the squared residual ``resid_sq`` and the positivity decision ``exists``
    on it.  ``spans`` holds, per group of the layout, ``N, s, R``: a
    ``p x p`` basis of the parent columns' kernel padded with zero columns,
    their singular values and the triangular factor ``R = [T | z]`` of the
    QR of ``[P | y]``, so ``T^T T = P^T P`` and ``T^T z = P^T y``."""

    coef: np.ndarray
    rank: np.ndarray
    resid_sq: np.ndarray
    exists: np.ndarray
    spans: list[tuple[np.ndarray, np.ndarray, np.ndarray]]


def _blocks(M: np.ndarray, cols: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """One group's blocks ``[P | y]`` of ``M``: ``(k, n, p + 1)``, or for an
    ``(S, n, m)`` stack ``(S, k, n, p + 1)``."""
    return M.mT[..., np.concatenate((idx, cols[:, None]), axis=1), :].mT


def _groups(g: Dag, *mats: np.ndarray):
    """Per group of ``g``'s layout: its children's 0-based indices and, for
    each matrix or stack given, the views ``P`` and ``y`` of its :func:`_blocks`."""
    for cols, idx in g._parent_groups:
        yield cols, *((B[..., :-1], B[..., -1]) for B in (_blocks(M, cols, idx) for M in mats))


def _edges(g: Dag) -> list[np.ndarray]:
    """Per group of ``g``'s layout, the ``(k, p)`` positions of its children's
    weights in the edge order."""
    starts = np.cumsum(g._parent_counts) - g._parent_counts  # each vertex's first edge
    return [starts[cols, None] + np.arange(idx.shape[1]) for cols, idx in g._parent_groups]


def _fit(A: np.ndarray, g: Dag, tol: float):
    """Project every column of a validated sample, or of each sample of an
    ``(S, n, m)`` stack, onto its parent columns: per parent-count group, one
    QR of all the blocks ``[P | y]`` gives ``R = [T | z]``, ``T`` with the
    singular values of ``P`` and ``z = Q^T y``, and one values-only SVD of
    ``T`` the rank ``r``, the count kept by :func:`dagstab.linalg._kept`.  At
    ``r = p`` the coefficients solve the leading ``p x p`` triangle of ``T``
    and the residual is ``z[p:]``; only blocks with a kernel run the SVD
    ``T = U_T S V^T`` with vectors, for the minimum-norm ``V_r S_r^-1 U_r^T z``
    and the residual of ``z`` off ``U_r``.  ``Q`` is never formed.  A stack
    gives a list of fits, bit for bit its samples' own."""
    lead = A.shape[:-2]  # a stack's sample axis trails each vertex's and edge's entry
    coef, rank = np.zeros((len(g._edge_keys), *lead)), np.zeros((g.m, *lead), dtype=int)
    sq = np.einsum("...nm,...nm->...m", A, A).T  # a source column is its own residual
    resid_sq = sq.copy()
    spans = []
    for (cols, idx), edges in zip(g._parent_groups, _edges(g)):
        p = idx.shape[1]
        R = np.linalg.qr(_blocks(A, cols, idx), mode="r")
        T, C = R[..., :p], R[..., p].copy()  # C: y's coordinates on the left basis
        s = np.linalg.svd(T, compute_uv=False)
        keep = _kept(s, tol)
        r, w = keep.sum(axis=-1), s.shape[-1]
        full, x, N = r == p, np.zeros((*r.shape, p)), np.zeros((*r.shape, p, p))
        F, K = full, ~full  # the full-rank blocks and the blocks with a kernel
        if full.all() or not full.any():  # one kind: an Ellipsis, which copies nothing
            F, K = (..., None) if full.flat[0] else (None, ...)
        if F is not None:
            x[F] = np.linalg.solve(R[F, :p, :p], C[F, :p, None])[..., 0]
        if K is not None:
            U_T, s_T, Vt = np.linalg.svd(T[K])
            C[K] = (C[K, None, :] @ U_T)[..., 0, :]
            c = np.divide(C[K, :w], s_T, out=np.zeros_like(s_T), where=keep[K])
            x[K] = (c[..., None, :] @ Vt[..., :w, :])[..., 0, :]
            N[K] = Vt.mT * (np.arange(p) >= r[K, None])[..., None, :]
        off = np.where(np.arange(C.shape[-1]) >= r[..., None], C, 0.0)
        resid_sq[cols] = np.einsum("...q,...q->...", off, off).T
        rank[cols], coef[edges.T] = r.T, x.T
        spans.append((N, s, R))
    exists = ~_negligible(np.sqrt(resid_sq), np.sqrt(sq), tol)
    if not lead:
        return _Fit(coef, rank, resid_sq, exists, spans)
    fields = coef.T, rank.T, resid_sq.T, exists.T  # sample first
    return [_Fit(*(a[i] for a in fields), [tuple(a[i] for a in span) for span in spans])
            for i in range(lead[0])]


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
    deficient = fit.rank < g._parent_counts
    for status, seen in ((NONEXISTENT, ~fit.exists), (EXISTS_NON_UNIQUE, deficient)):
        if seen.any():  # the witness is the first certifying vertex
            return Classification(status, GIT_LABELS[status], int(np.argmax(seen)) + 1)
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


def _normal_equation_failures(A: np.ndarray, g: Dag, lam, tol: float, fit=None):
    """Child vertices, ascending, at which ``lam`` does not solve the normal
    equations ``P^T (y - P x) = 0`` of the sample ``A`` to within
    ``tol * (|P^T y| + |P^T P| |x|)``, with ``P`` the parent columns, ``y``
    the child column and ``x`` the weights; for an ``(S, n, m)`` stack, in
    one pass, one list per sample.  A missing or NaN weight fails.  Given
    ``fit`` (of another sample), only the part of the last sample's residual
    in the kernel of that sample's parent columns counts.  Powers of two,
    which scale exactly, keep every product finite: each sample is first
    scaled to a largest column norm in ``[1/2, 1)``, and at a child whose
    largest weight is at least 1 the residual and the scale are both divided
    by the ``2**k`` that brings that weight below 1."""
    A = _unit_scaled(A)[0] if A.ndim == 2 else np.stack([_unit_scaled(M)[0] for M in A])
    L = _weight_matrix(lam, g, missing=np.nan)
    k = np.maximum(np.frexp(np.abs(L).max(axis=1))[1], 0)  # 0 at a NaN or infinite weight
    L = np.ldexp(L, -k[:, None])
    with np.errstate(invalid="ignore"):  # an infinite weight gives NaN, which fails
        R = np.ldexp(A, -k) - A @ L.T  # column i is (y - P x) / 2**k at child i
    x_norm = np.sqrt(np.einsum("ij,ij->i", L, L))
    failed = np.zeros((*A.shape[:-2], g.m), dtype=bool)
    for grp, (cols, (P, y)) in enumerate(_groups(g, A)):
        resid = np.einsum("...np,...n->...p", P, R.mT[..., cols, :])
        if fit is not None:  # the last sample's coordinates on the kernel basis N
            last = resid.reshape(-1, *resid.shape[-2:])
            last[-1] = np.einsum("kpj,kp->kj", fit.spans[grp][0], last[-1])
        Py = np.linalg.norm(np.einsum("...np,...n->...p", P, y), axis=-1)
        scale = np.ldexp(Py, -k[cols]) + np.linalg.norm(P.mT @ P, axis=(-2, -1)) * x_norm[cols]
        failed[..., cols] = ~_negligible(np.linalg.norm(resid, axis=-1), scale, tol)
    bad = [(np.flatnonzero(row) + 1).tolist() for row in failed.reshape(-1, g.m)]
    return bad[0] if A.ndim == 2 else bad


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
    order, hence always invertible.  An entry beyond the float range raises.
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
    overflow = ValueError("covariance overflows: an entry is beyond the float range")
    with np.errstate(over="ignore", invalid="ignore"):
        try:  # I - L is unipotent, so its LU fails only where an entry overflows
            Minv = np.linalg.inv(np.eye(m) - L)
        except np.linalg.LinAlgError:
            raise overflow from None
        S = Minv @ W @ Minv.T
    if not np.isfinite(S).all():
        raise overflow
    return S / 2.0 + S.T / 2.0


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
