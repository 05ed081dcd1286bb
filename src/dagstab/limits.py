"""Limits of MLEs along the path ``f + eps * f'`` as ``eps -> 0``.

For a sample ``f`` and a perturbation ``f'``, the scaled sum ``f + eps f'``
is a stabilisation for every ``eps != 0``, so the MLE given it is unique.
As ``eps`` tends to zero the estimate has a well-defined limit, computable
two ways:

* numerically, by evaluating the estimate on a decreasing grid of ``eps``
  values and extrapolating in ``eps^2`` (the per-vertex coefficient vectors
  are rational functions of ``eps^2``);
* analytically, from the polynomial expansion of the per-vertex pencil
  ``C(eps) = A^T A + eps E^T E``: with Taylor coefficients ``c_k`` of
  ``det C`` and ``G_k`` of ``adj C``, the limit coefficient vector at a
  child vertex is ``(G_l u + G_{l-1} w) / c_l`` where ``l`` is the first
  index with ``c_l != 0``, ``u`` collects the inner products of the parent
  columns of ``f`` with the projected target column, and ``w`` the same for
  the perturbation.  Where the parent columns ``A`` have full rank this is
  ``l = 0``: the limit is the unique MLE given ``f``, ``x_A``, with
  ``c_0 = det(A^T A)`` and ``D_0 = c_0 x_A``.

The analytic route is :func:`limit_mle`, the one analytic entry.  It reads
one plain fit of :func:`dagstab.mle._fit` of the stack of ``f`` and ``f'``,
whose triangular factors ``R = [T | z]`` give ``u = T_A^T z_A = A^T y`` and
``w = T_E^T z_E = E^T v``.  The columns of ``f`` are orthogonal to those of
``f'``, so ``fbar + vbar`` lies in ``span(A + E)`` exactly when
``t = T_E (x_E - x_A)`` lies in the span of ``T_E N``, with ``x_A`` and
``x_E`` the fits' weights and ``N`` the kernel basis of ``A``: the span
conditions need no projection.  Full rank is the fit's ``_kept`` cut, not
``FIRST_NONZERO_TOL``; the pencil runs only at children whose parent block
has a kernel, stacked per parent-count group, and the answer is checked on
``f`` and ``f'`` in one stacked pass of the normal equations.  Zero tests go
through :func:`dagstab.linalg._negligible`: ``t`` is in the span when its
residual is at most ``tol (|t| + |T_E x_A| + |f'|)``, ``|f'|`` the largest
column norm of ``f'``, ``v`` is in ``span(E)`` at ``tol (|v| + |f'|)``, and
a numeric variance limit vanishes at ``tol`` times its largest value on the
grid.  So scaling ``(f, f')`` changes no condition and no existence flag,
and scaling ``f'`` alone no condition.  The two routes are independent and
agree to better than ``1e-6`` on shallow pencils.  On deep pencils with a
kernel (from about 8 parents at a low sample rank) the expansion
interpolates on ill-conditioned Vandermonde systems and can lose every
digit; ``limit_mle`` then raises instead of returning wrong weights
(ROADMAP.md, open item 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import Dag
from .linalg import (
    _PENCIL_ERRORS, DEFAULT_TOL, _as_matrix, _as_sample, _kept, _negligible,
    _verification_tol, pencil_expand,
)
from .mle import (
    MleEstimate, _blocks, _edge_pairs, _edges, _fit, _normal_equation_failures, _omega_part,
    _validated, _weight_matrix, full_mle,
)
from .stabilise import Perturbation, _as_perturbation

DEFAULT_EPS_GRID = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)

# Minimum geometric growth of the coefficient-vector norms at the tail of
# the grid for the path to count as divergent.
DIVERGENCE_FACTOR = 10.0


def _norms(X: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("...n,...n->...", X, X))


def _conditions(pert: Perturbation, g: Dag, tol: float):
    """The fits of ``f`` and ``f'``, in one stacked fit, and per child vertex
    the edge-weight condition (``t`` of the module docstring in the span of
    ``T_E N``, an isometric image of ``E N``) and the full condition (also
    ``v`` in ``span(E)``, read from the residual of the fit of ``f'``)."""
    fits = fit, vfit = _fit(np.stack([pert.base, pert.delta]), g, tol)
    v_norms = _norms(pert.delta.T)
    floor = v_norms.max(initial=0.0)
    ok = np.zeros(g.m, dtype=bool)
    for (cols, idx), edges, (N, *_), (*_, R) in zip(g._parent_groups, _edges(g), fit.spans,
                                                    vfit.spans):
        p = idx.shape[1]
        T = R[..., :p]
        TA, TE = ((T @ x.coef[edges][..., None])[..., 0] for x in fits)
        t = TE - TA
        scale = _norms(t) + _norms(TA) + floor
        if (fit.rank[cols] < p).any():  # elsewhere N = 0, and t must vanish
            U, s, _ = np.linalg.svd(T @ N)
            c = (t[..., None, :] @ U)[..., 0, :]
            t = np.where(np.arange(c.shape[-1]) >= _kept(s, tol).sum(axis=-1)[..., None], c, 0.0)
        ok[cols] = _negligible(_norms(t), scale, tol)
    full = ok & _negligible(np.sqrt(vfit.resid_sq), v_norms + floor, tol)
    kids = np.flatnonzero(g._parent_counts)
    return fits, *(dict(zip((kids + 1).tolist(), row[kids].tolist())) for row in (ok, full))


@dataclass(frozen=True, eq=False)
class VertexDiagnostics:
    """Closed-form limit data at one child vertex.

    ``first_nonzero`` is the index ``l`` of the first non-vanishing
    determinant coefficient, ``det_coeff`` its value ``c_l``, and
    ``numerator`` the vector ``D_l`` with limit ``D_l / c_l``.
    """

    first_nonzero: int
    det_coeff: float
    numerator: np.ndarray


@dataclass(frozen=True)
class LimitResult:
    """Limit estimate along the stabilisation path.

    ``lam`` and ``omega`` mirror :class:`dagstab.mle.MleEstimate`; ``partial``
    is set when some variance limit vanishes, so the record covers only a
    subset of vertices.  The analytic route, :func:`limit_mle`, fills
    ``epsilon_independent[i]`` (is the estimate at child ``i`` the same for
    every ``eps``, not merely in the limit?) and pencil ``diagnostics``; the
    numeric route, :func:`limit_mle_numeric`, per-vertex extrapolation error
    estimates and divergence flags.
    """

    lam: dict[tuple[int, int], float]
    omega: dict[int, float]
    omega_exists: dict[int, bool]
    epsilon_independent: dict[int, bool] = field(default_factory=dict)
    diagnostics: dict[int, VertexDiagnostics] = field(default_factory=dict)
    partial: bool = False
    diverged: bool = False
    diverged_vertices: tuple[int, ...] = ()
    extrapolation_error: dict[int, float] = field(default_factory=dict)

    lambda_vector = MleEstimate.lambda_vector


def mle_at_epsilon(f, fp, g: Dag, eps, tol: float = DEFAULT_TOL):
    """The unique MLE given ``f + eps * f'`` for ``eps != 0``, or the list of
    them for a 1-d grid of ``eps``, from one stacked :func:`full_mle` call.

    Uniqueness (all kernel dimensions zero) is asserted; failure signals
    numerically inconsistent input.  An ``eps`` at which a squared column
    norm of ``f + eps f'`` leaves the float range is rejected by name.  The
    first failure raises, in this order and each in grid order: the shape
    of ``eps``, each ``eps``, the pair, the one check of the stack of sums
    in :func:`full_mle` (only when it fails are the sums checked one by one,
    so that the error names the first bad ``eps``), then each estimate.
    """
    grid = list(eps) if np.ndim(eps) else [eps]
    if np.ndim(eps) > 1 or not grid:
        raise ValueError(f"eps must be a number or a non-empty 1-d sequence, got {eps!r}")
    for e in grid:
        if not math.isfinite(e) or e == 0:
            raise ValueError(f"eps must be finite and nonzero (limits take eps -> 0), got {e!r}")
    pert = _as_perturbation(f, fp, tol, g.m)
    with np.errstate(over="ignore"):
        S = np.stack([pert.scaled(e) for e in grid])
    try:
        estimates = full_mle(S, g, tol)
    except ValueError:
        for e, M in zip(grid, S):
            _as_sample(M, f"the stabilised sample f + eps f' at eps={e!r}")
        raise
    for e, est in zip(grid, estimates):
        bad = [i for i, ok in est.omega_exists.items() if not ok or est.lambda_kernel_dims[i]]
        if bad:
            raise ValueError(f"estimate at eps={e} is not a unique MLE at vertices {bad}; "
                             "input is numerically inconsistent")
    return estimates if np.ndim(eps) else estimates[0]


def _segment_max(D: np.ndarray, starts: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Per row of ``D``, the maximum over each column segment; 0.0 for an
    empty segment."""
    out = np.zeros((D.shape[0], starts.size))
    full = widths > 0
    if full.any():
        out[:, full] = np.maximum.reduceat(D, starts[full], axis=1)
    return out


def _neville_zero(eps_grid, values, starts):
    """Extrapolate samples of even rational functions to ``eps = 0``.

    ``values`` is a ``(len(eps_grid), K)`` stack with one column per
    function; ``starts`` cuts the columns into segments, one per vector.
    Polynomial extrapolation in ``h = eps^2`` runs over one Neville table
    for all columns.  Per segment, the entry with the smallest estimated
    error (the largest distance to its two parent entries over the
    segment) is returned, first in table order on ties, together with
    that estimate.  One-point input returns the point itself with estimate
    0.0.  Returns the ``(K,)`` extrapolated values and the per-segment
    estimates.
    """
    vals = np.asarray(values, dtype=float)
    starts = np.asarray(starts, dtype=np.intp)
    widths = np.diff(starts, append=vals.shape[1])
    if len(vals) == 1:
        return vals[0], np.zeros(starts.size)
    hs = np.array([e * e for e in eps_grid])
    best, best_est = vals[0], np.full(starts.size, np.inf)
    prev = vals
    for j in range(1, len(vals)):
        row = (hs[:-j, None] * prev[1:] - hs[j:, None] * prev[:-1]) / (hs[:-j] - hs[j:])[:, None]
        est = _segment_max(
            np.maximum(np.abs(row - prev[:-1]), np.abs(row - prev[1:])), starts, widths
        )
        for val, e in zip(row, est):
            better = e < best_est
            best_est = np.where(better, e, best_est)
            best = np.where(np.repeat(better, widths), val, best)
        prev = row
    return best, best_est


def _diverging(norms, tol: float) -> bool:
    """Heuristic blow-up detection on coefficient norms along the grid.

    A divergent path grows geometrically all the way down the grid, so the
    last three points still grow by more than DIVERGENCE_FACTOR.  Convergent
    paths flatten at the tail even when they approach the limit from below,
    and roundoff noise around a zero limit can grow in ratio but never in
    size, hence the floor ``50 (1 + min(norms))``.  A last norm above
    ``1 / tol`` counts as divergent on any grid.  The floor and the cap are
    absolute, and :func:`limit_mle_numeric` passes edge weights as they are.
    """
    if norms[-1] > 1.0 / tol:
        return True
    if len(norms) < 3:
        return False
    a, b, c = norms[-3:]
    return a < b < c and c > DIVERGENCE_FACTOR * a and c > 50.0 * (1.0 + min(norms))


def _check_grid(eps_grid) -> tuple[float, ...]:
    grid = tuple(_as_matrix([list(eps_grid)], "epsilon grid")[0].tolist())
    if not grid:
        raise ValueError("epsilon grid must be non-empty")
    if any(e <= 0 for e in grid) or any(b >= a for a, b in zip(grid, grid[1:])):
        raise ValueError("epsilon grid must be strictly decreasing and positive")
    return grid


def limit_mle_numeric(
    f, fp, g: Dag, eps_grid=DEFAULT_EPS_GRID, tol: float = DEFAULT_TOL
) -> LimitResult:
    """Numeric limit of the MLE given ``f + eps f'``.

    Fits the whole grid in one :func:`mle_at_epsilon` call and extrapolates
    each per-vertex coefficient vector and variance in ``eps^2`` through one
    stacked Neville table; ``epsilon_independent`` and ``diagnostics`` stay
    empty.  A variance is absent when its extrapolated value is zero at the
    combined tolerance/extrapolation-error scale.  The limit does not depend
    on the size of ``f'`` against ``f`` (largest column norms): one below
    ``tol / min(grid)`` times ``f`` is evaluated at ``s * eps``, ``s`` the
    power of two that brings it up to the size of ``f``, and one above ``f``
    at the ``s`` that brings it down to at most that size, leaving the table
    in ``eps^2`` exact.
    """
    grid = _check_grid(eps_grid)
    pert = _as_perturbation(f, fp, tol, g.m)
    nf, nd = (_norms(M.T).max(initial=0.0) for M in (pert.base, pert.delta))
    s = 1.0
    if 0 < nd < nf * tol / grid[-1]:
        s = 2.0 ** math.ceil(math.log2(nf / nd))
    elif nd > nf > 0:
        s = 2.0 ** math.floor(math.log2(nf / nd))
    estimates = mle_at_epsilon(None, pert, g, [s * eps for eps in grid], tol)

    # per grid point: every child's coefficient vector, in the edge order, then every variance
    children = g.child_vertices()
    keys = _edge_pairs(g)
    widths = g._parent_counts[g._parent_counts > 0]
    starts = np.cumsum(widths) - widths
    lam_grid = np.array([[est.lam[k] for k in keys] for est in estimates])
    omega_grid = np.array([[est.omega[i] for i in range(1, g.m + 1)] for est in estimates])
    norms = _segment_max(np.abs(lam_grid), starts, widths).T.tolist()
    diverged = [i for i, nv in zip(children, norms) if _diverging(nv, tol)]
    values, errors = _neville_zero(
        grid, np.hstack([lam_grid, omega_grid]), np.append(starts, len(keys) + np.arange(g.m))
    )
    # diverged vectors went through the table too; their entries are dropped
    lam = {k: val for k, val in zip(keys, values.tolist()) if k[0] not in diverged}
    err = {i: e for i, e in zip(children, errors.tolist()) if i not in diverged}

    # the variances are the last m segments; each is judged on its largest grid value
    w = values[-g.m:]
    exists = (w > 10.0 * errors[-g.m:]) & ~_negligible(w, np.max(omega_grid, axis=0), tol)
    omega_exists = dict(enumerate(exists.tolist(), start=1))
    omega = {i: x for i, x, ok in zip(omega_exists, w.tolist(), exists.tolist()) if ok}

    return LimitResult(lam=lam, omega=omega, omega_exists=omega_exists,
                       partial=not all(omega_exists.values()), diverged=bool(diverged),
                       diverged_vertices=tuple(diverged), extrapolation_error=err)


def _limit_equation_failures(pert: Perturbation, g: Dag, lam, tol: float, fit) -> list[int]:
    """Child vertices at which ``lam`` fails the normal equations of ``f`` or,
    if none does, ``N^T E^T (E x - v) = 0`` on ``f'``, ``N`` spanning ``ker A``
    in ``fit``, a fit of ``f``; at the verification tolerance, in one pass."""
    stack = np.stack([pert.base, pert.delta])
    bad, bad_fp = _normal_equation_failures(stack, g, lam, _verification_tol(tol), fit)
    return bad or bad_fp


def limit_mle(f, fp, g: Dag, tol: float = DEFAULT_TOL) -> LimitResult:
    """Limit MLE given ``f + eps f'``: the closed-form edge weights of the
    module docstring plus the variance limits ``|f_i - proj(f_i)|^2 / n``.

    At full rank ``c_0`` is the product of the fit's squared singular
    values; one that overflows or underflows, or a ``D_0`` that overflows,
    raises the pencil's "all determinant coefficients vanish" error.  The
    variance limit is the variance MLE given ``f`` wherever the latter
    exists; when it exists everywhere the assembled limit is an MLE given
    ``f``, otherwise the record is labelled ``partial``.  Edge weights off
    the limit variety (the check of ``in_Xf_alpha_lim``) raise.
    """
    pert = _as_perturbation(f, fp, tol, g.m)
    (fit, vfit), cond, _ = _conditions(pert, g, tol)
    weights = fit.coef.copy()
    diagnostics: dict[int, VertexDiagnostics] = {}
    for (cols, idx), edges, (_, s, R_A), (*_, R_E) in zip(g._parent_groups, _edges(g),
                                                          fit.spans, vfit.spans):
        p = idx.shape[1]
        kernel = fit.rank[cols] < p
        if not kernel.all():
            # full rank: the unique fit is the limit, l = 0 and c_0 = det(A^T A) = prod s^2
            with np.errstate(over="ignore", invalid="ignore"):
                c_0 = np.prod(s[~kernel] ** 2, axis=1)
                D_0 = c_0[:, None] * weights[edges[~kernel]]
            if not ((c_0 > 0) & np.isfinite(D_0).all(axis=1)).all():
                raise ValueError(_PENCIL_ERRORS[3])  # all determinant coefficients vanish
            records = map(VertexDiagnostics, [0] * len(c_0), c_0.tolist(), D_0)
            diagnostics.update(zip((cols[~kernel] + 1).tolist(), records))
        if kernel.any():
            if not kernel.all():
                cols, idx, edges, R_A, R_E = (a[kernel] for a in (cols, idx, edges, R_A, R_E))
            A, E = (_blocks(M, cols, idx)[..., :p] for M in (pert.base, pert.delta))
            pencil = pencil_expand(A, E, tol)
            l = pencil.first_nonzero
            c_l = pencil.det_coeffs[np.arange(len(l)), l]
            # A^T fbar = A^T y = T_A^T z_A, and E^T vbar = T_E^T z_E, from R = [T | z]
            D_l = (
                pencil.adj_coeff(l) @ (R_A[..., :p].mT @ R_A[..., p:])
                + pencil.adj_coeff(l - 1) @ (R_E[..., :p].mT @ R_E[..., p:])
            )[:, :, 0]
            weights[edges] = D_l / c_l[:, None]
            records = map(VertexDiagnostics, l.tolist(), c_l.tolist(), D_l)
            diagnostics.update(zip((cols + 1).tolist(), records))
    diagnostics = {i: diagnostics[i] for i in g.child_vertices()}
    lam = dict(zip(_edge_pairs(g), weights.tolist()))
    bad = _limit_equation_failures(pert, g, lam, tol, fit)
    if bad:
        raise ValueError(
            f"limit estimate fails the normal equations at vertex {bad[0]}; "
            "input is numerically inconsistent"
        )
    omega, exists = _omega_part(fit, pert.base.shape[0])
    return LimitResult(lam=lam, omega=omega, omega_exists=exists, epsilon_independent=cond,
                       diagnostics=diagnostics, partial=not all(exists.values()))


def check_lambda_condition(f, fp, g: Dag, tol: float = DEFAULT_TOL) -> dict[int, bool]:
    """Per child vertex: does ``proj(f_i) + proj(v_i)`` lie in the span of
    the perturbed parent columns ``f_j + v_j``?

    All-true is equivalent to the edge-weight estimate given the
    stabilisation being an edge-weight MLE given ``f`` (and to the estimate
    being independent of ``eps`` along the path).  :func:`limit_mle`, the
    analytic limit route, reports the same dict as ``epsilon_independent``.
    """
    return _conditions(_as_perturbation(f, fp, tol, g.m), g, tol)[1]


def check_full_condition(f, fp, g: Dag, tol: float = DEFAULT_TOL) -> dict[int, bool]:
    """Per child vertex: does ``v_i`` lie in the span of the parent
    perturbation columns AND ``proj(f_i) + v_i`` in the span of the
    perturbed parent columns?

    All-true is equivalent to every child-vertex component of the estimate
    given the stabilisation (the edge weights at ``i`` and the residual
    variance at ``i``) being a component of an MLE given ``f``; it can never
    be all-true when no MLE given ``f`` exists.  Source-vertex variances are
    outside the equivalence: they always shift by ``|v_j|^2 / n`` when the
    perturbation column there is nonzero (the shift vanishes along the
    ``eps -> 0`` path, so the limit machinery is unaffected).
    """
    return _conditions(_as_perturbation(f, fp, tol, g.m), g, tol)[2]


def check_alpha_fixed(
    fp, alpha_lambda: dict[tuple[int, int], float], g: Dag, tol: float = DEFAULT_TOL
) -> dict[int, bool]:
    """Per child vertex: does ``v_i = sum_j lambda_ij v_j`` hold?

    ``alpha_lambda`` maps ``(i, j)`` to the weight of edge ``j -> i`` and
    must mention edges of the DAG only; it is the caller's responsibility
    that it is the edge-weight part of an MLE given the base sample.
    All-true is equivalent to every child-vertex component of the MLE given
    the stabilisation equalling that MLE's (see
    :func:`check_full_condition` on source-vertex variances).  A raw ``fp``
    is validated as a sample is, so a column whose squared norm overflows or
    underflows raises.
    """
    L = _weight_matrix(alpha_lambda, g)
    if isinstance(fp, Perturbation):
        P = _as_perturbation(None, fp, tol, g.m).delta
    else:
        P = _validated(fp, g, "perturbation")
    # column i of P - P L^T is v_i - sum_j lambda_ij v_j; one that overflows fails
    cols = _norms(P.T)
    with np.errstate(over="ignore", invalid="ignore"):
        ok = _negligible(_norms((P - P @ L.T).T), cols + cols.max(initial=0.0), tol)
    return {i: bool(ok[i - 1]) for i in g.child_vertices()}
