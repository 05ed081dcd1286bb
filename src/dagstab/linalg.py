"""Dense real linear algebra primitives.

Ranks, orthonormal image/kernel bases and the polynomial expansion of the
one-parameter pencil ``C(eps) = A^T A + eps E^T E`` that drives the
closed-form limit machinery in :mod:`dagstab.limits`; the expansion takes
one pencil or the ``(K, n, p)`` stack of one parent-count group's pencils.
Least-squares fits belong to :mod:`dagstab.mle`.

All operations are pure functions on immutable values; inputs are never
mutated.  Every sample, perturbation or stack of samples is checked by one
function, :func:`_as_sample`.  Tolerances are relative, defaulting to
``DEFAULT_TOL``, and lie strictly between 0 and 1 (:func:`_check_tol`, run
by both owners).  Each kind of decision has one owner: :func:`_kept` cuts
singular values at ``tol * sigma_max`` and :func:`_negligible` decides that
a residual is zero, ``residual <= tol * scale``.  No scale has an absolute
floor, so scaling the sample and its perturbation by a common constant, or
rotating both by an orthogonal matrix, changes no answer.  The scale of a
vector from the sample is its own norm; of a vector built from the
perturbation, its own norm plus the largest perturbation column norm
(columns that vanish in exact arithmetic carry roundoff of that size) and,
for a difference, the norm of the term subtracted, e.g.
``|t| + |T_E x_A| + |f'|`` for the span conditions' ``t = T_E x_E - T_E x_A``;
of a product, the product of the norms of its factors, e.g.
``|P^T y| + |P^T P| |x|`` for ``P^T (y - P x)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-10

# Relative threshold for locating the first non-vanishing determinant
# coefficient of the pencil.  Coefficients are compared against the largest
# coefficient in magnitude, since they are exact-arithmetic zeros in theory
# and only roundoff in practice.
FIRST_NONZERO_TOL = 1e-9


def _as_matrix(M, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """The one check of a finite 2-d array, or with ``stack`` also of a 3-d
    stack of them; ``name`` labels the errors."""
    A = np.asarray(M)
    try:  # a same-kind cast refuses a complex dtype, whose imaginary parts a cast would drop
        A = A.astype(float, casting="unsafe" if A.dtype == object else "same_kind", copy=False)
    except OverflowError:  # a Python integer beyond the float range
        raise ValueError(f"{name} entries must be finite") from None
    except TypeError:  # a complex or text dtype, or a Python complex among other objects
        raise ValueError(f"{name} entries must be real numbers") from None
    if A.ndim != 2 and not (stack and A.ndim == 3):
        kind = "a 2-d array or a 3-d stack" if stack else "a 2-d array"
        raise ValueError(f"{name} must be {kind}, got shape {A.shape}")
    if A.size and not np.all(np.isfinite(A)):
        raise ValueError(f"{name} entries must be finite")
    return A


def _as_sample(M, name: str = "sample", stack: bool = False) -> np.ndarray:
    """The one sample check, of a sample, a perturbation or, with ``stack``,
    an ``(S, n, m)`` stack: :func:`_as_matrix`, non-empty, and each nonzero
    column's squared norm, which decisions read, a finite normal float."""
    A = _as_matrix(M, name, stack)
    if A.size == 0:
        raise ValueError(f"{name} must be non-empty, got shape {A.shape}")
    sq = np.einsum("...nm,...nm->...m", A, A)
    tiny = (sq < np.finfo(float).tiny)[..., None, :]  # a nonzero entry there underflows
    if not np.all(sq <= np.finfo(float).max) or np.any(A, where=tiny):
        raise ValueError(
            f"{name} has a column whose squared norm overflows or underflows; rescale it"
        )
    return A


def _unit_scaled(A: np.ndarray) -> tuple[np.ndarray, int]:
    """``A`` times the power of two (exact) that brings its largest column norm
    into ``[1/2, 1)``, and ``e`` with ``A = scaled * 2**e``: a zero ``A`` as it is."""
    e = int(np.frexp(np.sqrt(np.einsum("nm,nm->m", A, A)).max(initial=0.0))[1])
    return np.ldexp(A, -e), e


def _check_tol(tol: float) -> None:
    """The one check of ``tol``, run by both decisions that read it."""
    if not 0 < tol < 1:
        raise ValueError(f"tol must lie strictly between 0 and 1, got {tol!r}")


def _kept(s: np.ndarray, tol: float) -> np.ndarray:
    """The one rank cut: which singular values, in descending order along the
    last axis, lie above ``tol * sigma_max``.  An empty or all-zero row keeps
    none."""
    _check_tol(tol)
    return s > tol * s[..., :1]


def _negligible(residual, scale, tol: float):
    """The one zero test, elementwise: is ``residual <= tol * scale``?  A NaN
    is never negligible.  The module docstring gives the scale to use."""
    _check_tol(tol)
    return residual <= tol * scale


def _verification_tol(tol: float) -> float:
    """The tolerance of checks on computed results: never below 1e-8."""
    return max(tol, 1e-8)


def rank(M, tol: float = DEFAULT_TOL) -> int:
    """Numerical rank: number of singular values above ``tol * sigma_max``."""
    return int(_kept(np.linalg.svd(_as_matrix(M), compute_uv=False), tol).sum())


def image_basis(M, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the column space, as columns of an ``n x r`` array."""
    U, s, _ = np.linalg.svd(_as_matrix(M), full_matrices=False)
    return U[:, : int(_kept(s, tol).sum())]


def kernel_basis(M, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the null space, as columns of a ``p x (p-r)`` array."""
    _, s, Vt = np.linalg.svd(_as_matrix(M), full_matrices=True)
    return Vt[int(_kept(s, tol).sum()):].T


def orth_complement(B, dim: int, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of ``span(B)`` in
    ``R^dim``.

    ``B`` need not have orthonormal columns (it is orthonormalised
    internally); a ``B`` with empty span yields a basis of all of ``R^dim``.
    """
    A = _as_matrix(B)
    if A.size and A.shape[0] != dim:
        raise ValueError(f"basis lives in R^{A.shape[0]}, ambient dim is {dim}")
    Q = image_basis(A, tol) if A.size else np.zeros((dim, 0))
    if Q.shape[1] == 0:
        return np.eye(dim)
    return kernel_basis(Q.T, tol)


@dataclass(frozen=True, eq=False)
class PencilExpansion:
    """Polynomial data of the pencil ``C(eps) = A^T A + eps E^T E``, or of
    each pencil of a stack.

    ``det_coeffs`` and ``adj_coeffs`` hold Taylor coefficients: writing
    ``det C(eps) = sum_k c_k eps^k`` and ``adj C(eps) = sum_k G_k eps^k``,
    entry ``k`` equals ``(1/k!) d^k/deps^k|_0`` of the respective quantity.
    Identities stated with raw derivatives translate through the factor
    ``k!``; in particular Jacobi's formula reads
    ``(k+1) c_{k+1} = tr(G_k E^T E)`` in this normalisation.

    ``first_nonzero`` is the smallest ``k`` with ``|c_k|`` above
    ``FIRST_NONZERO_TOL`` relative to the largest coefficient.  It exists
    because ``C(1) = (A+E)^T (A+E)`` is positive definite.

    For one pencil ``det_coeffs`` has shape ``(p+1,)``, ``adj_coeffs``
    ``(p, p, p)`` with ``adj_coeffs[k]`` the matrix ``G_k``, and
    ``first_nonzero`` is an int.  A stack adds one leading axis to each, and
    slice ``i`` of every field is bit for bit the expansion of pencil ``i``.
    """

    size: int
    det_coeffs: np.ndarray
    adj_coeffs: np.ndarray
    first_nonzero: int | np.ndarray

    def adj_coeff(self, k) -> np.ndarray:
        """Taylor coefficient ``k`` of the adjugate; zero outside ``0..p-1``.
        For a stack, ``k`` holds one index per pencil."""
        zero = np.zeros_like(self.adj_coeffs[..., :1, :, :])
        padded = np.concatenate([zero, self.adj_coeffs, zero], axis=-3)
        k = np.clip(np.asarray(k) + 1, 0, self.size + 1)[..., None, None, None]
        return np.take_along_axis(padded, k, axis=-3)[..., 0, :, :]


def _poly_coeffs(nodes, values) -> np.ndarray:
    """Per pencil of a stack, the coefficients (ascending) of the polynomial
    interpolating ``values`` at ``nodes``; exact for polynomials of degree
    ``< len(nodes)``.

    ``values`` is a ``(K, len(nodes), ...)`` float array; trailing axes
    (e.g. matrices) are interpolated entrywise.  The Vandermonde matrix is
    broadcast over ``K``, so each pencil runs the solve it runs alone.
    """
    V = np.vander(np.asarray(nodes, dtype=float), increasing=True)
    flat = values.reshape(*values.shape[:2], math.prod(values.shape[2:]))
    return np.linalg.solve(V, flat).reshape(values.shape)


# The pencil's checks, in the order they are made; an error names the first
# check that the first failing pencil of a stack fails.
_PENCIL_ERRORS = (
    "columns of A are not orthogonal to columns of E",
    "matrix entries must be finite",
    "A + E must have full column rank",
    "all determinant coefficients vanish; input is numerically invalid",
    "no determinant coefficient above tolerance",
)


def pencil_expand(A, E, tol: float = DEFAULT_TOL) -> PencilExpansion:
    """Expand ``det`` and ``adj`` of ``C(eps) = A^T A + eps E^T E`` as
    polynomials in ``eps``, for one pencil or for a stack of them.

    Parameters
    ----------
    A, E:
        Same-shape ``n x p`` matrices, or ``(K, n, p)`` stacks of ``K``
        pencils.  Every column of ``A`` must be orthogonal to every column
        of ``E``, and ``A + E`` must have full column rank (so ``C(eps)`` is
        positive definite for ``eps > 0``).
    tol:
        Relative tolerance for the orthogonality and rank preconditions.

    Raises
    ------
    ValueError
        On shape mismatch, violated orthogonality, an ``A + E`` that
        overflows or is rank-deficient, or a determinant with all
        coefficients below tolerance (numerically invalid input).  A stack
        raises what the first failing pencil raises alone.

    Notes
    -----
    Coefficients are recovered by evaluating at the integer nodes
    ``eps = 0..p`` (determinant, degree ``<= p``) and ``eps = 1..p``
    (adjugate, entrywise degree ``<= p-1``) followed by exact-degree
    interpolation.  ``C(eps)`` is positive definite at every positive node,
    so the adjugate is ``det * inverse`` there, from the same determinants.
    One pencil is a stack of one.  Whatever ``K`` and ``p`` are, a call runs
    one values-only SVD of the stack ``A``, ``E``, ``A + E``, one ``det`` of
    all nodes, one ``inv`` of the positive ones and the two solves.  A
    stacked matrix takes the LAPACK path it takes alone, so the coefficients
    are bit for bit those of pencil-by-pencil, node-by-node calls.
    """
    A = _as_matrix(A, stack=True)
    E = _as_matrix(E, stack=True)
    if A.shape != E.shape:
        raise ValueError(f"shape mismatch: A is {A.shape}, E is {E.shape}")
    one = A.ndim == 2
    A, E = A.reshape(-1, *A.shape[-2:]), E.reshape(-1, *E.shape[-2:])
    p = A.shape[2]

    with np.errstate(over="ignore", invalid="ignore"):  # overflow fails a check instead
        S = A + E
        finite = np.isfinite(S).all(axis=(1, 2))
        S[~finite] = 0.0
        s = np.linalg.svd(np.stack([A, E, S], axis=1), compute_uv=False)
        top = s.max(axis=2, initial=0.0)
        cross = np.abs(A.mT @ E).max(axis=(1, 2), initial=0.0)
        orth = _negligible(cross, top[:, 0] * top[:, 1], tol)
        full = _kept(s[:, 2], tol).sum(axis=1) == p
        ok = orth & finite & full
        C = (A.mT @ A)[ok, None] + np.arange(p + 1.0)[:, None, None] * (E.mT @ E)[ok, None]
        det_vals = np.linalg.det(C)
        det_coeffs = _poly_coeffs(np.arange(p + 1), det_vals)
        adj_vals = det_vals[:, 1:, None, None] * np.linalg.inv(C[:, 1:])
        adj = _poly_coeffs(np.arange(1, p + 1), adj_vals) if p > 1 else np.ones((len(C), p, p, p))

    cmax = np.abs(det_coeffs).max(axis=1)
    nonzero = np.abs(det_coeffs) > FIRST_NONZERO_TOL * cmax[:, None]
    passed = np.ones((len(_PENCIL_ERRORS), len(A)), dtype=bool)
    passed[:3] = orth, finite, full
    passed[3:, ok] = np.isfinite(cmax) & (cmax > 0.0), nonzero.any(axis=1)
    failed = np.flatnonzero(~passed.all(axis=0))
    if failed.size:
        raise ValueError(_PENCIL_ERRORS[np.argmin(passed[:, failed[0]])])
    first = nonzero.argmax(axis=1)

    for a in (det_coeffs, adj, first):
        a.setflags(write=False)
    if one:
        return PencilExpansion(p, det_coeffs[0], adj[0], int(first[0]))
    return PencilExpansion(p, det_coeffs, adj, first)
