"""Dense real linear algebra primitives.

Ranks, orthonormal image/kernel bases and the polynomial expansion of the
one-parameter pencil ``C(eps) = A^T A + eps E^T E`` that drives the
closed-form limit machinery in :mod:`dagstab.limits`.  Orthogonal
projections belong to the fits of :mod:`dagstab.mle`.

All operations are pure functions on immutable values; inputs are never
mutated.  Tolerances are relative, defaulting to ``DEFAULT_TOL``, and each
kind of decision has one owner: :func:`_kept` cuts singular values at
``tol * sigma_max`` and :func:`_negligible` decides that a residual is zero,
``residual <= tol * scale``.  No scale has an absolute floor, so scaling the
sample and its perturbation by a common constant, or rotating both by an
orthogonal matrix, changes no answer.  The scale of a vector from the sample
is its own norm; of a vector built from the perturbation, its own norm plus
the largest perturbation column norm (columns that vanish in exact
arithmetic carry roundoff of that size); of a product, the product of the
norms of its factors, e.g. ``|P^T y| + |P^T P| |x|`` for ``P^T (y - P x)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-10

# Relative threshold for locating the first non-vanishing determinant
# coefficient of the pencil.  Coefficients are compared against the largest
# coefficient in magnitude, since they are exact-arithmetic zeros in theory
# and only roundoff in practice.
FIRST_NONZERO_TOL = 1e-9


def _as_matrix(M, name: str = "matrix") -> np.ndarray:
    """The one check of a finite 2-d array; ``name`` labels the errors."""
    try:
        A = np.asarray(M, dtype=float)
    except OverflowError:  # a Python integer beyond the float range
        raise ValueError(f"{name} entries must be finite") from None
    if A.ndim != 2:
        raise ValueError(f"{name} must be a 2-d array, got shape {A.shape}")
    if A.size and not np.all(np.isfinite(A)):
        raise ValueError(f"{name} entries must be finite")
    return A


def _check_squares(A: np.ndarray, name: str) -> None:
    """Raise unless each nonzero column's squared norm is a finite normal float:
    decisions read squared norms, which overflow or underflow near ``1e±154``."""
    sq = np.einsum("nm,nm->m", A, A)
    if not np.all(sq <= np.finfo(float).max) or np.any(A[:, sq < np.finfo(float).tiny]):
        raise ValueError(
            f"{name} has a column whose squared norm overflows or underflows; rescale it"
        )


def _unit_scaled(A: np.ndarray) -> tuple[np.ndarray, int]:
    """``A`` times the power of two (exact) that brings its largest column norm
    into ``[1/2, 1)``, and ``e`` with ``A = scaled * 2**e``: a zero ``A`` as it is."""
    e = int(np.frexp(np.sqrt(np.einsum("nm,nm->m", A, A)).max(initial=0.0))[1])
    return np.ldexp(A, -e), e


def _kept(s: np.ndarray, tol: float) -> np.ndarray:
    """The one rank cut: which singular values, in descending order along the
    last axis, lie above ``tol * sigma_max``.  An empty or all-zero row keeps
    none."""
    return s > tol * s[..., :1]


def _negligible(residual, scale, tol: float):
    """The one zero test, elementwise: is ``residual <= tol * scale``?  A NaN
    is never negligible.  The module docstring gives the scale to use."""
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
    """Polynomial data of the pencil ``C(eps) = A^T A + eps E^T E``.

    ``det_coeffs`` and ``adj_coeffs`` hold Taylor coefficients: writing
    ``det C(eps) = sum_k c_k eps^k`` and ``adj C(eps) = sum_k G_k eps^k``,
    entry ``k`` equals ``(1/k!) d^k/deps^k|_0`` of the respective quantity.
    Identities stated with raw derivatives translate through the factor
    ``k!``; in particular Jacobi's formula reads
    ``(k+1) c_{k+1} = tr(G_k E^T E)`` in this normalisation.

    ``first_nonzero`` is the smallest ``k`` with ``|c_k|`` above
    ``FIRST_NONZERO_TOL`` relative to the largest coefficient.  It exists
    because ``C(1) = (A+E)^T (A+E)`` is positive definite.
    """

    size: int
    det_coeffs: np.ndarray
    adj_coeffs: tuple[np.ndarray, ...]
    first_nonzero: int

    def adj_coeff(self, k: int) -> np.ndarray:
        """Taylor coefficient ``k`` of the adjugate; zero outside ``0..p-1``."""
        if 0 <= k < len(self.adj_coeffs):
            return self.adj_coeffs[k]
        return np.zeros((self.size, self.size))


def _poly_coeffs(nodes, values) -> np.ndarray:
    """Coefficients (ascending) of the polynomial interpolating ``values`` at
    ``nodes``; exact for polynomials of degree ``< len(nodes)``.

    ``values`` is a float array, one entry per node along axis 0; trailing
    axes (e.g. matrices) are interpolated entrywise.
    """
    V = np.vander(np.asarray(nodes, dtype=float), increasing=True)
    return np.linalg.solve(V, values.reshape(len(V), -1)).reshape(values.shape)


def pencil_expand(A, E, tol: float = DEFAULT_TOL) -> PencilExpansion:
    """Expand ``det`` and ``adj`` of ``C(eps) = A^T A + eps E^T E`` as
    polynomials in ``eps``.

    Parameters
    ----------
    A, E:
        Same-shape ``n x p`` matrices.  Every column of ``A`` must be
        orthogonal to every column of ``E``, and ``A + E`` must have full
        column rank (so ``C(eps)`` is positive definite for ``eps > 0``).
    tol:
        Relative tolerance for the orthogonality and rank preconditions.

    Raises
    ------
    ValueError
        On shape mismatch, violated orthogonality, rank-deficient ``A + E``,
        or a determinant with all coefficients below tolerance (numerically
        invalid input).

    Notes
    -----
    Coefficients are recovered by evaluating at the integer nodes
    ``eps = 0..p`` (determinant, degree ``<= p``) and ``eps = 1..p``
    (adjugate, entrywise degree ``<= p-1``) followed by exact-degree
    interpolation.  ``C(eps)`` is positive definite at every positive node,
    so the adjugate is ``det * inverse`` there, from the same determinants.
    Whatever ``p`` is, a call runs one values-only SVD of the stack ``A``,
    ``E``, ``A + E``, one ``det`` of all nodes, one ``inv`` of the positive
    ones and the two solves.  A stacked matrix takes the LAPACK path it takes
    alone, so the coefficients are bit for bit those of node-by-node calls.
    """
    A = _as_matrix(A)
    E = _as_matrix(E)
    if A.shape != E.shape:
        raise ValueError(f"shape mismatch: A is {A.shape}, E is {E.shape}")
    p = A.shape[1]
    if p == 0:
        return PencilExpansion(0, np.array([1.0]), (), 0)

    s = np.linalg.svd(np.stack([A, E, A + E]), compute_uv=False)
    scale = s[0, 0] * s[1, 0] if A.size else 0.0
    if not _negligible(np.max(np.abs(A.T @ E), initial=0.0), scale, tol):
        raise ValueError("columns of A are not orthogonal to columns of E")
    if np.isnan(s[2]).any():  # A + E overflowed
        raise ValueError("matrix entries must be finite")
    if _kept(s[2], tol).sum() < p:
        raise ValueError("A + E must have full column rank")

    C = A.T @ A + np.arange(p + 1.0)[:, None, None] * (E.T @ E)
    det_vals = np.linalg.det(C)
    det_coeffs = _poly_coeffs(np.arange(p + 1), det_vals)

    adj_vals = det_vals[1:, None, None] * np.linalg.inv(C[1:])
    adj = _poly_coeffs(np.arange(1, p + 1), adj_vals) if p > 1 else np.ones((1, 1, 1))

    cmax = np.max(np.abs(det_coeffs))
    if cmax <= 0.0 or not np.isfinite(cmax):
        raise ValueError("all determinant coefficients vanish; input is numerically invalid")
    nonzero = np.flatnonzero(np.abs(det_coeffs) > FIRST_NONZERO_TOL * cmax)
    if nonzero.size == 0:
        raise ValueError("no determinant coefficient above tolerance")
    first = int(nonzero[0])

    for a in (det_coeffs, adj):  # the adjugate coefficients are views of adj
        a.setflags(write=False)
    return PencilExpansion(p, det_coeffs, tuple(adj), first)
