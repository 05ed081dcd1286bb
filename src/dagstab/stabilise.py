"""Sample perturbations and stabilisations.

A perturbation of a sample ``f`` (an ``n x m`` matrix with ``n >= m``) is a
matrix ``f'`` whose image lies in the orthogonal complement of ``im f`` and
whose kernel is exactly the orthogonal complement of ``ker f``.  The sum
``f + f'`` is a stabilisation: it always has full column rank, so the MLE
given it is unique in any DAG model on ``m`` vertices.

Perturbations are assembled from affine lifts of complete collineations: a
chain of stage maps, each defined on the kernel of the previous stage and
mapping into its cokernel (embedded in ``R^n`` via iterated orthogonal
complements), with every stage degenerate except the last.

Randomised lifts draw stage maps with independent standard Gaussian entries
from ``numpy.random.default_rng`` (PCG64); given a seed, the drawn stream is
reproducible bit-for-bit across platforms.  A values-only SVD decides each
stage map's rank; only a degenerate map, whose kernel and image the next
stage needs, runs a thin SVD with vectors, its kernel bit for bit the basis
of :func:`dagstab.linalg.kernel_basis`, each cokernel from
:func:`dagstab.linalg.orth_complement`.  Validation reads the final map's
rank alone, and the sample's rank, image and singular values from one thin SVD,
whose values a built lift hands to the perturbation predicate: one SVD of the
sample per built lift.  Every sample and perturbation, a lift's base included,
passes :func:`dagstab.linalg._as_sample`, the one sample check.
"""

from __future__ import annotations

import numbers
from dataclasses import InitVar, dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_TOL, _as_matrix, _as_sample, _kept, _negligible, _unit_scaled, _verification_tol,
    orth_complement, rank,
)


class InvalidPerturbationError(ValueError):
    """Raised when a claimed perturbation violates its defining conditions."""


class InvalidLiftError(ValueError):
    """Raised when a collineation lift violates its structural invariants."""


def _require_tall(f: np.ndarray) -> None:
    n, m = f.shape
    if n < m:
        raise ValueError(
            f"sample is {n} x {m} with n < m; duplicate observations first "
            "(dagstab.mle.duplicate) so that n >= m"
        )


@dataclass(frozen=True)
class PerturbationCheck:
    """Outcome of the perturbation predicate with named diagnostics.

    ``column_orthogonality`` checks that the image of the candidate lies in
    the orthogonal complement of the sample's image; ``row_orthogonality``
    that the candidate vanishes on the orthogonal complement of the sample's
    kernel; ``rank_ok`` that the candidate's rank is exactly ``m - rank(f)``.
    """

    ok: bool
    column_orthogonality: bool
    row_orthogonality: bool
    rank_ok: bool
    expected_rank: int
    actual_rank: int
    max_column_product: float
    max_row_product: float

    def __bool__(self) -> bool:
        return self.ok

    @property
    def failures(self) -> tuple[str, ...]:
        names = "column-orthogonality", "row-orthogonality", "rank"
        flags = self.column_orthogonality, self.row_orthogonality, self.rank_ok
        return tuple(name for name, ok in zip(names, flags) if not ok)


def is_perturbation(f, fp, tol: float = DEFAULT_TOL, *, _sv=None) -> PerturbationCheck:
    """Test whether ``fp`` is a perturbation of the sample ``f``.

    Requires ``n >= m`` (raises otherwise).  Both orthogonality conditions
    reduce to matrix products: ``f^T fp`` vanishing makes the columns of
    ``fp`` orthogonal to those of ``f``; ``fp f^T`` vanishing makes ``fp``
    vanish on the row space of ``f``.  Together with
    ``rank(fp) = m - rank(f)`` these are exactly the defining conditions,
    i.e. membership of ``fp`` in the parameter space of stabilisations.
    Raises on a sample or perturbation that fails the one sample check.
    A caller that has factored ``f`` passes its singular values as ``_sv``.
    """
    F, P = _as_sample(f), _as_sample(fp, "perturbation")
    _require_tall(F)
    if P.shape != F.shape:
        raise ValueError(f"shape mismatch: sample {F.shape}, perturbation {P.shape}")

    # each matrix scaled by a power of two (exact) keeps products finite; one singular-value
    # vector per matrix gives its spectral norm and its rank; products are reported unscaled
    (F, eF), (P, eP) = _unit_scaled(F), _unit_scaled(P)
    sF = np.linalg.svd(F, compute_uv=False) if _sv is None else np.ldexp(_sv, -eF)
    sP = np.linalg.svd(P, compute_uv=False)
    scale = sF[0] * sP[0] if F.size else 0.0
    max_col = float(np.max(np.abs(F.T @ P), initial=0.0))
    max_row = float(np.max(np.abs(P @ F.T), initial=0.0))
    col_ok = bool(_negligible(max_col, scale, tol))
    row_ok = bool(_negligible(max_row, scale, tol))

    expected = F.shape[1] - int(_kept(sF, tol).sum())
    actual = int(_kept(sP, tol).sum())
    rank_ok = actual == expected

    return PerturbationCheck(
        ok=col_ok and row_ok and rank_ok,
        column_orthogonality=col_ok,
        row_orthogonality=row_ok,
        rank_ok=rank_ok,
        expected_rank=expected,
        actual_rank=actual,
        max_column_product=float(np.ldexp(max_col, eF + eP)),
        max_row_product=float(np.ldexp(max_row, eF + eP)),
    )


@dataclass(frozen=True, eq=False)
class Perturbation:
    """A validated perturbation ``delta`` of the sample ``base``.

    Construction re-runs the full predicate and raises
    :class:`InvalidPerturbationError` on violation; instances are immutable
    afterwards.
    """

    base: np.ndarray
    delta: np.ndarray
    tol: float = DEFAULT_TOL
    _sv: InitVar[np.ndarray | None] = field(default=None, kw_only=True)  # for the predicate

    def __post_init__(self, _sv):
        check = is_perturbation(self.base, self.delta, self.tol, _sv=_sv)
        if not check:
            raise InvalidPerturbationError(
                f"not a perturbation; failed conditions: {', '.join(check.failures)}"
            )
        for name in ("base", "delta"):  # read-only float copies
            A = np.array(getattr(self, name), dtype=float)
            A.setflags(write=False)
            object.__setattr__(self, name, A)

    def scaled(self, eps: float) -> np.ndarray:
        """The perturbed sample ``base + eps * delta``."""
        return self.base + eps * self.delta


def _as_perturbation(f, fp, tol: float, m: int | None = None) -> Perturbation:
    """Validate a (sample, perturbation) pair once.

    A :class:`Perturbation` was validated when it was built and is returned
    as it is (``f`` may then be ``None``); raw arrays are validated here.
    Callers pass the returned object on, so one public call runs the
    perturbation predicate at most once.  With ``m`` (the vertex count of a
    DAG) the pair must have ``m`` columns.
    """
    if isinstance(fp, Perturbation):
        if f is not None and not np.array_equal(f, fp.base):
            raise ValueError("sample does not match the perturbation's base")
        pert = fp
    else:
        pert = Perturbation(f, fp, tol)
    if m is not None and pert.base.shape[1] != m:
        raise ValueError(f"sample has {pert.base.shape[1]} columns but the DAG has {m} vertices")
    return pert


@dataclass(frozen=True, eq=False)
class LiftStage:
    """One stage of an affine lift beyond the base sample.

    ``kernel_basis``: orthonormal columns in ``R^m`` spanning the kernel of
    the previous stage (a subspace of the previous kernel).
    ``cokernel_basis``: orthonormal columns in ``R^n`` spanning the current
    cokernel, embedded via iterated orthogonal complements.
    ``stage_map``: the stage's matrix in those bases; nonzero.  As a map
    ``R^m -> R^n`` the stage is ``cokernel_basis @ stage_map @ kernel_basis.T``.
    """

    kernel_basis: np.ndarray
    cokernel_basis: np.ndarray
    stage_map: np.ndarray


@dataclass(frozen=True, eq=False)
class CollineationLift:
    """Affine lift of a complete collineation with first term the sample.

    ``stages`` holds the stages after the first; it is empty exactly when
    the sample already has full column rank.  ``seed`` records the RNG seed
    when the lift was drawn by :func:`random_lift`.
    """

    base: np.ndarray
    stages: tuple[LiftStage, ...]
    seed: int | None = None

    @property
    def length(self) -> int:
        """Number of terms in the underlying collineation."""
        return 1 + len(self.stages)


def _check_orthonormal(B: np.ndarray, what: str, tol: float) -> None:
    if B.shape[1] == 0:
        raise InvalidLiftError(f"{what} has no columns")
    G = B.T @ B - np.eye(B.shape[1])
    if not _negligible(np.max(np.abs(G)), 1.0, _verification_tol(tol)):
        raise InvalidLiftError(f"{what} does not have orthonormal columns")


def _image(M: np.ndarray, tol: float, r: int | None = None) -> tuple:
    """Rank (or the ``r`` already decided), orthonormal image basis, singular
    values (descending: the first is the spectral norm) and trailing right
    singular vectors of ``M``, from one thin SVD.  For ``M`` with at least as
    many rows as columns the last are an orthonormal kernel basis, bit for bit
    :func:`dagstab.linalg.kernel_basis`; otherwise they miss the part of the
    kernel that the thin SVD does not compute."""
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    r = int(_kept(s, tol).sum()) if r is None else r
    return r, U[:, :r], s, Vt[r:].T


def validate_lift(lift: CollineationLift, tol: float = DEFAULT_TOL) -> None:
    """Check the structural invariants of a lift; raise on violation.

    Every stage map except the last must be degenerate (rank below its
    column count) and nonzero; the last must have full column rank.  Kernel
    bases must be nested and annihilated by the preceding map; cokernel
    embeddings must be pairwise orthogonal and orthogonal to the image of
    everything before them.
    """
    _lift_delta(lift, tol)


def _lift_delta(lift: CollineationLift, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Run :func:`validate_lift`'s checks and return the sum of the stage
    maps as maps ``R^m -> R^n``, the products ``C M K^T`` the checks form,
    added to zeros in stage order, and the singular values of the sample."""
    F = _as_sample(lift.base)
    _require_tall(F)
    n, m = F.shape
    r, image, sF, _ = _image(F, tol)
    if not lift.stages and r < m:
        raise InvalidLiftError("rank-deficient sample needs at least one stage beyond the base")
    ortho_tol = _verification_tol(tol)
    kernel_dim, cokernel_dim = m - r, n - r
    delta = np.zeros((n, m))
    prev_map, prev_s, prev_basis, images = F, sF, None, [image]
    for idx, st in enumerate(lift.stages):
        stage = f"stage {idx + 2}"
        K = _as_matrix(st.kernel_basis, "kernel basis")
        C = _as_matrix(st.cokernel_basis, "cokernel basis")
        M = _as_matrix(st.stage_map, "stage map")
        if K.shape[0] != m or C.shape[0] != n:
            raise InvalidLiftError(f"{stage}: basis ambient dimensions wrong")
        _check_orthonormal(K, f"{stage} kernel basis", tol)
        _check_orthonormal(C, f"{stage} cokernel basis", tol)
        if K.shape[1] != kernel_dim:
            raise InvalidLiftError(
                f"{stage}: kernel basis has {K.shape[1]} columns, expected {kernel_dim}"
            )
        if C.shape[1] != cokernel_dim:
            raise InvalidLiftError(
                f"{stage}: cokernel basis has {C.shape[1]} columns, expected {cokernel_dim}"
            )
        if M.shape != (C.shape[1], K.shape[1]):
            raise InvalidLiftError(f"{stage}: stage map shape {M.shape} does not match bases")
        # K must lie in the previous kernel: annihilated by the previous map
        # and nested in the previous basis (the first stage nests in all of R^m)
        if not _negligible(np.max(np.abs(prev_map @ K), initial=0.0), prev_s[0], ortho_tol):
            raise InvalidLiftError(f"{stage}: kernel basis does not span the previous kernel")
        if prev_basis is not None and not _negligible(
            np.max(np.abs(K - prev_basis @ (prev_basis.T @ K))), 1.0, ortho_tol
        ):
            raise InvalidLiftError(f"{stage}: kernel basis is not nested in the previous one")
        for Q in images:
            if not _negligible(np.max(np.abs(Q.T @ C), initial=0.0), 1.0, ortho_tol):
                raise InvalidLiftError(f"{stage}: cokernel embedding meets an earlier image")
        last = idx == len(lift.stages) - 1
        if last:  # nothing reads the final map's image or norm: its rank alone
            rk = rank(M, tol)
        else:  # C and K have orthonormal columns, so C M K^T has the norm of M
            rk, image, prev_s, _ = _image(M, tol)
            images.append(C @ image)
        if rk == 0:
            raise InvalidLiftError(f"{stage}: stage map is zero")
        if last and rk < M.shape[1]:
            raise InvalidLiftError("final stage map must have full column rank")
        if not last and rk == M.shape[1]:
            raise InvalidLiftError(f"{stage}: only the final stage map may be non-degenerate")
        kernel_dim, cokernel_dim = K.shape[1] - rk, C.shape[1] - rk
        prev_map, prev_basis = C @ M @ K.T, K
        delta += prev_map
    return delta, sF


def build_from_lift(lift: CollineationLift, tol: float = DEFAULT_TOL) -> Perturbation:
    """Assemble the perturbation determined by an affine lift.

    The perturbation is the sum of the stage maps viewed as maps
    ``R^m -> R^n``; successive kernel projections collapse to a single
    orthogonal projection because the kernels are nested.  The predicate reads
    the sample's singular values from the lift's check: one SVD of the sample.
    """
    delta, s = _lift_delta(lift, tol)
    return Perturbation(lift.base, delta, tol, _sv=s)


def stabilize(f, fp, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The stabilised sample ``f + f'``.

    Accepts a raw candidate matrix (validated here) or a
    :class:`Perturbation`.  The result always has full column rank, which is
    asserted; failure signals numerically inconsistent input.
    """
    pert = _as_perturbation(f, fp, tol)
    out = pert.base + pert.delta
    m = out.shape[1]
    got = rank(out, tol)
    if got != m:
        raise ValueError(
            f"stabilised sample has rank {got} != {m}; input is numerically inconsistent"
        )
    return out


def random_lift(f, seed: int, tol: float = DEFAULT_TOL) -> CollineationLift:
    """Draw an affine lift with first term ``f`` by the sampling procedure.

    While the current stage map is degenerate: take the singular-vector
    basis of its kernel, draw a ``dim(cokernel) x dim(kernel)`` stage map
    with independent standard Gaussian entries, and recurse with kernel and
    cokernel bases propagated through the chain.  An all-zero draw (measure
    zero) is rejected and redrawn from the incremented seed.  Generically
    the lift has two terms.
    """
    F = _as_sample(f)
    _require_tall(F)
    n, m = F.shape
    if not isinstance(seed, numbers.Integral) or not 0 <= seed < 2**64:
        raise ValueError("seed must be an unsigned 64-bit integer")
    seed = int(seed)
    rng = np.random.default_rng(seed)
    bump = seed

    # every stage map is tall (cokernel at least as wide as kernel, as n >= m),
    # so one thin SVD gives its image and kernel; a values-only one decides its rank
    _, image, _, K = _image(F, tol)
    C = orth_complement(image, n, tol)
    stages: list[LiftStage] = []
    while K.shape[1] > 0:
        M = rng.standard_normal((C.shape[1], K.shape[1]))
        while not np.any(M):
            bump += 1
            rng = np.random.default_rng(bump)
            M = rng.standard_normal((C.shape[1], K.shape[1]))
        stages.append(LiftStage(K, C, M))
        rk = rank(M, tol)
        if rk == K.shape[1]:
            break
        _, image, _, kernel = _image(M, tol, rk)
        K = K @ kernel
        C = C @ orth_complement(image, C.shape[1], tol)
    return CollineationLift(F, tuple(stages), seed=seed)
