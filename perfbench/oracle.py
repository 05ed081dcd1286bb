"""Independent reference computations, built on scipy from the definitions.

Nothing here calls the program.  Ranks come from pivoted QR (the program
uses the SVD), minimum-norm solutions from the complete orthogonal
factorisation of LAPACK's ``gelsy`` (the program uses ``gelsd``), and the
limit of the MLE from the nullspace method rather than the program's
pencil expansion.  The generated inputs have singular-value gaps from
about 1e-14 to 1e-3 relative, so the rank threshold below sits well inside
every gap.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sl

RANK_TOL = 1e-9
SPAN_TOL = 1e-8


def rank(M) -> int:
    A = np.asarray(M, dtype=float)
    if A.size == 0:
        return 0
    R = sl.qr(A, mode="r", pivoting=True)[0]
    d = np.abs(np.diag(R))
    if d.size == 0 or d[0] == 0.0:
        return 0
    return int(np.sum(d > RANK_TOL * d[0]))


def min_norm(A, b) -> np.ndarray:
    """Minimum-norm least-squares solution of ``A x = b``."""
    A = np.asarray(A, dtype=float)
    if A.shape[1] == 0:
        return np.zeros(0)
    return sl.lstsq(A, b, cond=RANK_TOL, lapack_driver="gelsy")[0]


def null_space(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.shape[0] == 0 or not np.any(A):
        return np.eye(A.shape[1])
    return sl.null_space(A, rcond=RANK_TOL)


def residual(t, A) -> np.ndarray:
    """``t`` minus its orthogonal projection onto the column span of ``A``."""
    t = np.asarray(t, dtype=float)
    A = np.asarray(A, dtype=float)
    if A.shape[1] == 0 or not np.any(A):
        return t
    Q = sl.orth(A, rcond=RANK_TOL)
    return t - Q @ (Q.T @ t)


def in_span(t, A) -> bool:
    return float(np.linalg.norm(residual(t, A))) <= SPAN_TOL * (1.0 + float(np.linalg.norm(t)))


def parents(edges, m: int) -> dict[int, list[int]]:
    pa = {i: [] for i in range(1, m + 1)}
    for j, i in edges:
        pa[i].append(j)
    return {i: sorted(v) for i, v in pa.items()}


def classify(Y, pa) -> tuple[str, int | None]:
    """Nonexistent iff some column lies in the span of its parent columns;
    otherwise non-unique iff some parent-and-self submatrix is rank
    deficient; otherwise unique.  Returns the status and the first
    certifying vertex."""
    Y = np.asarray(Y, dtype=float)
    for i, p in pa.items():
        if in_span(Y[:, i - 1], Y[:, [j - 1 for j in p]]):
            return "nonexistent", i
    for i, p in pa.items():
        cols = sorted(p + [i])
        if rank(Y[:, [c - 1 for c in cols]]) < len(cols):
            return "exists-non-unique", i
    return "exists-unique", None


def mle(Y, pa) -> dict:
    """Minimum-norm edge weights, kernel dimensions and variance MLEs."""
    Y = np.asarray(Y, dtype=float)
    n = Y.shape[0]
    lam, kdims, omega, exists = {}, {}, {}, {}
    for i, p in pa.items():
        P = Y[:, [j - 1 for j in p]]
        y = Y[:, i - 1]
        if p:
            lam[i] = min_norm(P, y)
        kdims[i] = len(p) - rank(P)
        exists[i] = not in_span(y, P)
        if exists[i]:
            r = residual(y, P)
            omega[i] = float(r @ r) / n
    return {"lam": lam, "kdims": kdims, "omega": omega, "exists": exists}


def limit_lambda(F, D, pa) -> dict[int, np.ndarray]:
    """Limit of the edge weights along ``F + eps D`` by the nullspace
    method: ``x_A + N (E N)^+ (v - E x_A)``, with ``x_A`` the minimum-norm
    solution at the sample and ``N`` a basis of the kernel of its parent
    columns."""
    out = {}
    for i, p in pa.items():
        if not p:
            continue
        idx = [j - 1 for j in p]
        A, E, b, v = F[:, idx], D[:, idx], F[:, i - 1], D[:, i - 1]
        x = min_norm(A, b)
        N = null_space(A)
        if N.shape[1]:
            x = x + N @ min_norm(E @ N, v - E @ x)
        out[i] = x
    return out


def perturbation_failures(F, D) -> list[str]:
    """Which defining conditions of a perturbation ``D`` of ``F`` fail:
    image orthogonal to the image of ``F``, vanishing on the row space of
    ``F``, rank ``m - rank F``; and ``F + D`` of full column rank."""
    F = np.asarray(F, dtype=float)
    D = np.asarray(D, dtype=float)
    scale = 1.0 + np.linalg.norm(F) * np.linalg.norm(D)
    out = []
    if np.max(np.abs(F.T @ D), initial=0.0) > SPAN_TOL * scale:
        out.append("column-orthogonality")
    if np.max(np.abs(D @ F.T), initial=0.0) > SPAN_TOL * scale:
        out.append("row-orthogonality")
    m = F.shape[1]
    if rank(D) != m - rank(F):
        out.append("rank")
    if rank(F + D) != m:
        out.append("stabilised rank")
    return out


def random_perturbation(F, rng) -> np.ndarray:
    """A perturbation of ``F`` from its definition: a Gaussian map from the
    kernel of ``F`` into the orthogonal complement of its image."""
    K = null_space(F)
    C = null_space(np.asarray(F).T)
    return C @ rng.standard_normal((C.shape[1], K.shape[1])) @ K.T


def lambda_condition(F, D, pa) -> dict[int, bool]:
    """``proj_A(b) + proj_E(v)`` in the span of ``A + E`` at each child."""
    out = {}
    for i, p in pa.items():
        if p:
            idx = [j - 1 for j in p]
            A, E, b, v = F[:, idx], D[:, idx], F[:, i - 1], D[:, i - 1]
            t = (b - residual(b, A)) + (v - residual(v, E))
            out[i] = in_span(t, A + E)
    return out


def full_condition(F, D, pa) -> dict[int, bool]:
    """``v`` in the span of ``E`` and ``proj_A(b) + v`` in the span of
    ``A + E`` at each child."""
    out = {}
    for i, p in pa.items():
        if p:
            idx = [j - 1 for j in p]
            A, E, b, v = F[:, idx], D[:, idx], F[:, i - 1], D[:, i - 1]
            out[i] = in_span(v, E) and in_span((b - residual(b, A)) + v, A + E)
    return out


def rel_err(x, ref) -> float:
    x = np.asarray(x, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if x.shape != ref.shape:
        return float("inf")
    return float(np.max(np.abs(x - ref), initial=0.0) / (1.0 + np.max(np.abs(ref), initial=0.0)))
