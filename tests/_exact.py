"""Exact referees in rational arithmetic, for integer samples.

``integer_perturbation`` builds a sample ``f`` and a perturbation ``f'`` for
which ``f^T f' = 0`` and ``f' f^T = 0`` hold exactly, so no floating-point
test decides what the input is.  ``exact_conditions`` decides both span
conditions by exact ranks (sympy), from their definitions: ``fbar + vbar``
in ``span(A + E)`` for the edge weights, and ``v`` in ``span(E)`` and
``fbar + v`` in ``span(A + E)`` for the full condition, where ``fbar`` and
``vbar`` are the orthogonal projections of the child columns ``y`` of ``f``
and ``v`` of ``f'`` onto the parent columns ``A`` and ``E``.
"""

from __future__ import annotations

import numpy as np
from sympy import Matrix, zeros

from _helpers import fraction_rank


def _full_rank_integers(rng, rows: int, cols: int) -> np.ndarray:
    """A ``rows x cols`` integer matrix of rank ``min(rows, cols)``."""
    while True:
        M = rng.integers(-3, 4, (rows, cols))
        if fraction_rank(M.tolist()) == min(rows, cols):
            return M


def integer_perturbation(rng, n: int, m: int, r: int, density: float = 0.35):
    """An ``n x m`` integer sample of rank ``r`` and a perturbation of it.

    With ``W = [I_r | H]``, ``K = [-H ; I]`` (so ``W K = 0``), ``G``
    invertible and ``M`` of full column rank: ``f = [G W ; 0]`` and
    ``f' = [0 ; M K^T]``, so ``f^T f' = 0``, ``f' f^T = G W K M^T = 0`` and
    ``rank f' = m - r``.  ``H`` has about ``density`` of its entries nonzero,
    and a zero row of ``H`` gives a zero column of ``f'``.  Rows and columns
    are then shuffled, which keeps both products zero.  Needs ``n >= m``.
    """
    H = rng.integers(-2, 3, (r, m - r)) * (rng.random((r, m - r)) < density)
    W = np.hstack([np.eye(r, dtype=np.int64), H])
    K = np.vstack([-H, np.eye(m - r, dtype=np.int64)])
    f = np.vstack([_full_rank_integers(rng, r, r) @ W, np.zeros((n - r, m), np.int64)])
    fp = np.vstack([np.zeros((r, m), np.int64), _full_rank_integers(rng, n - r, m - r) @ K.T])
    rows, cols = rng.permutation(n), rng.permutation(m)
    return f[rows][:, cols], fp[rows][:, cols]


def _projection(B: Matrix, y: Matrix) -> Matrix:
    """The orthogonal projection of ``y`` onto the column span of ``B``."""
    basis = B.columnspace()
    if not basis:
        return zeros(B.rows, 1)
    Q = Matrix.hstack(*basis)
    return Q * (Q.T * Q).inv() * (Q.T * y)


def _in_span(B: Matrix, t: Matrix) -> bool:
    return Matrix.hstack(B, t).rank() == B.rank()


def exact_conditions(f: np.ndarray, fp: np.ndarray, g) -> tuple[dict, dict]:
    """Per child vertex of ``g``, the edge-weight and the full condition."""
    F, P = Matrix(f.tolist()), Matrix(fp.tolist())
    rows = list(range(F.rows))
    lam, full = {}, {}
    for i in g.child_vertices():
        parents = [j - 1 for j in g.parents(i)]
        A, E = F.extract(rows, parents), P.extract(rows, parents)
        y, v = F[:, i - 1], P[:, i - 1]
        fbar = _projection(A, y)
        lam[i] = _in_span(A + E, fbar + _projection(E, v))
        full[i] = _in_span(E, v) and _in_span(A + E, fbar + v)
    return lam, full
