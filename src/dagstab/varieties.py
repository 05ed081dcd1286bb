"""Membership predicates for the parameter spaces of stabilisations.

Three nested varieties of candidate perturbations of a fixed sample ``f``
are queried pointwise:

* the perturbations themselves (orthogonality plus the rank condition);
* those whose stabilised MLE equals a prescribed estimate ``alpha`` (cut
  out by the linear equations ``v_i = sum_j lambda_ij v_j`` at every child
  vertex);
* those whose *limit* MLE equals ``alpha``: ``f`` being orthogonal to ``f'``,
  the limit at a child vertex is the ``x`` with ``A^T (A x - b) = 0`` and
  ``N^T E^T (E x - v) = 0`` (``A, b`` and ``E, v`` the parent and child
  columns of ``f`` and ``f'``, and ``N`` a basis of ``ker A``).

The three predicates share one test per query of whether the candidate is
a perturbation of ``f``, and the two alpha-indexed ones one fit of ``f``, at
``tol``: :func:`in_Xf_alpha` checks with it that ``alpha`` is an MLE (the
equations and the variances to the verification tolerance), and
:func:`in_Xf_alpha_lim` takes ``ker A`` from it, as
:func:`dagstab.limits.limit_mle` does from its own fit of ``f``.  These are
membership tests on given points only; deciding emptiness of the varieties
is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import NONEXISTENT, Dag, is_star
from .linalg import DEFAULT_TOL, _verification_tol
from .mle import MleEstimate, _classified_mle, _fit, _is_mle, _validated
from .limits import _limit_equation_failures, check_alpha_fixed
from .stabilise import InvalidPerturbationError, Perturbation, _as_perturbation


class AlphaNotMleError(ValueError):
    """Raised when the supplied estimate is not an MLE given the sample."""


@dataclass(frozen=True)
class VarietyQuery:
    """A pointwise membership query.

    ``candidate`` is the matrix whose membership is tested, or a
    :class:`~dagstab.stabilise.Perturbation` of ``f`` built beforehand (the
    predicates then check only that its base is ``f``); ``alpha`` is
    required by the two alpha-indexed predicates and ignored by the first.
    """

    f: np.ndarray
    candidate: np.ndarray | Perturbation
    g: Dag
    alpha: MleEstimate | None = None
    tol: float = DEFAULT_TOL

    @cached_property
    def _f_fit(self):
        """``f``, validated, and its fit at ``tol``, shared by the alpha predicates."""
        A = _validated(self.f, self.g)
        return A, _fit(A, self.g, self.tol)

    @cached_property
    def _pert(self) -> Perturbation | None:
        """The candidate as a validated perturbation of ``f``, or ``None``,
        shared by the three predicates."""
        try:
            return _as_perturbation(self.f, self.candidate, self.tol)
        except InvalidPerturbationError:
            return None


def in_Xf(q: VarietyQuery) -> bool:
    """Is the candidate a perturbation of ``f``?  Identical to the
    perturbation predicate."""
    return q._pert is not None


def in_Xf_alpha(q: VarietyQuery) -> bool:
    """Is the candidate a perturbation whose stabilised MLE equals
    ``alpha`` in every child-vertex component?

    ``alpha`` must be an MLE given ``f``; this is re-verified here (the
    equivalence between the defining equations and the stabilised MLE
    presumes it) and :class:`AlphaNotMleError` is raised on failure.
    Membership makes the stabilised edge weights and child-vertex residual
    variances equal ``alpha``'s; source-vertex variances shift by the
    squared norms of their perturbation columns, which only vanishes in the
    ``eps -> 0`` limit.
    """
    if q.alpha is None:
        raise ValueError("membership in the alpha-indexed variety needs alpha")
    A, fit = q._f_fit
    if not _is_mle(A, q.g, q.alpha, _verification_tol(q.tol), fit):
        raise AlphaNotMleError("alpha is not an MLE given the sample")
    if q._pert is None:
        return False
    return all(check_alpha_fixed(q._pert, q.alpha.lam, q.g, q.tol).values())


def in_Xf_alpha_lim(q: VarietyQuery) -> bool:
    """Is the candidate a perturbation whose limit MLE has the edge-weight
    part of ``alpha``?

    Membership holds when ``alpha``'s edge weights, which must name edges
    of the DAG only, satisfy both equations of the module docstring at every
    child vertex, each within the verification tolerance.  The check is the
    one :func:`dagstab.limits.limit_mle` runs on its own result, so at the
    same ``tol`` this predicate accepts every limit ``limit_mle`` returns.
    """
    if q.alpha is None:
        raise ValueError("membership in the alpha-indexed variety needs alpha")
    if q._pert is None:
        return False
    for i in q.g.child_vertices():
        if any((i, j) not in q.alpha.lam for j in q.g.parents(i)):
            raise ValueError(f"alpha is missing edge weights at vertex {i}")
    return not _limit_equation_failures(q._pert, q.g, q.alpha.lam, q.tol, q._f_fit[1])


def star_min_norm_mle(f, g: Dag, tol: float = DEFAULT_TOL) -> MleEstimate:
    """The minimum-norm MLE given ``f`` on a star-shaped DAG.

    Star-shaped DAG models are linear regression models; when the MLE given
    ``f`` exists, the MLE given *any* stabilisation of ``f`` — and the limit
    MLE along any stabilisation path — equals this one, making it the
    distinguished representative of the solution set.
    """
    if not is_star(g):
        raise ValueError("the minimum-norm characterisation needs a star-shaped DAG")
    est, status = _classified_mle(f, g, tol)
    if status.status == NONEXISTENT:
        raise ValueError(f"no MLE exists given the sample (witness vertex {status.witness})")
    return est
