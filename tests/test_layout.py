"""The parent-group layout that a ``Dag`` builds once at construction.

The groups, edge keys and parent counts are checked against ``g.parents``,
and ``full_mle``, ``classify`` and ``limit_mle``, which read them, against a
per-vertex reference that reads only ``g.parents``: the loop over child
vertices that the grouped fit replaced.  The reference slices each parent
block the way a group stacks it (a transposed copy), since the bits of a
BLAS product depend on the memory layout of its operands; with that, every
value must match bit for bit (compared as pickles).
"""

import copy
import pickle

import numpy as np
import pytest

from dagstab import Classification, Dag, MleEstimate, classify, full_mle, limit_mle, rank
from dagstab.graph import EXISTS_NON_UNIQUE, EXISTS_UNIQUE, NONEXISTENT
from dagstab.limits import LimitResult, VertexDiagnostics
from dagstab.linalg import DEFAULT_TOL, _kept, _negligible, pencil_expand
from dagstab.mle import GIT_LABELS
from _helpers import project, random_dag, random_perturbation, random_rank_deficient, tournament


def _dags() -> list[Dag]:
    rng = np.random.default_rng(2024)
    fixed = [Dag(1), Dag(4), Dag(2, [(1, 2)]), Dag(5, [(4, 2)]), tournament(6)]
    drawn = [random_dag(rng, int(rng.integers(2, 9)), rng.uniform(0.1, 0.9)) for _ in range(20)]
    return fixed + drawn


DAGS = _dags()
IDS = [f"m{g.m}-e{len(g.edges)}-{k}" for k, g in enumerate(DAGS)]


def _samples(g: Dag, seed: int) -> list[np.ndarray]:
    """A full-rank sample, a rank-deficient one and, where some vertex has
    two parents, one whose parent columns there are proportional."""
    rng = np.random.default_rng(seed)
    n = g.m + 2
    out = [random_rank_deficient(rng, n, g.m, r) for r in (g.m, max(g.m - 2, 1))]
    parents = next((pa for pa in map(g.parents, range(1, g.m + 1)) if len(pa) > 1), None)
    if parents:
        Y = rng.standard_normal((n, g.m))
        Y[:, parents[1] - 1] = 2.0 * Y[:, parents[0] - 1]
        out.append(Y)
    return out


def _block(Y: np.ndarray, i: int, g: Dag) -> np.ndarray:
    """The columns ``[P | y]`` of ``i``'s parents and ``i``, laid out as one
    matrix of a group's stack."""
    return Y.T[[np.subtract(g.parents(i) + [i], 1)]].transpose(0, 2, 1)


def _reference_fit(Y: np.ndarray, g: Dag, tol: float = DEFAULT_TOL):
    """Per vertex, one at a time: a QR of ``[P | y]``, then an SVD of the
    triangular factor's ``T``, values only and, where ``P`` has a kernel,
    with vectors; from them the projection onto the parent columns (one row
    per vertex), the minimum-norm coefficients and the kernel dimension;
    then the existence of each variance and the estimate.  Also returns,
    per child, the singular values of its parent columns and the triangular
    factor ``R = [T | z]``."""
    sq = np.einsum("nm,nm->m", Y, Y)
    resid_sq, proj = sq.copy(), np.zeros((g.m, Y.shape[0]))
    lam, kdims, svals, factors = {}, {}, {}, {}
    for i in range(1, g.m + 1):
        pa = g.parents(i)
        p = kdims[i] = len(pa)
        if not pa:
            continue
        Q, R = np.linalg.qr(_block(Y, i, g))
        factors[i], T, z = R, R[..., :p], R[..., p].copy()
        s = np.linalg.svd(T, compute_uv=False)
        svals[i], keep = s[0], _kept(s, tol)
        r, w = int(keep.sum()), s.shape[1]
        if r == p:
            x = np.linalg.solve(T[:, :p], z[:, :p, None])[..., 0]
            U = Q[..., :w]
        else:
            U_T, s_T, Vt = np.linalg.svd(T)
            z = (z[:, None, :] @ U_T)[:, 0, :]
            c = np.divide(z[:, :w], s_T, out=np.zeros_like(s_T), where=keep)
            x = (c[:, None, :] @ Vt[:, :w])[:, 0, :]
            U = Q @ U_T[..., :w]
        proj[i - 1] = (U @ np.where(keep, z[:, :w], 0.0)[:, :, None])[0, :, 0]
        off = np.where(np.arange(z.shape[1]) >= r, z, 0.0)
        resid_sq[i - 1] = np.einsum("kq,kq->k", off, off)[0]
        lam.update(zip([(i, j) for j in pa], x[0].tolist()))
        kdims[i] = p - r
    ok = ~_negligible(np.sqrt(resid_sq), np.sqrt(sq), tol)
    exists = dict(enumerate(ok.tolist(), start=1))
    omega = {i: sq / Y.shape[0] for i, sq in zip(exists, resid_sq.tolist()) if exists[i]}
    est = MleEstimate(lam=lam, lambda_kernel_dims=kdims, omega=omega, omega_exists=exists)
    return proj, est, svals, factors


def _bits(x) -> bytes:
    return pickle.dumps(x)


@pytest.mark.parametrize("g", DAGS, ids=IDS)
class TestLayout:
    def test_groups_partition_the_child_vertices(self, g):
        verts = sorted(c + 1 for cols, _ in g._parent_groups for c in cols.tolist())
        assert verts == g.child_vertices()
        sizes = [idx.shape[1] for _, idx in g._parent_groups]
        assert sizes == sorted(set(sizes))

    def test_parent_rows_are_the_parents(self, g):
        for cols, idx in g._parent_groups:
            assert idx.shape[0] == cols.shape[0]
            for c, row in zip(cols.tolist(), idx.tolist()):
                assert row == [j - 1 for j in g.parents(c + 1)]

    def test_edge_keys_and_parent_counts(self, g):
        assert g._edge_keys.shape == (len(g.edges), 2)
        assert list(map(tuple, g._edge_keys.tolist())) == sorted((i, j) for j, i in g.edges)
        assert g._parent_counts.tolist() == [len(g.parents(i)) for i in range(1, g.m + 1)]

    def test_layout_is_read_only(self, g):
        arrays = [g._edge_keys, g._parent_counts, *(a for grp in g._parent_groups for a in grp)]
        assert not any(a.flags.writeable for a in arrays)

    @pytest.mark.parametrize(
        "clone", [lambda g: pickle.loads(pickle.dumps(g)), copy.deepcopy], ids=["pickle", "deepcopy"]
    )
    def test_copies_are_equal_and_read_only(self, g, clone):
        twin = clone(g)
        assert twin == g and hash(twin) == hash(g)
        arrays = [twin._edge_keys, twin._parent_counts, *(a for grp in twin._parent_groups for a in grp)]
        assert not any(a.flags.writeable for a in arrays)
        assert twin._edge_keys.tolist() == g._edge_keys.tolist()

    def test_equality_hash_and_repr_see_only_m_and_edges(self, g):
        twin = Dag(g.m, sorted(g.edges, reverse=True))
        assert twin == g and hash(twin) == hash(g)
        assert repr(g) == f"Dag(m={g.m}, edges={g.edges!r})"
        assert Dag(g.m + 1, g.edges) != g

    def test_full_mle_matches_the_per_vertex_reference(self, g):
        for Y in _samples(g, g.m):
            assert _bits(full_mle(Y, g)) == _bits(_reference_fit(Y, g)[1])

    def test_classify_matches_the_per_vertex_reference(self, g):
        for Y in _samples(g, g.m + 1):
            exists = _reference_fit(Y, g)[1].omega_exists
            absent = [i for i in exists if not exists[i]]
            deficient = [
                i for i in exists if rank(Y[:, np.subtract(g.parents(i) + [i], 1)]) <= len(g.parents(i))
            ]
            status = NONEXISTENT if absent else EXISTS_NON_UNIQUE if deficient else EXISTS_UNIQUE
            witness = (absent or deficient or [None])[0]
            assert classify(Y, g) == Classification(status, GIT_LABELS[status], witness)

    @pytest.mark.parametrize("full_rank", [True, False], ids=["zero-perturbation", "half-rank"])
    def test_limit_mle_matches_the_per_vertex_reference(self, g, full_rank):
        rng = np.random.default_rng(g.m + 2)
        f = random_rank_deficient(rng, g.m + 2, g.m, g.m if full_rank else max(g.m // 2, 1))
        fp = random_perturbation(f, g.m)
        (fbar, est, svals, R_A), (vbar, *_, R_E) = _reference_fit(f, g), _reference_fit(fp, g)
        floor = np.linalg.norm(fp, axis=0).max()
        lam, independent, diagnostics = {}, {}, {}
        for i in g.child_vertices():
            A, E = _block(f, i, g)[0, :, :-1], _block(fp, i, g)[0, :, :-1]
            if est.lambda_kernel_dims[i] == 0:
                # full rank: the fit is the limit, with c_0 = det(A^T A) = prod s^2
                x = est.lambda_vector(g, i)
                c_0 = np.prod(svals[i] ** 2)
                diagnostics[i] = VertexDiagnostics(0, float(c_0), c_0 * x)
                lam.update(zip([(i, j) for j in g.parents(i)], x.tolist()))
            else:
                pencil = pencil_expand(A, E)
                l = pencil.first_nonzero
                # A^T fbar = T_A^T z_A and E^T vbar = T_E^T z_E, from R = [T | z]
                num = (pencil.adj_coeff(l) @ (R_A[i][0, :, :-1].T @ R_A[i][0, :, -1])
                       + pencil.adj_coeff(l - 1) @ (R_E[i][0, :, :-1].T @ R_E[i][0, :, -1]))
                diagnostics[i] = VertexDiagnostics(l, float(pencil.det_coeffs[l]), num)
                lam.update(zip([(i, j) for j in g.parents(i)], (num / diagnostics[i].det_coeff).tolist()))
            target = fbar[i - 1] + vbar[i - 1]
            resid = np.linalg.norm(target - project(target, A + E))
            independent[i] = bool(resid <= DEFAULT_TOL * (np.linalg.norm(target) + floor))
        ref = LimitResult(
            lam=lam,
            omega=est.omega,
            omega_exists=est.omega_exists,
            epsilon_independent=independent,
            diagnostics=diagnostics,
            partial=not all(est.omega_exists.values()),
        )
        assert _bits(limit_mle(f, fp, g)) == _bits(ref)
