"""Shared generators and exact oracles for the test suite."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from dagstab import Dag, build_from_lift, image_basis, random_lift, star


def collider() -> Dag:
    return Dag(3, [(1, 3), (2, 3)])


def tournament(m: int) -> Dag:
    """Transitive tournament: every edge j -> i for j < i."""
    return Dag(m, [(j, i) for j in range(1, m + 1) for i in range(j + 1, m + 1)])


def transitive_closure(g: Dag) -> Dag:
    edges = set(g.edges)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(edges):
            for (c, d) in list(edges):
                if b == c and (a, d) not in edges:
                    edges.add((a, d))
                    changed = True
    return Dag(g.m, edges)


def random_dag(rng: np.random.Generator, m: int, edge_prob: float = 0.4) -> Dag:
    order = rng.permutation(np.arange(1, m + 1))
    edges = []
    for a in range(m):
        for b in range(a + 1, m):
            if rng.random() < edge_prob:
                edges.append((int(order[a]), int(order[b])))
    return Dag(m, edges)


def random_transitive_dag(rng: np.random.Generator, m: int, edge_prob: float = 0.4) -> Dag:
    return transitive_closure(random_dag(rng, m, edge_prob))


def project(v, B, tol: float = 1e-10) -> np.ndarray:
    """Orthogonal projection of ``v`` onto the column span of ``B`` (the zero
    vector for an empty span): an oracle independent of the stacked fits."""
    Q = image_basis(B, tol)
    return Q @ (Q.T @ np.asarray(v, dtype=float))


def random_rank_deficient(rng: np.random.Generator, n: int, m: int, r: int) -> np.ndarray:
    """Random n x m matrix of rank exactly r (almost surely)."""
    if r == 0:
        return np.zeros((n, m))
    return rng.standard_normal((n, r)) @ rng.standard_normal((r, m))


def random_perturbation(f: np.ndarray, seed: int) -> np.ndarray:
    """Perturbation drawn through the lift sampling machinery."""
    return build_from_lift(random_lift(f, seed)).delta


def random_orthogonal_pair(rng, n, p, rank_a, rank_e):
    """(A, E) with mutually orthogonal column spaces of the given ranks and
    A + E of full column rank (generically)."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = Q[:, :rank_a] @ rng.standard_normal((rank_a, p))
    E = Q[:, rank_a:rank_a + rank_e] @ rng.standard_normal((rank_e, p))
    return A, E


def star_instance(rng: np.random.Generator, m: int, n: int, parent_rank: int):
    """Star sample with rank-deficient parents, nonzero parent columns and an
    existing MLE (hub column off the parent span)."""
    g = star(m)
    p = m - 1
    assert 1 <= parent_rank < p
    basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
    parents = basis[:, :parent_rank] @ rng.standard_normal((parent_rank, p))
    # keep every parent column away from zero
    for j in range(p):
        while np.linalg.norm(parents[:, j]) < 1e-3:
            parents[:, j] = basis[:, :parent_rank] @ rng.standard_normal(parent_rank)
    hub = parents @ rng.standard_normal(p) + rng.uniform(0.5, 2.0) * basis[:, parent_rank]
    f = np.column_stack([parents, hub])
    return f, g


def fraction_rank(rows) -> int:
    """Exact rank of an integer matrix by row reduction over the rationals."""
    M = [[Fraction(int(x)) for x in row] for row in rows]
    if not M:
        return 0
    n_rows, n_cols = len(M), len(M[0])
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if M[i][c] != 0), None)
        if pivot is None:
            continue
        M[r], M[pivot] = M[pivot], M[r]
        inv = Fraction(1, 1) / M[r][c]
        M[r] = [x * inv for x in M[r]]
        for i in range(n_rows):
            if i != r and M[i][c] != 0:
                factor = M[i][c]
                M[i] = [a - factor * b for a, b in zip(M[i], M[r])]
        r += 1
        if r == n_rows:
            break
    return r
