"""Directed acyclic graphs and the combinatorial quantities governing MLE
existence and uniqueness in Gaussian DAG models.

Vertices are labelled ``1..m``.  An edge ``(j, i)`` points from ``j`` to
``i``, so ``j`` is a parent of ``i``.  ``Dag`` instances are immutable after
construction and safe to share across threads.

A ``Dag`` builds once the layout that the per-vertex fits of :mod:`dagstab.mle`
and :mod:`dagstab.limits` read, read-only: ``_parent_groups`` (per parent count ``p``,
ascending, the ``(k,)`` child and ``(k, p)`` parent indices, 0-based), ``_group_edges``
(per group, the ``(k, p)`` positions of its edges in the edge order), ``_edge_keys`` and
``_edge_pairs`` (the pairs ``(i, j)`` of the edges ``j -> i``, ascending, as an ``(E, 2)``
int array and as int tuples: the order and the keys of every edge weight) and ``_parent_counts``.
"""

from __future__ import annotations

import itertools
import numbers
from collections import deque
from dataclasses import dataclass

import numpy as np

Edge = tuple[int, int]

# Classification outcomes, shared with :mod:`dagstab.mle`.
NONEXISTENT = "nonexistent"
EXISTS_NON_UNIQUE = "exists-non-unique"
EXISTS_UNIQUE = "exists-unique"

# Sample-count regimes for transitive DAGs.
BELOW_DEPTH = "below-depth"
BETWEEN = "between"
ABOVE_WITH_COLLIDERS = "above-with-colliders"
ABOVE_NO_COLLIDERS = "above-no-colliders"


@dataclass(frozen=True)
class Dag:
    """A directed acyclic graph on vertices ``1..m``.

    Parameters
    ----------
    m:
        Number of vertices (positive).
    edges:
        Iterable of ``(j, i)`` pairs, each meaning ``j -> i``.  Self-loops,
        non-integral or out-of-range endpoints and directed cycles are rejected.
    """

    m: int
    edges: frozenset[Edge]

    def __init__(self, m: int, edges=()):
        if not isinstance(m, numbers.Integral) or m < 1:
            raise ValueError(f"vertex count must be a positive integer, got {m!r}")
        m = int(m)
        normalised = set()
        for e in edges:
            try:
                j, i = e
            except (TypeError, ValueError):
                raise ValueError(f"edge {e!r} is not a (parent, child) pair") from None
            try:
                integral = int(j) == j and int(i) == i
            except (TypeError, ValueError, OverflowError):  # e.g. None, nan, inf
                integral = False
            if not integral:
                raise ValueError(f"edge {e!r} has an endpoint that is not an integer")
            j, i = int(j), int(i)
            if not (1 <= j <= m and 1 <= i <= m):
                raise ValueError(f"edge {e!r} has an endpoint outside 1..{m}")
            if j == i:
                raise ValueError(f"self-loop at vertex {j}")
            normalised.add((j, i))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "edges", frozenset(normalised))

        layout = "_parent_groups", "_group_edges", "_edge_keys", "_edge_pairs", "_parent_counts"
        for name, value in zip(layout, self._layout()):
            object.__setattr__(self, name, value)
        child_map = {i: [] for i in range(1, m + 1)}
        for i, j in self._edge_pairs:  # ascending in i: each list comes out sorted
            child_map[j].append(i)
        object.__setattr__(self, "_children", child_map)
        object.__setattr__(self, "_topo", self._toposort(m, self._parent_counts, child_map))

    def __reduce__(self):  # copies are rebuilt: re-validated, with a read-only layout
        return Dag, (self.m, sorted(self.edges))

    @staticmethod
    def _toposort(m, parent_counts, child_map) -> tuple[int, ...]:
        indeg = dict(enumerate(parent_counts.tolist(), start=1))
        queue = deque(sorted(i for i in indeg if indeg[i] == 0))
        order = []
        while queue:
            v = queue.popleft()
            order.append(v)
            for c in child_map[v]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    queue.append(c)
        if len(order) != m:
            raise ValueError("edge set contains a directed cycle")
        return tuple(order)

    def _layout(self) -> tuple:
        """The layout of the module docstring, in int32: half the memory of intp."""
        m, pairs = self.m, itertools.chain.from_iterable(self.edges)  # j, i, j, i, ...
        ji = np.fromiter(pairs, np.int64, 2 * len(self.edges))
        key = np.sort(ji[1::2] * (m + 1) + ji[::2])  # by child, then parent
        i, j = np.array(np.divmod(key, m + 1), dtype=np.int32)
        counts = np.bincount(i - 1, minlength=m).astype(np.int32)
        starts = np.cumsum(counts) - counts
        sizes = sorted(set(counts.tolist()) - {0})
        cols = [np.flatnonzero(counts == p).astype(np.int32) for p in sizes]
        edges = tuple((starts[c, None] + np.arange(counts[c[0]])).astype(np.int32) for c in cols)
        groups = tuple((c, j[e] - 1) for c, e in zip(cols, edges))
        keys = np.column_stack((i, j))
        for a in (keys, counts, *edges, *itertools.chain.from_iterable(groups)):
            a.setflags(write=False)
        return groups, edges, keys, tuple(zip(*keys.T.tolist())), counts

    def parents(self, i: int) -> list[int]:
        """Sorted parents of vertex ``i``; empty for a source vertex."""
        self._check_vertex(i)
        lo, hi = np.searchsorted(self._edge_keys[:, 0], (i, i + 1))
        return self._edge_keys[lo:hi, 1].tolist()

    def children(self, i: int) -> list[int]:
        """Sorted children of vertex ``i``."""
        self._check_vertex(i)
        return list(self._children[i])

    def child_vertices(self) -> list[int]:
        """Sorted vertices that have at least one parent."""
        return (np.flatnonzero(self._parent_counts) + 1).tolist()

    def topological_order(self) -> list[int]:
        """A topological order of the vertices (parents before children)."""
        return list(self._topo)

    def has_edge(self, j: int, i: int) -> bool:
        return (j, i) in self.edges

    def _check_vertex(self, i: int) -> None:
        if not (1 <= i <= self.m):
            raise ValueError(f"vertex {i} outside 1..{self.m}")


def parents(g: Dag, i: int) -> list[int]:
    """Sorted parents of vertex ``i`` in ``g``."""
    return g.parents(i)


def mlt(g: Dag) -> int:
    """Maximum likelihood threshold: ``max_i |parents(i)| + 1``.

    The minimal number of samples for which the MLE exists uniquely given
    generic data.
    """
    return int(g._parent_counts.max()) + 1


def depth(g: Dag) -> int:
    """Number of edges in a longest directed path of ``g``.

    Computed by dynamic programming over a topological order; exact integer
    arithmetic throughout.
    """
    longest = {i: 0 for i in range(1, g.m + 1)}
    for v in g.topological_order():
        for c in g.children(v):
            longest[c] = max(longest[c], longest[v] + 1)
    return max(longest.values())


def is_transitive(g: Dag) -> bool:
    """True iff every path ``k -> j -> i`` is shielded by an edge ``k -> i``."""
    for j, i in g.edges:
        for c in g.children(i):
            if not g.has_edge(j, c):
                return False
    return True


def unshielded_colliders(g: Dag) -> list[tuple[int, int, int]]:
    """All triples ``(j, i, k)`` with ``j -> i <- k``, ``j < k`` and no edge
    between ``j`` and ``k`` in either direction."""
    out = []
    for i in range(1, g.m + 1):
        for j, k in itertools.combinations(g.parents(i), 2):
            if not g.has_edge(j, k) and not g.has_edge(k, j):
                out.append((j, i, k))
    return out


@dataclass(frozen=True)
class Regime:
    """A sample-count regime together with the MLE outcomes it permits."""

    label: str
    outcomes: frozenset[str]


_REGIME_OUTCOMES = {
    BELOW_DEPTH: frozenset({NONEXISTENT}),
    BETWEEN: frozenset({NONEXISTENT, EXISTS_NON_UNIQUE}),
    ABOVE_WITH_COLLIDERS: frozenset({NONEXISTENT, EXISTS_NON_UNIQUE, EXISTS_UNIQUE}),
    ABOVE_NO_COLLIDERS: frozenset({NONEXISTENT, EXISTS_UNIQUE}),
}


def regime(g: Dag, n: int) -> Regime:
    """Classify the sample count ``n`` against the depth and the maximum
    likelihood threshold of a transitive DAG.

    Raises on non-transitive input: the outcome table is only valid for
    transitive DAGs.
    """
    if not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"sample count must be a positive integer, got {n!r}")
    if not is_transitive(g):
        raise ValueError("regime classification requires a transitive DAG")
    d = depth(g)
    t = mlt(g)
    if n <= d:
        label = BELOW_DEPTH
    elif n < t:
        label = BETWEEN
    elif unshielded_colliders(g):
        label = ABOVE_WITH_COLLIDERS
    else:
        label = ABOVE_NO_COLLIDERS
    return Regime(label, _REGIME_OUTCOMES[label])


def star(m: int) -> Dag:
    """Star-shaped DAG: every vertex ``1..m-1`` points into the child ``m``."""
    if m < 2:
        raise ValueError("a star-shaped DAG needs at least 2 vertices")
    return Dag(m, [(k, m) for k in range(1, m)])


def is_star(g: Dag) -> bool:
    """True iff ``g`` is connected with a unique child vertex, i.e. all edges
    point into a single hub."""
    hubs = g.child_vertices()
    if len(hubs) != 1:
        return False
    c = hubs[0]
    return g.edges == frozenset((k, c) for k in range(1, g.m + 1) if k != c)
