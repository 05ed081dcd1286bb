import itertools
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagstab import (
    Dag,
    depth,
    is_star,
    is_transitive,
    mlt,
    parents,
    regime,
    star,
    unshielded_colliders,
)
from dagstab.graph import (
    ABOVE_NO_COLLIDERS,
    ABOVE_WITH_COLLIDERS,
    BELOW_DEPTH,
    BETWEEN,
    EXISTS_NON_UNIQUE,
    EXISTS_UNIQUE,
    NONEXISTENT,
)
from _helpers import collider, tournament, transitive_closure

CHAIN = Dag(3, [(1, 2), (2, 3)])
CHAIN_SHORTCUT = Dag(3, [(1, 2), (2, 3), (1, 3)])


@st.composite
def dags(draw, max_m=6):
    m = draw(st.integers(1, max_m))
    order = draw(st.permutations(list(range(1, m + 1))))
    pairs = [(order[a], order[b]) for a in range(m) for b in range(a + 1, m)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Dag(m, [p for p, keep in zip(pairs, mask) if keep])


class TestValidation:
    def test_rejects_cycle(self):
        with pytest.raises(ValueError, match="cycle"):
            Dag(3, [(1, 2), (2, 3), (3, 1)])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Dag(2, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            Dag(2, [(1, 3)])

    def test_rejects_non_integral_endpoints(self):
        for edges in ([(1.5, 3), (2.9, 3)], [(1, 2.5)]):
            with pytest.raises(ValueError, match="not an integer"):
                Dag(3, edges)
        assert Dag(3, [(1.0, 3.0), (2, 3.0)]).edges == {(1, 3), (2, 3)}

    @pytest.mark.parametrize(
        "edge,message",
        [
            ((math.inf, 2), "has an endpoint that is not an integer"),
            ((math.nan, 2), "has an endpoint that is not an integer"),
            ((1, None), "has an endpoint that is not an integer"),
            (5, "is not a (parent, child) pair"),
            ((1,), "is not a (parent, child) pair"),
            ((1, 2, 3), "is not a (parent, child) pair"),
        ],
        ids=["inf", "nan", "none", "int", "single", "triple"],
    )
    def test_rejects_malformed_edges(self, edge, message):
        with pytest.raises(ValueError, match=re.escape(f"edge {edge!r} {message}")):
            Dag(3, [edge])

    def test_rejects_bad_vertex_count(self):
        with pytest.raises(ValueError):
            Dag(0)

    def test_duplicate_edges_collapse(self):
        g = Dag(3, [(1, 3), (1, 3), (2, 3)])
        assert g.edges == frozenset({(1, 3), (2, 3)})


class TestParents:
    def test_collider_child(self):
        assert parents(collider(), 3) == [1, 2]

    def test_source_vertex(self):
        assert parents(collider(), 1) == []

    def test_star_hub(self):
        assert parents(star(5), 5) == [1, 2, 3, 4]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            parents(collider(), 4)


class TestMlt:
    def test_star(self):
        assert mlt(star(5)) == 5

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_edgeless(self, m):
        assert mlt(Dag(m)) == 1

    def test_collider(self):
        assert mlt(collider()) == 3


class TestDepth:
    def test_chain(self):
        assert depth(CHAIN) == 2

    def test_edgeless(self):
        assert depth(Dag(4)) == 0

    def test_star(self):
        assert depth(star(5)) == 1


class TestTransitive:
    def test_chain_without_shortcut(self):
        assert not is_transitive(CHAIN)

    def test_chain_with_shortcut(self):
        assert is_transitive(CHAIN_SHORTCUT)

    def test_star(self):
        assert is_transitive(star(5))


class TestUnshieldedColliders:
    def test_collider(self):
        assert unshielded_colliders(collider()) == [(1, 3, 2)]

    def test_shielded(self):
        g = Dag(3, [(1, 3), (2, 3), (1, 2)])
        assert unshielded_colliders(g) == []

    def test_star(self):
        assert unshielded_colliders(star(5)) == [
            (1, 5, 2), (1, 5, 3), (1, 5, 4),
            (2, 5, 3), (2, 5, 4), (3, 5, 4),
        ]


class TestRegime:
    def test_star_at_threshold(self):
        r = regime(star(5), 5)
        assert r.label == ABOVE_WITH_COLLIDERS
        assert r.outcomes == {NONEXISTENT, EXISTS_NON_UNIQUE, EXISTS_UNIQUE}

    def test_tournament_single_sample(self):
        r = regime(tournament(4), 1)
        assert r.label == BELOW_DEPTH
        assert r.outcomes == {NONEXISTENT}

    def test_tournament_above_threshold(self):
        g = tournament(3)
        assert depth(g) == 2 and mlt(g) == 3
        assert unshielded_colliders(g) == []
        r = regime(g, 3)
        assert r.label == ABOVE_NO_COLLIDERS
        assert r.outcomes == {NONEXISTENT, EXISTS_UNIQUE}

    def test_between(self):
        r = regime(star(5), 3)
        assert r.label == BETWEEN
        assert r.outcomes == {NONEXISTENT, EXISTS_NON_UNIQUE}

    def test_rejects_non_transitive(self):
        with pytest.raises(ValueError, match="transitive"):
            regime(CHAIN, 2)

    def test_rejects_bad_sample_count(self):
        with pytest.raises(ValueError):
            regime(star(3), 0)


class TestStarShape:
    def test_star_recognised(self):
        assert is_star(star(3)) and is_star(star(5))

    def test_three_vertex_collider_is_the_star(self):
        assert is_star(collider())

    def test_disconnected_hub_not_star(self):
        assert not is_star(Dag(4, [(1, 4), (2, 4)]))  # vertex 3 disconnected

    def test_two_children_not_star(self):
        assert not is_star(Dag(3, [(1, 2), (1, 3)]))


@settings(max_examples=150, deadline=None)
@given(dags())
def test_transitive_depth_bound(g):
    gt = transitive_closure(g)
    assert depth(gt) <= mlt(gt) - 1


@settings(max_examples=150, deadline=None)
@given(dags())
def test_colliders_match_brute_force(g):
    brute = []
    for i in range(1, g.m + 1):
        for j in range(1, g.m + 1):
            for k in range(j + 1, g.m + 1):
                if (
                    j != i != k
                    and g.has_edge(j, i)
                    and g.has_edge(k, i)
                    and not g.has_edge(j, k)
                    and not g.has_edge(k, j)
                ):
                    brute.append((j, i, k))
    assert sorted(unshielded_colliders(g)) == sorted(brute)


@settings(max_examples=150, deadline=None)
@given(dags(), st.randoms())
def test_mlt_monotone_under_edge_addition(g, rnd):
    order = {v: pos for pos, v in enumerate(g.topological_order())}
    candidates = [
        (j, i)
        for j in range(1, g.m + 1)
        for i in range(1, g.m + 1)
        if order[j] < order[i] and not g.has_edge(j, i)
    ]
    if not candidates:
        return
    extra = rnd.choice(candidates)
    assert mlt(Dag(g.m, set(g.edges) | {extra})) >= mlt(g)


def test_depth_brute_force_small():
    rngless = [collider(), CHAIN, CHAIN_SHORTCUT, star(4), tournament(4)]
    for g in rngless:
        best = 0
        for length in range(1, g.m):
            for path in itertools.permutations(range(1, g.m + 1), length + 1):
                if all(g.has_edge(path[t], path[t + 1]) for t in range(length)):
                    best = max(best, length)
        assert depth(g) == best
