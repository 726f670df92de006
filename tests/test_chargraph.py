import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

import pytest

from braidsigma.characters import Character, InternalError
from braidsigma.chargraph import (
    build_kchi,
    find_disjoint_pair,
    find_disjoint_triple,
    find_edge_disjoint_from_two,
    shape_classify,
)
from braidsigma.commands import to_dot
from conftest import add_characters, dense, sparse, swing, zero_character


def graph_of(n, edges):
    return build_kchi(sparse(n, {e: 1 for e in edges}))


@dataclass(frozen=True)
class MatchingValues:
    """Shared values on the three perfect matchings of K_4:
    x on {12|34}, y on {13|24}, z on {14|23}; x + y + z = 0."""

    x: Fraction
    y: Fraction
    z: Fraction


def triple_sum_consequences(chi: Character) -> Optional[MatchingValues]:
    """For a character on P_4: if all four triangle swing values vanish,
    opposite edges carry equal weights and the three shared values sum to
    zero.  Returns those values, or None when some triangle survives."""
    if chi.n != 4:
        raise ValueError(f"triple_sum_consequences needs n=4, got n={chi.n}")
    for triple in combinations(range(1, 5), 3):
        if swing(chi, triple) != 0:
            return None
    w = chi.support.get
    x, y, z = w((1, 2), 0), w((1, 3), 0), w((1, 4), 0)
    if not (x == w((3, 4), 0) and y == w((2, 4), 0) and z == w((2, 3), 0)):
        raise InternalError("vanishing triangles must force equal opposite edges")
    if x + y + z != 0:
        raise InternalError("vanishing triangles must force a zero matching sum")
    return MatchingValues(x, y, z)


class TestBuildKchi:
    def test_figure_graph(self, chi0):
        g = build_kchi(chi0)
        assert len(g.labels) == 5
        assert (2, 4) not in g.labels
        assert g.labels[(2, 3)] == -5

    def test_zero_character(self):
        assert build_kchi(zero_character(4)).labels == {}

    def test_single_edge(self):
        g = build_kchi(sparse(5, {(2, 5): Fraction(1, 3)}))
        assert g.labels.keys() == {(2, 5)}

    def test_perturbation_adds_edge(self, chi0):
        bumped = add_characters(chi0, sparse(4, {(2, 4): 1}))
        assert build_kchi(bumped).labels.keys() == build_kchi(chi0).labels.keys() | {(2, 4)}


class TestSupportVertices:
    def test_figure(self, chi0):
        assert set(build_kchi(chi0).nbrs) == {1, 2, 3, 4}

    def test_single_edge(self):
        assert set(graph_of(6, [(2, 5)]).nbrs) == {2, 5}

    def test_empty(self):
        assert set(build_kchi(zero_character(3)).nbrs) == set()


class TestDisjointSearches:
    def test_pair_sharing(self):
        g = graph_of(5, [(1, 2), (3, 4), (4, 5)])
        assert find_edge_disjoint_from_two(g) == ((1, 2), (3, 4), (4, 5))

    def test_three_disjoint(self):
        g = graph_of(6, [(1, 2), (3, 4), (5, 6)])
        assert find_edge_disjoint_from_two(g) == ((1, 2), (3, 4), (5, 6))
        assert find_disjoint_triple(g) == ((1, 2), (3, 4), (5, 6))

    def test_star_has_none(self):
        g = graph_of(5, [(1, 4), (2, 4), (3, 4)])
        assert find_edge_disjoint_from_two(g) is None
        assert find_disjoint_pair(g) is None

    def test_deterministic_lex_least(self):
        g = graph_of(7, [(6, 7), (1, 2), (3, 4), (4, 5)])
        assert find_edge_disjoint_from_two(g) == ((1, 2), (3, 4), (4, 5))


class TestShapeClassify:
    def test_path_is_small(self):
        assert shape_classify(graph_of(4, [(1, 2), (2, 3), (3, 4)])) is None

    def test_star(self):
        assert shape_classify(graph_of(5, [(1, 5), (2, 5), (3, 5), (4, 5)])) == 5

    def test_disjoint_edges(self):
        assert shape_classify(graph_of(6, [(1, 2), (3, 4), (5, 6)])) is None

    def test_empty(self):
        assert shape_classify(build_kchi(zero_character(3))) is None

    def test_four_cycle(self):
        g = graph_of(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        assert find_edge_disjoint_from_two(g) is None
        assert shape_classify(g) is None

    def test_single_edge_is_a_star_at_its_smaller_end(self):
        assert shape_classify(graph_of(5, [(2, 5)])) == 2

    def test_two_edge_star_prefers_star(self):
        assert shape_classify(graph_of(4, [(1, 2), (1, 3)])) == 1


def star_or_small(edges):
    """A star (one vertex on every edge) or at most 4 endpoints."""
    verts = {v for e in edges for v in e}
    return len(verts) <= 4 or bool(set.intersection(*(set(e) for e in edges)))


def reduction_subgraph(edges):
    """The subgraph of the chargraph module docstring, for a graph that is
    neither a star nor on at most 4 vertices: edges taken in order, each
    with an uncovered endpoint, until 5 vertices are covered, plus the
    first edge off the center if those form a star."""
    chosen, covered = [], set()
    for e in edges:
        if len(covered) >= 5:
            break
        if not set(e) <= covered:
            chosen.append(e)
            covered |= set(e)
    center = set.intersection(*(set(e) for e in chosen))
    if center:
        chosen.append(next(e for e in edges if not center & set(e)))
    return chosen


class TestOracle:
    def test_every_edge_set_of_k6(self):
        # the full enumeration the finite check replaced, with its own
        # bitmask predicate: all 2^15 edge sets on 6 vertices
        pairs = list(combinations(range(6), 2))
        vmask = [(1 << i) | (1 << j) for i, j in pairs]
        disj = [sum(1 << f for f in range(15) if not vmask[f] & vmask[e]) for e in range(15)]
        counterexamples = []
        for subset in range(1 << 15):
            members = [e for e in range(15) if subset >> e & 1]
            has_dft = any((subset & disj[e]).bit_count() >= 2 for e in members)
            union, common = 0, (vmask[members[0]] if members else 0)
            for e in members:
                union |= vmask[e]
                common &= vmask[e]
            if has_dft == (bool(common) or union.bit_count() <= 4):
                counterexamples.append(subset)
        assert counterexamples == []

    def test_reduction_step(self):
        # the docstring's subgraph of a graph that is neither a star nor
        # small is again neither, and small enough for the finite check
        rng = random.Random(7)
        drawn = starred = 0
        while drawn < 500:
            n = rng.randint(5, 12)
            pairs = list(combinations(range(1, n + 1), 2))
            edges = sorted(rng.sample(pairs, rng.randint(1, len(pairs))))
            if star_or_small(edges):
                continue
            drawn += 1
            sub = reduction_subgraph(edges)
            assert set(sub) <= set(edges)
            assert len(sub) <= 5
            assert len({v for e in sub for v in e}) <= 7
            assert not star_or_small(sub)
            starred += len(sub) == 5  # only the star case adds a fifth edge
        assert 50 < starred < 450, starred


class TestTripleSums:
    def test_matching_example(self):
        chi = dense(
            4, {(1, 2): 1, (3, 4): 1, (1, 3): 2, (2, 4): 2, (1, 4): -3, (2, 3): -3}
        )
        assert triple_sum_consequences(chi) == MatchingValues(1, 2, -3)

    def test_zero(self):
        assert triple_sum_consequences(zero_character(4)) == MatchingValues(0, 0, 0)

    def test_surviving_triangle(self, chi0):
        assert triple_sum_consequences(chi0) is None

    def test_wrong_n(self):
        with pytest.raises(ValueError):
            triple_sum_consequences(zero_character(5))

    def test_reconstruction(self):
        # the matching values determine the character, and any zero-sum
        # triple of values yields four vanishing triangles
        rng = random.Random(5)
        for _ in range(50):
            x = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            y = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            z = -x - y
            chi = dense(
                4, {(1, 2): x, (3, 4): x, (1, 3): y, (2, 4): y, (1, 4): z, (2, 3): z}
            )
            assert triple_sum_consequences(chi) == MatchingValues(x, y, z)

    def test_grid_equivalence(self):
        # all four triangles vanish <=> the matching equalities hold with
        # zero sum, over a small exhaustive grid
        from itertools import product

        pairs = list(combinations(range(1, 5), 2))
        for vals in product((-1, 0, 1), repeat=6):
            chi = dense(4, dict(zip(pairs, map(Fraction, vals))))
            mv = triple_sum_consequences(chi)
            w = {e: chi.support.get(e, 0) for e in pairs}
            matches = (
                w[(1, 2)] == w[(3, 4)]
                and w[(1, 3)] == w[(2, 4)]
                and w[(1, 4)] == w[(2, 3)]
                and w[(1, 2)] + w[(1, 3)] + w[(1, 4)] == 0
            )
            assert (mv is not None) == matches


class TestDot:
    def test_isolated_vertex_dotted(self):
        dot = to_dot(graph_of(4, [(1, 2)]))
        assert "v3 [style=dotted];" in dot
        assert 'v1 -- v2 [label="1"];' in dot
