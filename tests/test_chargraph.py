import random
from fractions import Fraction
from itertools import combinations

import pytest

from braidsigma.characters import Character
from conftest import add_characters
from braidsigma.chargraph import (
    MatchingValues,
    build_kchi,
    find_disjoint_pair,
    find_disjoint_triple,
    find_edge_disjoint_from_two,
    oracle_star_or_small,
    shape_classify,
    to_dot,
    triple_sum_consequences,
)


def graph_of(n, edges):
    return build_kchi(Character.sparse(n, {e: 1 for e in edges}))


class TestBuildKchi:
    def test_figure_graph(self, chi0):
        g = build_kchi(chi0)
        assert len(g.edges) == 5
        assert (2, 4) not in g.edges
        assert g.labels[(2, 3)] == -5

    def test_zero_character(self):
        assert build_kchi(Character.zero(4)).edges == frozenset()

    def test_single_edge(self):
        g = build_kchi(Character.sparse(5, {(2, 5): Fraction(1, 3)}))
        assert g.edges == {(2, 5)}

    def test_perturbation_adds_edge(self, chi0):
        bumped = add_characters(chi0, Character.sparse(4, {(2, 4): 1}))
        assert build_kchi(bumped).edges == build_kchi(chi0).edges | {(2, 4)}


class TestSupportVertices:
    def test_figure(self, chi0):
        assert set(build_kchi(chi0).nbrs) == {1, 2, 3, 4}

    def test_single_edge(self):
        assert set(graph_of(6, [(2, 5)]).nbrs) == {2, 5}

    def test_empty(self):
        assert set(build_kchi(Character.zero(3)).nbrs) == set()


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
        shape = shape_classify(graph_of(4, [(1, 2), (2, 3), (3, 4)]))
        assert shape.kind == "small_k4"
        assert shape.vertex_set == (1, 2, 3, 4)

    def test_star(self):
        shape = shape_classify(graph_of(5, [(1, 5), (2, 5), (3, 5), (4, 5)]))
        assert shape.kind == "star"
        assert shape.center == 5
        assert shape.leaves == (1, 2, 3, 4)

    def test_disjoint_edges(self):
        shape = shape_classify(graph_of(6, [(1, 2), (3, 4), (5, 6)]))
        assert shape.kind == "has_disjoint_from_two"

    def test_empty(self):
        assert shape_classify(build_kchi(Character.zero(3))).kind == "empty"

    def test_four_cycle(self):
        g = graph_of(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        assert find_edge_disjoint_from_two(g) is None
        assert shape_classify(g).kind == "small_k4"

    def test_single_edge_is_a_star_at_its_smaller_end(self):
        shape = shape_classify(graph_of(5, [(2, 5)]))
        assert (shape.kind, shape.center, shape.leaves) == ("star", 2, (5,))

    def test_two_edge_star_prefers_star(self):
        shape = shape_classify(graph_of(4, [(1, 2), (1, 3)]))
        assert shape.kind == "star"
        assert shape.center == 1


class TestOracle:
    def test_up_to_five_vertices(self):
        assert oracle_star_or_small(5) == []

    def test_budget(self):
        with pytest.raises(ValueError):
            oracle_star_or_small(9)


class TestTripleSums:
    def test_matching_example(self):
        chi = Character.dense(
            4, {(1, 2): 1, (3, 4): 1, (1, 3): 2, (2, 4): 2, (1, 4): -3, (2, 3): -3}
        )
        assert triple_sum_consequences(chi) == MatchingValues(1, 2, -3)

    def test_zero(self):
        assert triple_sum_consequences(Character.zero(4)) == MatchingValues(0, 0, 0)

    def test_surviving_triangle(self, chi0):
        assert triple_sum_consequences(chi0) is None

    def test_wrong_n(self):
        with pytest.raises(ValueError):
            triple_sum_consequences(Character.zero(5))

    def test_reconstruction(self):
        # the matching values determine the character, and any zero-sum
        # triple of values yields four vanishing triangles
        rng = random.Random(5)
        for _ in range(50):
            x = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            y = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            z = -x - y
            chi = Character.dense(
                4, {(1, 2): x, (3, 4): x, (1, 3): y, (2, 4): y, (1, 4): z, (2, 3): z}
            )
            assert triple_sum_consequences(chi) == MatchingValues(x, y, z)

    def test_grid_equivalence(self):
        # all four triangles vanish <=> the matching equalities hold with
        # zero sum, over a small exhaustive grid
        from itertools import product

        pairs = list(combinations(range(1, 5), 2))
        for vals in product((-1, 0, 1), repeat=6):
            chi = Character(4, dict(zip(pairs, map(Fraction, vals))))
            mv = triple_sum_consequences(chi)
            matches = (
                chi.weight(1, 2) == chi.weight(3, 4)
                and chi.weight(1, 3) == chi.weight(2, 4)
                and chi.weight(1, 4) == chi.weight(2, 3)
                and chi.weight(1, 2) + chi.weight(1, 3) + chi.weight(1, 4) == 0
            )
            assert (mv is not None) == matches


class TestDot:
    def test_isolated_vertex_dotted(self):
        dot = to_dot(graph_of(4, [(1, 2)]))
        assert "v3 [style=dotted];" in dot
        assert 'v1 -- v2 [label="1"];' in dot
