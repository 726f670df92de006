import random
from fractions import Fraction

import pytest

from braidsigma.characters import Character, all_edges, permute, swing_value
from braidsigma.classify import SIGMA1, classify
from braidsigma.witness import (
    WitnessPackage,
    build_witness,
    build_witness_for,
    commuting_graph,
    dominates,
    is_connected,
    verify_witness,
    witness_to_json_dict,
)
from conftest import random_nonzero_character


class TestCommutingGraph:
    def test_triangle(self):
        adj = commuting_graph([(1, 2), (3, 4), (5, 6)], 6)
        assert adj == [{1, 2}, {0, 2}, {0, 1}]

    def test_path(self):
        adj = commuting_graph([(1, 2), (3, 4), (4, 5)], 5)
        assert adj[0] == {1, 2}
        assert adj[1] == {0}
        assert adj[2] == {0}

    def test_star_hexagon(self):
        n = 5
        comp = lambda i: tuple(k for k in range(1, n + 1) if k != i)
        j_sets = [(1, 4), (2, 4), (3, 4), comp(1), comp(2), comp(3)]
        adj = commuting_graph(j_sets, n)
        # hexagon S14 - S_A2 - S34 - S_A1 - S24 - S_A3 - S14
        cycle = [0, 4, 2, 3, 1, 5]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert b in adj[a]

    def test_connectivity(self):
        assert is_connected(commuting_graph([(1, 2), (3, 4), (4, 5)], 5))
        assert not is_connected(commuting_graph([(1, 2), (2, 3)], 3))


class TestDominates:
    def test_disjoint_triple_data(self):
        j_sets = [(1, 2), (3, 4), (5, 6)]
        ok, uncovered = dominates(j_sets, all_edges(6))
        assert ok and uncovered == []

    def test_disjoint_pair_data(self):
        j_sets = [(1, 2), (3, 4), (4, 5)]
        i_sets = [p for p in all_edges(5) if p not in ((1, 4), (2, 4))]
        i_sets += [(1, 4, 5), (2, 4, 5)]
        ok, uncovered = dominates(j_sets, i_sets)
        assert ok and uncovered == []

    def test_uncovered_reported(self):
        ok, uncovered = dominates([(1, 2)], [(1, 3)])
        assert not ok and uncovered == [(1, 3)]

    def test_monotone_in_j(self):
        rng = random.Random(71)
        i_sets = all_edges(6)
        for _ in range(20):
            j_sets = [tuple(sorted(rng.sample(range(1, 7), 2))) for _ in range(2)]
            _, before = dominates(j_sets, i_sets)
            _, after = dominates(j_sets + [(1, 2, 3)], i_sets)
            assert set(after) <= set(before)


class TestBuildWitness:
    def test_zero_sum_package(self, chi0):
        pkg = build_witness_for(classify(chi0), chi0)
        assert pkg.lemma == "zero_sum"
        assert pkg.j_sets == ((1, 2, 3, 4),)
        assert pkg.i_sets == tuple(all_edges(4))
        assert pkg.factorizations == ()

    def test_disjoint_leaves_survival_values(self):
        chi = Character.sparse(4, {(1, 2): 1, (3, 4): -1})
        cls = classify(chi)
        pkg = build_witness_for(cls, chi)
        assert pkg.lemma == "disjoint_leaves"
        relabeled = permute(chi, pkg.perm)
        values = [swing_value(relabeled, j) for j in pkg.j_sets]
        assert values == [1, -1, 1, -1, 1]

    def test_triangle_factorizations(self):
        chi = Character.sparse(4, {(1, 2): 1, (3, 4): 2, (1, 3): -1, (2, 4): -2})
        cls = classify(chi)
        pkg = build_witness_for(cls, chi)
        assert pkg.lemma == "triangle"
        added = {f.added for f in pkg.factorizations}
        assert added == {(1, 3, 4), (2, 3, 4)}
        recovered = {f.recovers for f in pkg.factorizations}
        assert recovered == {(1, 4), (2, 4)}

    def test_circle_certificate_rejected(self):
        chi = Character.sparse(3, {(1, 2): 1, (1, 3): 1, (2, 3): -2})
        cls = classify(chi)
        with pytest.raises(ValueError):
            build_witness_for(cls, chi)


class TestVerifyWitness:
    def test_end_to_end_random(self):
        rng = random.Random(73)
        checked = 0
        for n in (4, 5, 6):
            for _ in range(400):
                chi = random_nonzero_character(n, rng, span=2, max_denom=2)
                cls = classify(chi)
                if cls.verdict != SIGMA1:
                    continue
                report = verify_witness(build_witness_for(cls, chi), chi)
                assert report.ok, (chi, cls, report)
                checked += 1
        assert checked > 1000

    def test_survival_failure_detected(self):
        chi = Character.sparse(3, {(1, 2): 1, (2, 3): -1})
        pkg = WitnessPackage("zero_sum", (1, 2, 3), ((1, 3),), tuple(all_edges(3)))
        report = verify_witness(pkg, chi)
        assert report.survival_failures == [(1, 3)]
        assert not report.ok

    def test_disconnected_j_detected(self):
        chi = Character.sparse(3, {(1, 2): 1, (2, 3): 1, (1, 3): 1})
        pkg = WitnessPackage("zero_sum", (1, 2, 3), ((1, 2), (2, 3)), tuple(all_edges(3)))
        report = verify_witness(pkg, chi)
        assert not report.connected
        assert not report.ok

    def test_star_closed_form(self):
        # for a zero-sum star, the complement swings mirror the leaf edges
        rng = random.Random(79)
        for n in (4, 5, 6):
            for _ in range(30):
                a = Fraction(rng.randint(1, 9))
                b = Fraction(rng.randint(1, 9))
                chi = Character.sparse(
                    n, {(1, 4): a, (2, 4): b, (3, 4): -a - b}
                )
                if swing_value(chi, (3, 4)) == 0:
                    continue
                comp = lambda i: tuple(k for k in range(1, n + 1) if k != i)
                for i in (1, 2, 3):
                    assert swing_value(chi, comp(i)) == -swing_value(chi, (i, 4))

    def test_json_shape(self, chi0):
        pkg = build_witness_for(classify(chi0), chi0)
        data = witness_to_json_dict(pkg)
        assert data["lemma"] == "zero_sum"
        assert data["J"] == [[1, 2, 3, 4]]
        assert len(data["I"]) == 6
