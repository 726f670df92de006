"""Brute-force oracles for the fast paths: the disjoint-edge searches,
one-candidate circle location and membership, the sparse generation rank
and the facts cached on a character and its support graph.  Every reference below is written here and shares
no code with the function it checks."""

import json
import random
from fractions import Fraction
from itertools import combinations

from braidsigma.characters import (
    Character,
    character_from_json,
    character_to_json_dict,
    delta_value,
)
from braidsigma.chargraph import (
    CharGraph,
    build_kchi,
    find_disjoint_triple,
    find_edge_disjoint_from_two,
)
from braidsigma.circles import enumerate_circles, locate_circle, on_circle
from braidsigma.classify import (
    SIGMA1,
    Classification,
    DisjointPair,
    Triangle,
    ZeroSum,
    classify,
    verify_certificate,
)
from braidsigma.witness import _generation_checks, _rank, build_witness


def pairs(n):
    return list(combinations(range(1, n + 1), 2))


def graph(n, edges):
    edges = frozenset(edges)
    return CharGraph(n, edges, {e: Fraction(1) for e in edges})


def disjoint(*edges):
    ends = [v for e in edges for v in e]
    return len(set(ends)) == len(ends)


def brute_triple(edges):
    for t in combinations(sorted(edges), 3):
        if disjoint(*t):
            return t
    return None


def brute_disjoint_from_two(edges):
    edges = sorted(edges)
    for e in edges:
        away = [f for f in edges if disjoint(e, f)]
        if len(away) >= 2:
            return (e, away[0], away[1])
    return None


def relabel(edges, perm):
    return [tuple(sorted((perm[a - 1], perm[b - 1]))) for a, b in edges]


def assert_searches_agree(n, edges):
    g = graph(n, edges)
    assert find_disjoint_triple(g) == brute_triple(edges), sorted(edges)
    assert find_edge_disjoint_from_two(g) == brute_disjoint_from_two(edges), sorted(edges)


class TestDisjointSearches:
    def test_every_subgraph_of_k5(self):
        all_pairs = pairs(5)
        for mask in range(1 << len(all_pairs)):
            edges = [p for k, p in enumerate(all_pairs) if mask >> k & 1]
            assert_searches_agree(5, edges)

    def test_random_graphs(self):
        rng = random.Random(2)
        found = {True: 0, False: 0}
        for _ in range(2000):
            n = rng.randint(6, 10)
            density = rng.uniform(0.05, 0.6)
            edges = [p for p in pairs(n) if rng.random() < density]
            assert_searches_agree(n, edges)
            found[brute_triple(edges) is not None] += 1
        # both outcomes are exercised, not just the easy one
        assert min(found.values()) > 300

    def test_families_at_n40(self):
        n = 40
        families = {
            "two-star": [(1, k) for k in range(3, n + 1)] + [(2, k) for k in range(3, n + 1)],
            "star": [(1, k) for k in range(2, n + 1)],
            "path": [(k, k + 1) for k in range(1, n)],
            "matching": [(2 * k - 1, 2 * k) for k in range(1, n // 2 + 1)],
        }
        rng = random.Random(40)
        for edges in families.values():
            assert_searches_agree(n, edges)
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            assert_searches_agree(n, relabel(edges, perm))


# -- locate_circle ---------------------------------------------------------


def weight(chi, i, j):
    """A pair beyond the strands 1..n carries weight 0."""
    return chi.weights.get((min(i, j), max(i, j)), Fraction(0))


def on_circle_reference(chi, cid):
    """Membership straight from the definition of the two circle kinds."""
    inside = set(cid.support)
    if any(v and not set(e) <= inside for e, v in chi.weights.items()):
        return False
    if cid.kind == "P3":
        i, j, k = cid.support
        return weight(chi, i, j) + weight(chi, i, k) + weight(chi, j, k) == 0
    i, j, k, l = cid.support
    x, y, z = weight(chi, i, j), weight(chi, i, k), weight(chi, i, l)
    return (
        x == weight(chi, k, l)
        and y == weight(chi, j, l)
        and z == weight(chi, j, k)
        and x + y + z == 0
    )


def characters_near_circles(rng, n, count):
    """Circle points, one-edge near misses, and random characters on
    2 to 5 strands with small weights, embedded at random positions."""
    out = []
    while len(out) < count:
        size = rng.randint(2, min(5, n))
        where = sorted(rng.sample(range(1, n + 1), size))
        local = {e: Fraction(0) for e in pairs(n)}
        t1, t2 = rng.randint(-3, 3), rng.randint(-3, 3)
        roll = rng.random()
        if size == 3 and roll < 0.5:
            i, j, k = where
            local.update({(i, j): Fraction(t1), (i, k): Fraction(t2), (j, k): Fraction(-t1 - t2)})
        elif size == 4 and roll < 0.5:
            i, j, k, l = where
            for (e1, e2), v in zip(
                (((i, j), (k, l)), ((i, k), (j, l)), ((i, l), (j, k))), (t1, t2, -t1 - t2)
            ):
                local[e1] = local[e2] = Fraction(v)
        else:
            for e in combinations(where, 2):
                local[e] = Fraction(rng.randint(-1, 1), rng.randint(1, 2))
        if rng.random() < 0.2:
            local[rng.choice(pairs(n))] += 1
        chi = Character(n, local)
        if not chi.is_zero():
            out.append(chi)
    return out


class TestLocateCircle:
    def test_against_scan_of_every_circle(self):
        rng = random.Random(3)
        hits_seen = 0
        for n in (4, 5, 6, 7):
            circles = enumerate_circles(n)
            for chi in characters_near_circles(rng, n, 150):
                hits = [cid for cid in circles if on_circle_reference(chi, cid)]
                assert len(hits) <= 1, (chi, hits)
                assert locate_circle(chi) == (hits[0] if hits else None), chi
                hits_seen += len(hits)
        assert hits_seen > 100

    def test_nonzero_delta_builds_no_graph(self):
        rng = random.Random(13)
        for n in (3, 5, 8):
            for chi in characters_near_circles(rng, n, 100):
                if delta_value(chi) != 0:
                    assert locate_circle(chi) is None
                    assert "_kchi" not in chi.__dict__


class TestOnCircle:
    def test_against_reference_for_every_circle(self):
        # circles of n + 2 strands include supports reaching past n
        rng = random.Random(17)
        seen = {"hit": 0, "inside": 0, "past_n": 0}
        for n in (4, 5, 6, 7):
            circles = enumerate_circles(n + 2)
            for chi in characters_near_circles(rng, n, 60):
                support = {v for e, w in chi.weights.items() if w for v in e}
                for cid in circles:
                    expected = on_circle_reference(chi, cid)
                    assert on_circle(chi, cid) == expected, (chi, cid)
                    seen["hit"] += expected
                    seen["inside"] += support < set(cid.support)
                    seen["past_n"] += support <= set(cid.support) and cid.support[-1] > n
        assert min(seen.values()) > 50, seen


# -- generation rank -------------------------------------------------------


def dense_rank(vectors, cols):
    rows = [[Fraction(v.get(c, 0)) for c in cols] for v in vectors]
    rank = 0
    for col in range(len(cols)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] / rows[rank][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


class TestSparseRank:
    def test_against_dense_elimination(self):
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(3, 6)
            cols = pairs(n)
            vectors = []
            for _ in range(rng.randint(1, len(cols) + 2)):
                if rng.random() < 0.7:
                    # abelianized swing: 1 on every pair inside a random set
                    members = rng.sample(range(1, n + 1), rng.randint(2, 3))
                    vectors.append({p: 1 for p in combinations(sorted(members), 2)})
                else:
                    vectors.append({p: rng.randint(-2, 2) for p in rng.sample(cols, 3)})
            assert _rank(vectors) == dense_rank(vectors, cols)

    def test_cold_generation_checks_at_n64(self):
        n = 64
        chi = Character.zero(n)
        for cert in (
            ZeroSum(Fraction(1)),
            DisjointPair((1, 2), ((3, 4), (4, 5))),
            Triangle(((1, 2), (3, 4)), (1, 2, 3), Fraction(1)),
        ):
            pkg = build_witness(cert, chi)
            # __wrapped__ bypasses the per-shape cache, so this is a cold run
            checks = _generation_checks.__wrapped__(n, pkg.i_sets, pkg.factorizations)
            assert checks == (True, True, None)


def order_reference(edges):
    return tuple(sorted(edges))


def nbrs_reference(edges):
    verts = {v for e in edges for v in e}
    return {v: sorted(w for e in edges if v in e for w in e if w != v) for v in verts}


class TestCachedFacts:
    def test_order_and_nbrs_match_a_reference(self):
        rng = random.Random(19)
        for _ in range(300):
            n = rng.randint(2, 12)
            edges = [p for p in pairs(n) if rng.random() < rng.uniform(0.05, 0.7)]
            chi = Character.sparse(n, {e: rng.choice([1, -2, Fraction(1, 3)]) for e in edges})
            for g in (build_kchi(chi), graph(n, edges)):
                assert g.order == order_reference(edges)
                assert g.nbrs == nbrs_reference(edges)

    def test_kchi_and_delta_match_a_fresh_parse(self):
        rng = random.Random(11)
        for n in range(2, 9):
            for _ in range(20):
                weights = {e: Fraction(rng.choice([0, 0, 1, -2, 3]), rng.randint(1, 3))
                           for e in pairs(n)}
                chi = Character(n, weights)
                g = build_kchi(chi)
                assert build_kchi(chi) is g
                assert delta_value(chi) is delta_value(chi)
                fresh = character_from_json(json.dumps(character_to_json_dict(chi)))
                assert g.edges == build_kchi(fresh).edges == {e for e, v in weights.items() if v}
                assert g.labels == build_kchi(fresh).labels
                assert delta_value(chi) == delta_value(fresh) == sum(weights.values())

    def test_wrong_delta_rejected_after_classify(self):
        chi = Character.sparse(5, {(1, 2): 3, (2, 5): Fraction(-1, 2)})
        cls = classify(chi)  # caches Delta = 5/2 on chi
        assert cls.certificate == ZeroSum(Fraction(5, 2))
        assert verify_certificate(cls, chi)
        for wrong in (Fraction(0), Fraction(3), Fraction(-5, 2)):
            assert not verify_certificate(Classification(SIGMA1, ZeroSum(wrong), 5), chi)
        assert delta_value(chi) == Fraction(5, 2)
