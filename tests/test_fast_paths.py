"""Brute-force oracles for the fast paths: the disjoint-edge searches,
one-candidate circle location and membership, generation by coverage,
the facts cached on a character and its support graph, and survival,
domination and the shape checks of a witness.  Every reference below is
written here and shares no code with the function it checks, except two
whose reference is their definition: survival (relabel with ``permute``,
then sum each swing with ``swing_value``) and domination (the commutation
predicate of ``words`` on every pair of members)."""

import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from braidsigma import witness
from braidsigma.characters import (
    Character,
    CharacterFormatError,
    _delta,
    character_from_json,
    character_from_json_dict,
    delta_value,
    permute,
    swing_value,
)
from braidsigma.chargraph import (
    CharGraph,
    build_kchi,
    find_disjoint_triple,
    find_edge_disjoint_from_two,
)
from braidsigma.circles import locate_circle, on_circle
from braidsigma.classify import (
    RECOVERY_FACTORIZATIONS,
    Classification,
    DisjointLeaves,
    DisjointPair,
    DisjointTriple,
    Factorization,
    Star,
    Triangle,
    ZeroSum,
    classify,
    verify_certificate,
)
from braidsigma.commands import enumerate_circles
from braidsigma.witness import (
    WitnessPackage,
    WitnessReport,
    _shape_checks,
    _split_members,
    _ungenerated,
    build_witness_for,
    commutes_predicate,
    dominates,
    verify_witness,
)
from conftest import (
    character_to_json_dict,
    dense,
    random_perm,
    scale,
    sparse,
    zero_character,
)


def pairs(n):
    return list(combinations(range(1, n + 1), 2))


def graph(n, edges):
    return CharGraph(n, {e: Fraction(1) for e in edges})


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
        every_pair = pairs(5)
        for mask in range(1 << len(every_pair)):
            edges = [p for k, p in enumerate(every_pair) if mask >> k & 1]
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

    def test_seeded_families_reach_both_branches(self):
        # a greedy matching in edge order that reaches three edges is the
        # least triple; one that stops at two leaves a kernel to search,
        # where the least triple need not start at the first edge
        rng = random.Random(640)
        reached = Counter()
        for _ in range(60):
            for family in (two_stars, k4_with_pendants, first_edge_starts_none):
                n = rng.randint(6, 40)
                edges = family(rng, n)
                if rng.random() < 0.5:
                    perm = list(range(1, n + 1))
                    rng.shuffle(perm)
                    edges = relabel(edges, perm)
                assert_searches_agree(n, edges)
                triple = brute_triple(edges)
                reached[family.__name__, greedy_matching_size(edges), triple is not None] += 1
                if triple is not None and triple[0] != min(edges):
                    reached["t1 after the first edge"] += 1
        assert reached["two_stars", 2, False] > 10
        assert reached["k4_with_pendants", 2, True] > 10
        assert reached["k4_with_pendants", 3, True] > 10
        assert reached["first_edge_starts_none", 2, True] > 10
        assert reached["t1 after the first edge"] > 10


def greedy_matching_size(edges):
    """Edges of the greedy matching in edge order, stopped at three."""
    matched = set()
    for a, b in sorted(edges):
        if len(matched) < 6 and a not in matched and b not in matched:
            matched |= {a, b}
    return len(matched) // 2


def two_stars(rng, n):
    """Centers 1 and 2 on shared leaves, with or without the edge 1-2:
    every edge meets the centers, so there is no disjoint triple."""
    leaves = rng.sample(range(3, n + 1), rng.randint(2, min(n - 2, 16)))
    edges = [(c, v) for c in (1, 2) for v in leaves]
    return edges + [(1, 2)] * (rng.random() < 0.5)


def k4_with_pendants(rng, n):
    """K4 on 1..4 with 3 to 6 pendant edges at each vertex (fewer when n
    is small): when the matching stops at two edges, the kernel has
    6 + 12 edges."""
    edges = {(a, b) for a in range(1, 5) for b in range(a + 1, 5)}
    for c in range(1, 5):
        for v in rng.sample(range(5, n + 1), min(n - 4, rng.randint(3, 6))):
            edges.add((c, v))
    return sorted(edges)


def first_edge_starts_none(rng, n):
    """The edge 1-2, then a star at 3 or the triangle 345 among the edges
    that miss it, and edges at 1 and at 2: 1-2 starts no triple."""
    if rng.random() < 0.5:
        edges = {(3, v) for v in rng.sample(range(4, n + 1), rng.randint(1, n - 3))}
    else:
        edges = {(3, 4), (3, 5), (4, 5)}
    for c in (1, 2):
        for v in rng.sample(range(3, n + 1), rng.randint(1, 3)):
            edges.add((c, v))
    return sorted(edges | {(1, 2)})


# -- locate_circle ---------------------------------------------------------


def weight(chi, i, j):
    """A pair beyond the strands 1..n carries weight 0."""
    return chi.support.get((min(i, j), max(i, j)), Fraction(0))


def on_circle_reference(chi, cid):
    """Membership straight from the definition of the two circle kinds."""
    inside = set(cid.support)
    if any(not set(e) <= inside for e in chi.support):
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
        chi = dense(n, local)
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
                support = {v for e in chi.support for v in e}
                for cid in circles:
                    expected = on_circle_reference(chi, cid)
                    assert on_circle(chi, cid) == expected, (chi, cid)
                    seen["hit"] += expected
                    seen["inside"] += support < set(cid.support)
                    seen["past_n"] += support <= set(cid.support) and cid.support[-1] > n
        assert min(seen.values()) > 50, seen


# -- generation by coverage ------------------------------------------------


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


def abelianized_reference(a, n):
    """The row of the swing on ``a``: 1 on each pair inside it when it is
    at least two distinct strands of 1..n, and the zero row otherwise."""
    ok = len(set(a)) == len(a) >= 2 and all(type(v) is int and 1 <= v <= n for v in a)
    return {p: 1 for p in combinations(sorted(a), 2)} if ok else {}


def closure_reference(n, i_sets, factorizations):
    """The pairs of 1..n not given by I closed under the factorizations in
    order: each may give its ``recovers`` from ``added`` in I and its other
    factors in I or given before it."""

    def swing(a):
        return tuple(sorted(a)) if abelianized_reference(a, n) else None

    members = {swing(a) for a in i_sets} - {None}
    given = {m for m in members if len(m) == 2}
    for f in factorizations:
        pair, factors = swing(f.recovers), [swing(x) for x in f.factors]
        others = [x for x in factors if x != pair]
        if (
            pair is not None
            and len(pair) == 2
            and swing(f.added) in members
            and len(others) == len(factors) - 1
            and all(x in members or x in given for x in others)
        ):
            given.add(pair)
    return [p for p in pairs(n) if p not in given]


# The lemma table's recovery factorizations, written out: the swing on each
# triple is the product of its pairs in this order, and recovers the pair
# of strand 1 or 2 with strand 4.
TABLE = (
    Factorization((1, 4, 5), ((1, 4), (1, 5), (4, 5)), (1, 4)),
    Factorization((2, 4, 5), ((2, 4), (2, 5), (4, 5)), (2, 4)),
    Factorization((1, 3, 4), ((1, 3), (1, 4), (3, 4)), (1, 4)),
    Factorization((2, 3, 4), ((2, 3), (2, 4), (3, 4)), (2, 4)),
)


def on_table(f, n):
    """Is ``f``, read with tuples, one of TABLE with its strands in 1..n?"""
    read = Factorization(tuple(f.added), tuple(map(tuple, f.factors)), tuple(f.recovers))
    return read in TABLE and max(read.added) <= n


def table_package(rng, n):
    """I: the pairs of 1..n but (1, 4), (2, 4) and maybe one more, some
    reversed or given twice, some of TABLE's triples, rotated or not, and
    maybe a degenerate member; factorizations: TABLE's (those past n at
    n < 5), some as lists (as from JSON) or repeated, in half the packages
    mixed with copies whose factors are rotated or reordered or whose
    ``added`` is rotated."""
    dropped = {(1, 4), (2, 4), *rng.sample(pairs(n), rng.random() < 0.3)}
    members = [p[::-1] if rng.random() < 0.1 else p for p in pairs(n) if p not in dropped]
    for t in (f.added for f in TABLE if rng.random() < 0.8):
        k = rng.randrange(3)
        members.append(t[k:] + t[:k])
    if rng.random() < 0.2:
        members += rng.sample(members, 2)
    if rng.random() < 0.1:
        members.append(rng.choice([(2, 2), (0, 1), (1, n + 1), (1, 1, 2), (1,)]))
    rng.shuffle(members)
    facts, mixed = [], rng.random() < 0.5
    for _ in range(rng.randint(0, 6)):
        f, change = rng.choice(TABLE), rng.random()
        if change < 0.15 and facts:
            f = rng.choice(facts)
        elif change < 0.3:
            f = Factorization(list(f.added), [list(x) for x in f.factors], list(f.recovers))
        elif mixed and change < 0.45:
            f = f._replace(factors=f.factors[1:] + f.factors[:1])
        elif mixed and change < 0.6:
            f = f._replace(factors=f.factors[::-1])
        elif mixed and change < 0.7:
            f = f._replace(added=f.added[1:] + f.added[:1])
        facts.append(f)
    return tuple(members), tuple(facts)


class TestCoverage:
    def test_lemma_shapes_generate(self):
        for n in range(4, 10):
            for lemma, (j_sets, i_sets, facts) in table_shapes(n):
                assert _ungenerated(n, i_sets, facts) == [], (n, lemma)

    def test_each_dropped_member_names_the_pairs_it_gave(self):
        for n in range(4, 10):
            for lemma, (j_sets, i_sets, facts) in table_shapes(n):
                for k, dropped in enumerate(i_sets):
                    # the member itself, if a pair, and every pair recovered
                    # through it; no table factorization needs another
                    want = {dropped} if len(dropped) == 2 else set()
                    want |= {f.recovers for f in facts if dropped in (f.added, *f.factors)}
                    rest = i_sets[:k] + i_sets[k + 1 :]
                    assert _ungenerated(n, rest, facts) == sorted(want), (n, lemma, dropped)

    @pytest.mark.parametrize("n", [64, 256])
    def test_cold_coverage(self, n):
        shapes = list(table_shapes(n))
        assert len(shapes) == len(LEMMAS)
        for _, (_, i_sets, facts) in shapes:
            assert _ungenerated(n, i_sets, facts) == []

    def test_random_packages_against_in_order_closure(self):
        # coverage is the closure over the table factorizations alone, and
        # any other factorization fails the package
        assert set(TABLE) == {f for fs in RECOVERY_FACTORIZATIONS.values() for f in fs}
        rng = random.Random(17)
        seen = Counter()
        for _ in range(600):
            n = rng.randint(3, 7)
            i_sets, facts = table_package(rng, n)
            table = [f for f in facts if on_table(f, n)]
            want = closure_reference(n, i_sets, table)
            checks = _shape_checks(n, (), i_sets, facts)
            assert checks[2:] == (tuple(want), len(table) == len(facts)), (n, i_sets, facts)
            strands = tuple(range(1, n + 1))
            pkg = WitnessPackage("zero_sum", strands, (strands,), i_sets, facts)
            report = verify_witness(pkg, sparse(n, {(1, 2): 1}))
            assert report.ungenerated == want
            assert report.ok == (not want and not report.uncovered and len(table) == len(facts))
            seen["recovered"] += len(closure_reference(n, i_sets, ())) > len(want)
            seen["refused"] += len(table) < len(facts)
            seen["past n"] += any(max(f.added) > n for f in facts)
            seen["generated"] += not want
            seen["ok"] += report.ok
        assert len(seen) == 5 and min(seen.values()) > 30, seen

    def test_accepted_packages_have_full_abelian_rank(self):
        # coverage through the table's identities, each an abelian identity,
        # implies full rank, so no package the rank check refused is accepted
        assert all(abelian_identity(f, 5) for f in TABLE)
        rng = random.Random(19)
        seen = Counter()
        for _ in range(300):
            n = rng.randint(4, 7)
            i_sets, facts = table_package(rng, n)
            facts = tuple(f for f in facts if on_table(f, n))
            accepted = not _shape_checks(n, (), i_sets, facts)[2]
            if accepted:
                vectors = [abelianized_reference(a, n) for a in i_sets]
                assert dense_rank(vectors, pairs(n)) == len(pairs(n)), (n, i_sets, facts)
            seen[accepted] += 1
        assert min(seen.values()) > 30, seen


def abelian_identity(fact, n):
    rhs = Counter()
    for x in fact.factors:
        rhs.update(abelianized_reference(x, n))
    return abelianized_reference(fact.added, n) == dict(rhs)


# -- domination --------------------------------------------------------------


def dominates_reference(j_sets, i_sets):
    return [i for i in i_sets if not any(commutes_predicate(i, j) for j in j_sets)]


def hostile(n):
    """Members of I that are not pairs of 1..n, or pairs given twice."""
    return [(3, 3), (0, 2), (1, n + 3), (2, 1), (1, 2, 3), (3, 1, 2), (1, 1, 2), (1,), (),
            (1, 2), (1, 2), (-1, 2), (n, n + 1), (True, 2)]


class TestDomination:
    def test_every_pair_against_every_set_up_to_n9(self):
        for n in range(2, 10):
            for k in range(2, n + 1):
                for s in combinations(range(1, n + 1), k):
                    assert dominates([s], pairs(n), n) == dominates_reference([s], pairs(n)), s

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 9, 16, 33, 64])
    def test_lemma_shapes(self, n):
        # the lemma's own I is dominated; every pair and the triples of
        # strands 1..6 leave some members uncovered
        extra = pairs(n) + list(combinations(range(1, min(n, 6) + 1), 3))
        uncovered = 0
        for _, (j_sets, i_sets, _) in table_shapes(n):
            assert dominates(j_sets, i_sets, n) == dominates_reference(j_sets, i_sets) == []
            want = dominates_reference(j_sets, extra)
            assert dominates(j_sets, extra, n) == want
            uncovered += len(want)
        assert uncovered > 0

    def test_hostile_members(self):
        for n in (4, 6, 9):
            for _, (j_sets, i_sets, _) in table_shapes(n):
                for members in (hostile(n), [*hostile(n)[::-1], *i_sets, *hostile(n)]):
                    assert dominates(j_sets, members, n) == dominates_reference(j_sets, members)
            # a member of J out of order is still a swing set
            members = pairs(n) + hostile(n)
            assert dominates([(3, 1)], members, n) == dominates_reference([(3, 1)], members)

    def test_j_of_other_members_never_reaches_domination(self):
        # survival runs first and refuses a J that is not made of swing
        # sets of 1..n, so ``dominates`` never sees one
        chi = sparse(4, {(1, 2): 1})
        pkg = build_witness_for(classify(chi), chi)
        for j_sets, error in (
            ([(2, 2)], ValueError),
            ([(1, 5)], IndexError),
            ([(0, 1), (2, 3)], IndexError),
            ([(1,)], ValueError),
        ):
            with pytest.raises(error):
                verify_witness(pkg._replace(j_sets=j_sets), chi)

    def test_cold_shape_checks_at_n256(self):
        n = 256
        shapes = list(table_shapes(n))
        assert len(shapes) == len(LEMMAS)
        for _, (j_sets, i_sets, facts) in shapes:
            assert _shape_checks(n, j_sets, i_sets, facts) == (True, (), (), True)

    def test_each_member_is_sorted_once_per_shape(self, monkeypatch):
        # I is split into its pairs and its other members once, for both
        # domination and coverage; no factorization member is sorted
        calls = Counter()
        is_pair = witness._is_pair

        def counting(a, n):
            calls[a] += 1
            return is_pair(a, n)

        monkeypatch.setattr(witness, "_is_pair", counting)
        for n in (6, 16):
            for lemma, (j_sets, i_sets, facts) in table_shapes(n):
                calls.clear()
                assert _shape_checks(n, j_sets, i_sets, facts)[1:3] == ((), ())
                assert calls == Counter(i_sets), (n, lemma)

    def test_a_cold_shape_scans_no_member_of_its_i(self, monkeypatch):
        # _lemma_shape builds I with its split known, and coverage reads
        # table factorizations as they are: no set goes through _is_pair
        calls = Counter()
        is_pair = witness._is_pair

        def counting(a, n):
            calls[a] += 1
            return is_pair(a, n)

        monkeypatch.setattr(witness, "_is_pair", counting)
        for n in (6, 16, 64):
            for lemma in LEMMAS:
                calls.clear()
                (_, i_sets, facts), checks = witness._lemma_shape.__wrapped__(lemma, n)
                assert checks == (True, (), (), True)
                assert calls == Counter(), (n, lemma)

    @pytest.mark.parametrize("n", [*range(4, 17), 64, 256])
    def test_the_split_passed_is_the_split_of_the_printed_i(self, n, monkeypatch):
        passed = []
        shape_checks = witness._shape_checks

        def recording(n, j_sets, i_sets, factorizations, members=None):
            passed.append(members)
            return shape_checks(n, j_sets, i_sets, factorizations, members)

        monkeypatch.setattr(witness, "_shape_checks", recording)
        for lemma, _ in table_shapes(n):
            passed.clear()
            (j_sets, i_sets, facts), checks = witness._lemma_shape.__wrapped__(lemma, n)
            (members,) = passed
            printed = json.loads(json.dumps(i_sets))
            assert members == _split_members(i_sets, n)
            assert [list(map(list, part)) for part in members] == list(_split_members(printed, n))
            assert checks == shape_checks(n, j_sets, i_sets, facts) == (True, (), (), True)

    def test_pairs_never_reach_the_predicate(self, monkeypatch):
        asked = []

        def counting(a, b):
            asked.append(a)
            return commutes_predicate(a, b)

        monkeypatch.setattr(witness, "commutes_predicate", counting)
        for n in (6, 16, 64):
            for _, (j_sets, i_sets, _) in table_shapes(n):
                assert dominates(j_sets, i_sets, n) == []
        # only the two recovering triples of disjoint_pair and triangle
        assert asked and all(len(a) == 3 for a in asked)


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
            chi = sparse(n, {e: rng.choice([1, -2, Fraction(1, 3)]) for e in edges})
            for g in (build_kchi(chi), graph(n, edges)):
                assert g.order == order_reference(edges)
                assert g.nbrs == nbrs_reference(edges)

    def test_kchi_and_delta_match_a_fresh_parse(self):
        rng = random.Random(11)
        for n in range(2, 9):
            for _ in range(20):
                weights = {e: Fraction(rng.choice([0, 0, 1, -2, 3]), rng.randint(1, 3))
                           for e in pairs(n)}
                chi = dense(n, weights)
                g = build_kchi(chi)
                assert build_kchi(chi) is g
                # Delta is summed once, into the cached pair
                assert _delta(chi) is _delta(chi)
                fresh = character_from_json(json.dumps(character_to_json_dict(chi)))
                assert g.labels.keys() == build_kchi(fresh).labels.keys() == {e for e, v in weights.items() if v}
                assert g.labels == build_kchi(fresh).labels
                assert delta_value(chi) == delta_value(fresh) == sum(weights.values())
                assert chi.support == fresh.support

    def test_wrong_delta_rejected_after_classify(self):
        chi = sparse(5, {(1, 2): 3, (2, 5): Fraction(-1, 2)})
        cls = classify(chi)  # caches Delta = 5/2 on chi
        assert cls.certificate == ZeroSum(Fraction(5, 2))
        assert verify_certificate(cls, chi)
        for wrong in (Fraction(0), Fraction(3), Fraction(-5, 2)):
            assert not verify_certificate(Classification(ZeroSum(wrong), 5), chi)
        assert delta_value(chi) == Fraction(5, 2)


class Text(str):
    pass


class Count(int):
    pass


class TestParsedSupport:
    def test_support_and_delta_with_every_spelling_of_zero(self):
        zeros = ["0", 0, "0/7", "-0", "0e5"]
        nonzeros = ["1", -2, "3/6", "-0.25", "1e2", 7]
        rng = random.Random(31)
        empty = 0
        for _ in range(400):
            n = rng.randint(2, 12)
            raw, weights = {}, {}
            for i, j in pairs(n):
                val = rng.choice(zeros if rng.random() < 0.7 else nonzeros)
                raw[f"{i}-{j}"] = val
                weights[(i, j)] = Fraction(val)
            chi = character_from_json(json.dumps({"n": n, "weights": raw}))
            expected = {e: v for e, v in weights.items() if v != 0}
            assert chi.support == expected
            assert delta_value(chi) == sum(weights.values())
            assert chi.is_zero() == (not expected)
            empty += not expected
        assert empty > 10

    def test_every_other_constructor_derives_the_support(self):
        rng = random.Random(37)
        for _ in range(100):
            n = rng.randint(2, 8)
            weights = {e: Fraction(rng.choice([0, 0, 0, 1, -3]), rng.randint(1, 3))
                       for e in pairs(n)}
            perm = random_perm(n, rng)
            kept = {e: v for e, v in weights.items() if rng.random() < 0.8}
            full = dense(n, weights)
            relabeled = {
                tuple(sorted((perm[i - 1], perm[j - 1]))): v for (i, j), v in weights.items()
            }
            for chi, total in (
                (full, weights),
                (sparse(n, kept), kept),
                (permute(full, perm), relabeled),
                (scale(full, Fraction(-2, 3)), {e: v * Fraction(-2, 3) for e, v in weights.items()}),
                (scale(full, 0), {}),
                (zero_character(n), {}),
            ):
                expected = {e: v for e, v in total.items() if v != 0}
                assert chi.support == expected
                assert chi.is_zero() == (not expected)
                assert all(chi.weight(*e) == total.get(e, 0) for e in pairs(n))
                assert delta_value(chi) == sum(total.values())

    # the type test looks at strings first, yet refuses exactly what it did
    @pytest.mark.parametrize(
        "val", ["1", 1, Text("2"), Count(3), True, False, 1.0, None, [1], {"v": 1}, Fraction(1)]
    )
    def test_weight_type_test_accepts_and_refuses_as_before(self, val):
        data = {"n": 2, "weights": {"1-2": val}}
        if isinstance(val, bool) or not isinstance(val, (str, int)):
            with pytest.raises(CharacterFormatError, match="key '1-2' must be a string or an integer"):
                character_from_json_dict(data)
        else:
            assert character_from_json_dict(data).weight(1, 2) == Fraction(val)


# -- survival without relabeling --------------------------------------------


LEMMAS = (ZeroSum, DisjointTriple, DisjointPair, Star, DisjointLeaves, Triangle)


def table_shapes(n):
    """Each lemma whose J lies on strands 1..n, with its (J, I,
    factorizations) at n as ``_lemma_shape`` builds them."""
    for lemma in LEMMAS:
        if max(v for j in lemma.witness(n)[0] for v in j) <= n:
            yield lemma, witness._lemma_shape(lemma, n)[0]


def survival_reference(pkg, chi):
    relabeled = permute(chi, pkg.perm)
    return [j for j in pkg.j_sets if swing_value(relabeled, j) == 0]


def fresh_report(pkg, chi):
    """The report with every check run afresh, past the checks a built
    package carries."""
    checks = _shape_checks(chi.n, pkg.j_sets, pkg.i_sets, pkg.factorizations)
    connected, uncovered, ungenerated, table = checks
    survival = survival_reference(pkg, chi)
    return WitnessReport(survival, connected, list(uncovered), list(ungenerated), table)


def sparse_character(rng, n):
    """A few small nonzero weights, so that many swings vanish; half the
    time one pair absorbs the total, so Delta = 0."""
    weights = {e: Fraction(0) for e in pairs(n)}
    for e in rng.sample(pairs(n), rng.randint(1, min(len(weights), 2 * n))):
        weights[e] = Fraction(rng.choice([1, -1, 2, -2]), rng.choice([1, 1, 2]))
    if rng.random() < 0.5:
        weights[rng.choice(pairs(n))] -= sum(weights.values())
    return dense(n, weights)


def size_class(j, n):
    return {n: "all", n - 1: "all but one"}.get(len(j), "other")


class TestSurvival:
    def test_against_relabel_and_sum(self):
        rng = random.Random(43)
        seen = Counter()
        for n in range(3, 11):
            shapes = [shape for _, shape in table_shapes(n)]
            for trial in range(30):
                chi = sparse_character(rng, n)
                if trial % 2:  # the support handed over by the parse
                    chi = character_from_json(json.dumps(character_to_json_dict(chi)))
                perm = random_perm(n, rng)
                # every size 2..n, each given in a random order
                made = tuple(tuple(rng.sample(range(1, n + 1), k)) for k in range(2, n + 1))
                packages = [WitnessPackage("zero_sum", perm, j, i, f) for j, i, f in shapes]
                packages.append(WitnessPackage("zero_sum", perm, made, tuple(pairs(n))))
                for pkg in packages:
                    expected = survival_reference(pkg, chi)
                    assert verify_witness(pkg, chi).survival_failures == expected, (chi, pkg)
                    for j in pkg.j_sets:
                        seen[size_class(j, n), j in expected] += 1
        assert len(seen) == 6 and min(seen.values()) > 50, seen

    @pytest.mark.parametrize(
        "perm, j_sets",
        [
            ((1, 1, 3, 4, 5), ((1, 2),)),  # not a bijection
            ((1, 2, 3, 4), ((1, 2),)),  # too short
            ((2, 3, 4, 5, 6), ((1, 2),)),  # out of range
            ((1, 1, 3, 4, 5), ((0, 1),)),  # both bad: the perm is checked first
            ((5, 4, 3, 2, 1), ((1, 2), (2, 2))),  # a repeated strand
            ((5, 4, 3, 2, 1), ((1, 2, 2, 3),)),
            ((5, 4, 3, 2, 1), ((1, 2, 3, 4, 4),)),
            ((5, 4, 3, 2, 1), ((1, 2), (0, 3))),  # a strand out of range
            ((5, 4, 3, 2, 1), ((1, 2, 3, 6),)),
            ((5, 4, 3, 2, 1), ((0, 2, 3, 4, 5),)),
            ((5, 4, 3, 2, 1), ((1,),)),  # too small
        ],
    )
    def test_bad_perm_or_swing_set_raises_like_the_reference(self, perm, j_sets):
        chi = sparse(5, {(1, 2): 1, (3, 4): -1})
        pkg = WitnessPackage("zero_sum", perm, j_sets, tuple(pairs(5)))
        with pytest.raises(Exception) as expected:
            survival_reference(pkg, chi)
        with pytest.raises(Exception) as got:
            verify_witness(pkg, chi)
        assert type(got.value) is type(expected.value)


class TestShapeCache:
    def sigma1_packages(self):
        for lemma, n, weights in (
            ("disjoint_pair", 5, {(1, 2): 1, (3, 4): 1, (4, 5): -2}),
            ("star", 12, {(3, k): 1 if k < 12 else -7 for k in (1, 2, 4, 5, 8, 9, 10, 12)}),
            ("zero_sum", 6, {(1, 2): 2, (2, 3): 1}),
        ):
            chi = sparse(n, weights)
            pkg = build_witness_for(classify(chi), chi)
            assert pkg.lemma == lemma
            assert verify_witness(pkg, chi).ok  # the shape's cache entries are warm
            yield chi, pkg

    def test_survival_builds_no_character(self, monkeypatch):
        built = []
        init = Character.__init__

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        cases = list(self.sigma1_packages())
        monkeypatch.setattr(Character, "__init__", counting_init)
        for chi, pkg in cases:
            assert verify_witness(pkg, chi).ok
        assert built == []  # survival relabels no character

    def test_equal_copy_and_tampered_match_a_fresh_verification(self):
        for chi, pkg in self.sigma1_packages():
            copy = pkg._replace(i_sets=tuple(list(pkg.i_sets)))
            assert copy.i_sets is not pkg.i_sets and copy.i_sets == pkg.i_sets
            tampered = pkg._replace(i_sets=pkg.i_sets[:-1])  # a pair is not given
            # J and I are the shape's own tuples, but S_123 is not S_12 alone
            wrong = Factorization((1, 2, 3), ((1, 2),), (1, 2))
            refactored = pkg._replace(factorizations=(wrong,))
            for p in (pkg, copy, tampered, refactored, pkg):
                assert verify_witness(p, chi) == fresh_report(p, chi)
            assert verify_witness(copy, chi).ok and not verify_witness(tampered, chi).ok
            assert not verify_witness(refactored, chi).table_factorizations

    def test_packages_from_outside_leave_the_cache_alone(self):
        chi = sparse(6, {(1, 2): 2, (2, 3): 1})
        pkg = build_witness_for(classify(chi), chi)
        assert pkg.lemma == "zero_sum" and not pkg.factorizations
        size = witness._lemma_shape.cache_info().currsize
        subsets = (s for k in (2, 3) for s in combinations(pkg.i_sets, len(pkg.i_sets) - k))
        for _, i_sets in zip(range(witness._SHAPE_CACHE_SIZE + 20), subsets):
            outside = pkg._replace(i_sets=i_sets)
            report = verify_witness(outside, chi)
            assert report == fresh_report(outside, chi)
            assert report.ungenerated == sorted(set(pkg.i_sets) - set(i_sets))
        assert witness._lemma_shape.cache_info().currsize == size

    def test_lemma_shapes_stay_bounded(self):
        chi = sparse(5, {(1, 2): 1, (3, 4): 1, (4, 5): -2})
        pkg = build_witness_for(classify(chi), chi)
        assert verify_witness(pkg, chi).ok
        # each lemma at n = 6..52: more (lemma, n) shapes than the bound
        shapes = [(lemma, n) for n in range(6, 53) for lemma in LEMMAS]
        assert len(shapes) > witness._SHAPE_CACHE_SIZE
        for lemma, n in shapes:
            witness._lemma_shape(lemma, n)
        info = witness._lemma_shape.cache_info()
        assert info.currsize == witness._SHAPE_CACHE_SIZE
        rebuilt = build_witness_for(classify(chi), chi)
        assert witness._lemma_shape.cache_info().misses == info.misses + 1  # it was evicted
        assert rebuilt == pkg and rebuilt.i_sets is not pkg.i_sets
        assert verify_witness(rebuilt, chi) == fresh_report(rebuilt, chi)
        assert verify_witness(rebuilt, chi).ok

    def test_float_members_do_not_alias_the_built_shape(self):
        # (1.0, 2.0) equals and hashes like (1, 2), but is no pair of
        # strands: the float copy gives nothing, in whatever order
        chi = sparse(4, {(1, 2): 1})
        for order in (("float", "built", "float"), ("built", "float")):
            pkg = build_witness_for(classify(chi), chi)
            assert pkg.lemma == "zero_sum"
            floats = pkg._replace(i_sets=tuple(tuple(map(float, a)) for a in pkg.i_sets))
            assert floats == pkg and hash(floats) == hash(pkg)
            for name in order:
                report = verify_witness({"built": pkg, "float": floats}[name], chi)
                if name == "built":
                    assert report.ok
                else:
                    assert report.ungenerated == pairs(4) and not report.ok
                    assert report == fresh_report(floats, chi)

    def test_carried_checks_are_read_only_at_their_n(self):
        # a classification at n = 5 builds its shape at 5, whatever the
        # character passed along; its perm is then no bijection on 1..6
        chi5 = sparse(5, {(1, 2): 1, (3, 4): 1, (4, 5): -2})
        chi6 = sparse(6, {(1, 2): 1, (3, 4): 1, (4, 5): -2})
        pkg = build_witness_for(classify(chi5), chi6)
        assert pkg == build_witness_for(classify(chi5), chi5)
        with pytest.raises(ValueError, match="bijection on 1..6"):
            verify_witness(pkg, chi6)
        assert verify_witness(pkg, chi5) == fresh_report(pkg, chi5)
        assert verify_witness(pkg, chi5).ok

    def test_generation_entry_holds_only_at_its_n(self):
        chi5 = sparse(5, {(1, 2): 1, (3, 4): 1, (4, 5): -2})
        pkg = build_witness_for(classify(chi5), chi5)
        assert verify_witness(pkg, chi5).ok
        chi6 = sparse(6, {(1, 2): 1, (3, 4): 1, (4, 5): -2})
        moved = pkg._replace(perm=(*pkg.perm, 6))
        report = verify_witness(moved, chi6)
        assert report == fresh_report(moved, chi6)
        assert report.ungenerated == [(k, 6) for k in range(1, 6)]
