import json
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidsigma import planar, witness, words
from braidsigma.cli import main
from braidsigma.characters import (
    InternalError,
    all_edges,
    character_from_json,
    permute,
    swing_value,
)
from braidsigma.classify import (
    RECOVERY_FACTORIZATIONS,
    SIGMA1,
    Classification,
    Factorization,
    Lemma,
    classify,
    verify_certificate,
)
from braidsigma.witness import (
    WitnessPackage,
    WitnessReport,
    build_witness_for,
    commuting_graph,
    dominates,
    is_connected,
    verify_witness,
    witness_to_json_dict,
)
from conftest import character_to_json_dict, random_nonzero_character, sparse
from test_circles import JSON_VALUES
from test_lift_oracle import _bench_corpus

TABLE_LINE = "a factorization is not one of the lemma table's on strands 1..n"
# a refused factorization gives nothing, so what it would recover is named
NOT_14_LINE = "pairs of 1..n that I does not give (1): [(1, 4)]"


class TestCommutingGraph:
    def test_triangle(self):
        adj = commuting_graph([(1, 2), (3, 4), (5, 6)])
        assert adj == [{1, 2}, {0, 2}, {0, 1}]

    def test_path(self):
        adj = commuting_graph([(1, 2), (3, 4), (4, 5)])
        assert adj[0] == {1, 2}
        assert adj[1] == {0}
        assert adj[2] == {0}

    def test_star_hexagon(self):
        n = 5
        comp = lambda i: tuple(k for k in range(1, n + 1) if k != i)
        j_sets = [(1, 4), (2, 4), (3, 4), comp(1), comp(2), comp(3)]
        adj = commuting_graph(j_sets)
        # hexagon S14 - S_A2 - S34 - S_A1 - S24 - S_A3 - S14
        cycle = [0, 4, 2, 3, 1, 5]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert b in adj[a]

    def test_connectivity(self):
        assert is_connected(commuting_graph([(1, 2), (3, 4), (4, 5)]))
        assert not is_connected(commuting_graph([(1, 2), (2, 3)]))


class TestDominates:
    def test_disjoint_triple_data(self):
        j_sets = [(1, 2), (3, 4), (5, 6)]
        assert dominates(j_sets, all_edges(6), 6) == []

    def test_disjoint_pair_data(self):
        j_sets = [(1, 2), (3, 4), (4, 5)]
        i_sets = [p for p in all_edges(5) if p not in ((1, 4), (2, 4))]
        i_sets += [(1, 4, 5), (2, 4, 5)]
        assert dominates(j_sets, i_sets, 5) == []

    def test_uncovered_reported(self):
        assert dominates([(1, 2)], [(1, 3)], 3) == [(1, 3)]

    def test_monotone_in_j(self):
        rng = random.Random(71)
        i_sets = all_edges(6)
        for _ in range(20):
            j_sets = [tuple(sorted(rng.sample(range(1, 7), 2))) for _ in range(2)]
            before = dominates(j_sets, i_sets, 6)
            after = dominates(j_sets + [(1, 2, 3)], i_sets, 6)
            assert set(after) <= set(before)


class TestBuildWitness:
    def test_zero_sum_package(self, chi0):
        pkg = build_witness_for(classify(chi0), chi0)
        assert pkg.lemma == "zero_sum"
        assert pkg.j_sets == ((1, 2, 3, 4),)
        assert pkg.i_sets == tuple(all_edges(4))
        assert pkg.factorizations == ()

    def test_disjoint_leaves_survival_values(self):
        chi = sparse(4, {(1, 2): 1, (3, 4): -1})
        cls = classify(chi)
        pkg = build_witness_for(cls, chi)
        assert pkg.lemma == "disjoint_leaves"
        relabeled = permute(chi, pkg.perm)
        values = [swing_value(relabeled, j) for j in pkg.j_sets]
        assert values == [1, -1, 1, -1, 1]

    def test_triangle_factorizations(self):
        chi = sparse(4, {(1, 2): 1, (3, 4): 2, (1, 3): -1, (2, 4): -2})
        cls = classify(chi)
        pkg = build_witness_for(cls, chi)
        assert pkg.lemma == "triangle"
        added = {f.added for f in pkg.factorizations}
        assert added == {(1, 3, 4), (2, 3, 4)}
        recovered = {f.recovers for f in pkg.factorizations}
        assert recovered == {(1, 4), (2, 4)}

    @pytest.mark.parametrize(
        "weights, lemma, k",
        [
            ({(1, 2): 1, (3, 4): 2, (4, 5): -3}, "disjoint_pair", 5),
            ({(1, 2): 1, (3, 4): 2, (1, 3): -1, (2, 4): -2}, "triangle", 3),
        ],
    )
    def test_recovering_lemmas_drop_14_and_24(self, weights, lemma, k):
        # I is the standard pairs without 14 and 24 plus the triples they
        # span with vertex k; each triple's swing factors into its pairs
        chi = sparse(5, weights)
        pkg = build_witness_for(classify(chi), chi)
        assert pkg.lemma == lemma
        t1, t2 = tuple(sorted((1, 4, k))), tuple(sorted((2, 4, k)))
        kept = [p for p in all_edges(5) if p not in ((1, 4), (2, 4))]
        assert pkg.i_sets == (*kept, t1, t2)
        assert [(f.added, f.recovers) for f in pkg.factorizations] == [
            (t1, (1, 4)),
            (t2, (2, 4)),
        ]
        for f in pkg.factorizations:
            assert f.factors == tuple(p for p in all_edges(5) if set(p) <= set(f.added))
        assert verify_witness(pkg, chi).ok

    def test_circle_certificate_rejected(self):
        # a P3 and a P4 point, each refused before the shape cache is asked
        for n, weights, kind in [
            (3, {(1, 2): 1, (1, 3): 1, (2, 3): -2}, "P3"),
            (5, {(1, 2): 1, (3, 4): 1, (1, 3): 1, (2, 4): 1, (1, 4): -2, (2, 3): -2}, "P4"),
        ]:
            chi = sparse(n, weights)
            cls = classify(chi)
            assert cls.certificate.circle.kind == kind
            before = witness._lemma_shape.cache_info()
            with pytest.raises(ValueError, match="carry no invariant-side witness"):
                build_witness_for(cls, chi)
            assert witness._lemma_shape.cache_info() == before


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
        chi = sparse(3, {(1, 2): 1, (2, 3): -1})
        pkg = WitnessPackage("zero_sum", (1, 2, 3), ((1, 3),), tuple(all_edges(3)))
        report = verify_witness(pkg, chi)
        assert report.survival_failures == [(1, 3)]
        assert not report.ok

    @pytest.mark.parametrize(
        "j_sets", [((1.0, 2.0, 3.0, 4.0),), ((True, 2.0, 3, 4),), (5,), (None,), (("a", 1),)]
    )
    def test_strands_that_are_not_ints_are_refused(self, chi0, j_sets):
        # chi0 is zero_sum at n = 4; a J member of all four strands spelled
        # as floats or a bool once passed every condition
        pkg = build_witness_for(classify(chi0), chi0)
        assert pkg.j_sets == ((1, 2, 3, 4),) and verify_witness(pkg, chi0).ok
        with pytest.raises(ValueError, match="strands must be ints"):
            verify_witness(pkg._replace(j_sets=j_sets), chi0)

    # (True, 2, 3, 4) sorts equal to (1, 2, 3, 4), and once passed as ok
    # to print as [true, 2, 3, 4]; permute refuses the same perms
    @pytest.mark.parametrize("perm", [(True, 2, 3, 4), (1.0, 2.0, 3.0, 4.0), 5, None])
    def test_perm_strands_that_are_not_ints_are_refused(self, chi0, perm):
        pkg = build_witness_for(classify(chi0), chi0)
        assert verify_witness(pkg, chi0).ok
        with pytest.raises(ValueError, match="bijection on 1..4 of ints"):
            verify_witness(pkg._replace(perm=perm), chi0)

    # the last three hold no int strands: J dominates none of them
    @pytest.mark.parametrize("degenerate", [(3, 3), (1, 9), (0, 2), 5, None, ["a", 1]])
    def test_degenerate_members_add_nothing_to_the_rank(self, degenerate):
        chi = sparse(4, {(1, 2): 1, (3, 4): 2})
        pkg = build_witness_for(classify(chi), chi)
        assert pkg.lemma == "zero_sum" and verify_witness(pkg, chi).ok
        # without (1, 2) the pairs span only five of the six columns
        i_sets = tuple(a for a in pkg.i_sets if a != (1, 2)) + (degenerate,)
        report = verify_witness(pkg._replace(i_sets=i_sets), chi)
        assert report.ungenerated == [(1, 2)] and not report.ok
        if degenerate == (3, 3):  # {3} lies in J's one member, so only generation fails
            assert report.uncovered == [] and report.connected
        if not isinstance(degenerate, tuple):
            assert report.uncovered == [degenerate]

    # J dominates I and the abelianized I has full rank in each case below,
    # but a pair of 1..n is not given
    RECOVERING = (
        (5, {(1, 2): 1, (3, 4): 1, (4, 5): -2}, "disjoint_pair"),
        (4, {(1, 2): 1, (3, 4): 2, (1, 3): -1, (2, 4): -2}, "triangle"),
    )

    @pytest.mark.parametrize("n, weights, lemma", RECOVERING)
    def test_recovered_pairs_need_their_factorizations(self, n, weights, lemma):
        chi = sparse(n, weights)
        pkg = build_witness_for(classify(chi), chi)
        assert pkg.lemma == lemma and verify_witness(pkg, chi).ok
        report = verify_witness(pkg._replace(factorizations=()), chi)
        assert report.ungenerated == [(1, 4), (2, 4)] and not report.ok
        assert report.uncovered == [] and report.connected
        # each factorization names a factor that is not in I
        facts = tuple(f._replace(factors=(*f.factors[:-1], (1, 2, 3))) for f in pkg.factorizations)
        report = verify_witness(pkg._replace(factorizations=facts), chi)
        assert report.ungenerated == [(1, 4), (2, 4)] and not report.ok

    def test_factorizations_are_taken_in_order(self):
        # (1, 4) from (1, 2, 4) needs (2, 4), which only the second
        # factorization gives; both are identities of P_4, but only the
        # second is one of the lemma table's, so a package with both fails,
        # and in either order the first gives nothing
        n, weights, _ = self.RECOVERING[1]
        chi = sparse(n, weights)
        pkg = build_witness_for(classify(chi), chi)
        i_sets = tuple(a for a in pkg.i_sets if a != (1, 3, 4)) + ((1, 2, 4),)
        f1 = Factorization((1, 2, 4), ((1, 2), (1, 4), (2, 4)), (1, 4))
        f2 = Factorization((2, 3, 4), ((2, 3), (2, 4), (3, 4)), (2, 4))
        assert witness._ungenerated(n, i_sets, (f1, f2)) == [(1, 4)]
        assert witness._ungenerated(n, i_sets, (f2, f1)) == []
        report = verify_witness(pkg._replace(i_sets=i_sets, factorizations=(f1, f2)), chi)
        assert report.ungenerated == [(1, 4)] and TABLE_LINE in report.failures()
        assert not report.table_factorizations and not report.ok
        report = verify_witness(pkg._replace(i_sets=i_sets, factorizations=(f2, f1)), chi)
        assert report.failures() == [NOT_14_LINE, TABLE_LINE]

    def test_a_factorization_must_recover_a_pair_of_its_own(self):
        # I gives every pair, so the coverage passes the factorization over;
        # its identity holds, but (3, 4) is not a pair of (1, 2, 3), and it
        # is not one of the lemma table's, which refuses it
        chi = sparse(4, {(1, 2): 1, (3, 4): 2})
        pkg = build_witness_for(classify(chi), chi)
        extra = Factorization((1, 2, 3), ((1, 2), (1, 3), (2, 3)), (3, 4))
        tampered = pkg._replace(i_sets=(*pkg.i_sets, (1, 2, 3)), factorizations=(extra,))
        report = verify_witness(tampered, chi)
        assert report.ungenerated == [] and report.failures() == [TABLE_LINE] and not report.ok

    def test_failures_name_the_length_and_the_first_members(self):
        chi = sparse(5, {(1, 2): 1, (3, 4): 2})
        pkg = build_witness_for(classify(chi), chi)
        assert verify_witness(pkg, chi).failures() == []
        report = verify_witness(pkg._replace(i_sets=()), chi)
        assert report.failures() == [
            f"pairs of 1..n that I does not give (10): {list(all_edges(5))[:8]}"
        ]

    def test_disconnected_j_detected(self):
        chi = sparse(3, {(1, 2): 1, (2, 3): 1, (1, 3): 1})
        pkg = WitnessPackage("zero_sum", (1, 2, 3), ((1, 2), (2, 3)), tuple(all_edges(3)))
        report = verify_witness(pkg, chi)
        assert not report.connected
        assert not report.ok

    def test_shape_checks_follow_the_package_not_the_cache(self):
        # zero-sum support 12, 34, 45: an edge disjoint from two others but
        # no disjoint triple, so the lemma is disjoint_pair at n = 5
        chi = sparse(5, {(1, 2): 1, (3, 4): 1, (4, 5): -2})
        pkg = build_witness_for(classify(chi), chi)
        assert pkg.lemma == "disjoint_pair"
        assert verify_witness(pkg, chi).ok  # the shape's entry is now warm

        # (1, 4) meets every member of J = (12, 34, 45), so no member
        # dominates it; the lemma puts (1, 4, 5) in I in its place
        i_sets = tuple((1, 4) if a == (1, 4, 5) else a for a in pkg.i_sets)
        report = verify_witness(pkg._replace(i_sets=i_sets), chi)
        assert report.uncovered == [(1, 4)]
        assert report.connected and not report.ok

        # 13 misses 45 and does not interleave with it, so C(J) has the
        # edge 13 - 45 only; 34 shares a vertex with both and is isolated
        j_sets = ((1, 3), (3, 4), (4, 5))
        report = verify_witness(pkg._replace(j_sets=j_sets), chi)
        assert not report.connected and not report.ok

        assert verify_witness(pkg, chi).ok

    def test_reports_do_not_share_uncovered(self):
        chi = sparse(3, {(1, 2): 1, (2, 3): 1, (1, 3): 1})
        # (1, 3) meets both members of J, so it is undominated
        pkg = WitnessPackage("zero_sum", (1, 2, 3), ((1, 2), (2, 3)), tuple(all_edges(3)))
        first = verify_witness(pkg, chi)
        assert first.uncovered == [(1, 3)]
        first.uncovered.clear()
        first.uncovered.append((1, 2))
        assert verify_witness(pkg, chi).uncovered == [(1, 3)]

        good = build_witness_for(classify(chi), chi)
        report = verify_witness(good, chi)
        report.uncovered.append((1, 3))
        assert verify_witness(good, chi).ok

    def test_star_closed_form(self):
        # for a zero-sum star, the complement swings mirror the leaf edges
        rng = random.Random(79)
        for n in (4, 5, 6):
            for _ in range(30):
                a = Fraction(rng.randint(1, 9))
                b = Fraction(rng.randint(1, 9))
                chi = sparse(
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
        assert data["J"] == ((1, 2, 3, 4),)
        assert len(data["I"]) == 6
        assert data["I"] is pkg.i_sets  # the package's own tuple, not a copy

    def test_built_j_is_checked_once_per_shape(self, monkeypatch):
        chi = sparse(5, {(1, 2): 1, (3, 4): 1, (4, 5): -2})
        pkg = build_witness_for(classify(chi), chi)
        calls = []
        swing_set = witness.swing_set
        monkeypatch.setattr(witness, "swing_set", lambda a, n: calls.append(a) or swing_set(a, n))
        assert verify_witness(pkg, chi).ok
        assert calls == []
        # a package from outside has its J checked on every call
        assert verify_witness(pkg._replace(), chi).ok
        assert calls[: len(pkg.j_sets)] == list(pkg.j_sets)

    def test_a_bad_table_j_is_an_internal_error(self):
        class Repeated:  # a lemma whose J repeats a strand
            kind = "repeated"

            @staticmethod
            def witness(n):
                return ((1, 1),), ()

        with pytest.raises(InternalError, match="repeated at n = 4"):
            witness._lemma_shape(Repeated, 4)

    def test_the_derived_split_is_checked_not_trusted(self):
        # disjoint_triple's J with disjoint_pair's factorizations: I is built
        # with its split known, and the triples it adds meet every member
        # of J without nesting, so J dominates neither
        class Undominated:
            kind = "undominated"

            @staticmethod
            def witness(n):
                return ((1, 2), (3, 4), (5, 6)), RECOVERY_FACTORIZATIONS[5]

        (j_sets, i_sets, facts), checks = witness._lemma_shape(Undominated, 6)
        assert i_sets[-2:] == ((1, 4, 5), (2, 4, 5))
        assert checks == (True, ((1, 4, 5), (2, 4, 5)), (), True)
        assert checks == witness._shape_checks(6, j_sets, i_sets, facts)

    @pytest.mark.parametrize("field", ["j_sets", "i_sets", "factorizations"])
    @pytest.mark.parametrize("value", [None, 5, "(1, 2)", {"J": [[1, 2]]}])
    def test_a_field_that_is_no_list_is_a_malformed_package(self, field, value):
        chi = sparse(5, {(1, 2): 1, (3, 4): 1, (4, 5): -2})
        pkg = build_witness_for(classify(chi), chi)
        assert verify_witness(pkg, chi).ok
        with pytest.raises(ValueError, match="must each be a tuple or list"):
            verify_witness(pkg._replace(**{field: value}), chi)


def reference_json_dict(pkg):
    """The witness dict with every member copied into a list."""
    return {
        "lemma": pkg.lemma,
        "perm": list(pkg.perm),
        "J": [list(j) for j in pkg.j_sets],
        "I": [list(i) for i in pkg.i_sets],
        "factorizations": [
            {
                "added": list(f.added),
                "factors": [list(x) for x in f.factors],
                "recovers": list(f.recovers),
            }
            for f in pkg.factorizations
        ],
    }


# one support per lemma, with the n it needs at least
LEMMA_SUPPORTS = {
    "zero_sum": (4, {(1, 2): 1}),
    "disjoint_triple": (6, {(1, 2): 1, (3, 4): 1, (5, 6): -2}),
    "disjoint_pair": (5, {(1, 2): 1, (3, 4): 1, (4, 5): -2}),
    "star": (4, {(1, 2): 1, (1, 3): 1, (1, 4): -2}),
    "disjoint_leaves": (4, {(1, 2): 1, (2, 3): -2, (3, 4): 1}),
    "triangle": (4, {(1, 2): 1, (1, 3): 1, (2, 3): 1, (3, 4): -3}),
}


def relabeled_character(lemma, n):
    """The lemma's support at n, its strands shuffled."""
    _, support = LEMMA_SUPPORTS[lemma]
    labels = list(range(1, n + 1))
    random.Random(f"{lemma}:{n}").shuffle(labels)
    return sparse(n, {(labels[i - 1], labels[j - 1]): w for (i, j), w in support.items()})


def relabeled_package(lemma, n):
    """The built package of ``relabeled_character``, whose perm is not the
    identity."""
    chi = relabeled_character(lemma, n)
    pkg = build_witness_for(classify(chi), chi)
    assert pkg.lemma == lemma
    return pkg


def dumped(data):
    return json.dumps(data, indent=2, sort_keys=True)


class TestPackageLemma:
    @pytest.mark.parametrize("lemma", [5, None, "nope", "circle", ["zero_sum"]])
    def test_a_lemma_that_is_no_row_kind_is_a_malformed_package(self, lemma):
        chi = sparse(5, {(1, 2): 1, (3, 4): 1, (4, 5): -2})
        pkg = build_witness_for(classify(chi), chi)
        assert pkg.lemma == "disjoint_pair" and verify_witness(pkg, chi).ok
        with pytest.raises(ValueError, match="the kind of a lemma row"):
            verify_witness(pkg._replace(lemma=lemma), chi)

    @pytest.mark.parametrize("lemma", sorted(LEMMA_SUPPORTS))
    def test_each_kind_verifies_on_its_own_package(self, lemma):
        assert lemma in {row.kind for row in Lemma.__subclasses__()}
        pkg, chi = relabeled_package(lemma, 7), relabeled_character(lemma, 7)
        assert verify_witness(pkg, chi).ok
        assert verify_witness(WitnessPackage(*map(pkg.__dict__.get, pkg._fields)), chi).ok


class TestWitnessJson:
    """The dict holds the package's own tuples; ``json.dumps`` must print
    it byte for byte as the same dict with every member a list."""

    @pytest.mark.parametrize("n", [*range(4, 13), 64])
    def test_every_lemma_prints_as_lists(self, n):
        for lemma, (least, _) in LEMMA_SUPPORTS.items():
            if n >= least:
                pkg = relabeled_package(lemma, n)
                assert dumped(witness_to_json_dict(pkg)) == dumped(reference_json_dict(pkg))

    def test_disjoint_pair_at_n256_prints_as_lists(self):
        pkg = relabeled_package("disjoint_pair", 256)
        assert pkg.factorizations and pkg.perm != tuple(range(1, 257))
        assert dumped(witness_to_json_dict(pkg)) == dumped(reference_json_dict(pkg))

    def test_a_package_of_lists_prints_as_before(self):
        pkg = relabeled_package("triangle", 7)
        listed = reference_json_dict(pkg)
        facts = [
            Factorization(f["added"], f["factors"], f["recovers"]) for f in listed["factorizations"]
        ]
        as_lists = WitnessPackage(pkg.lemma, listed["perm"], listed["J"], listed["I"], facts)
        assert dumped(witness_to_json_dict(as_lists)) == dumped(listed)

    # the shape json.loads gives: every member and factorization a list
    @pytest.mark.parametrize("lemma", sorted(LEMMA_SUPPORTS))
    def test_a_package_of_lists_verifies_as_its_tuples(self, lemma):
        pkg, chi = relabeled_package(lemma, 7), relabeled_character(lemma, 7)
        listed = json.loads(json.dumps(witness_to_json_dict(pkg)))
        facts = [Factorization(**f) for f in listed["factorizations"]]
        as_lists = WitnessPackage(pkg.lemma, listed["perm"], listed["J"], listed["I"], facts)
        assert verify_witness(pkg, chi).ok and verify_witness(as_lists, chi).ok
        # the same failures as the tuples' when I loses a member
        for k in (0, len(pkg.i_sets) - 1):
            fewer = pkg._replace(i_sets=pkg.i_sets[:k] + pkg.i_sets[k + 1:])
            fewer_lists = as_lists._replace(i_sets=listed["I"][:k] + listed["I"][k + 1:])
            assert verify_witness(fewer_lists, chi).failures() == verify_witness(fewer, chi).failures()


class TestWordLevel:
    """A package may carry only the lemma table's factorizations, which
    ``braidsigma verify`` proves in the word engine once; certifying runs
    no braid word."""

    CASES = (
        (5, {(1, 2): 1, (3, 4): 1, (4, 5): -2}, "disjoint_pair"),
        (4, {(1, 2): 1, (3, 4): 2, (1, 3): -1, (2, 4): -2}, "triangle"),
        (5, {(1, 2): 1, (3, 4): 2, (1, 3): -1, (2, 4): -2}, "triangle"),
    )

    @pytest.fixture
    def engine_calls(self, monkeypatch):
        # every braid word's images are built by words.artin_sigma; witness
        # keeps the name braid_aut for the benchmark's tracer
        calls = []
        artin_sigma, braid_aut = words.artin_sigma, witness.braid_aut
        monkeypatch.setattr(words, "artin_sigma", lambda x, n: calls.append(x) or artin_sigma(x, n))
        monkeypatch.setattr(witness, "braid_aut", lambda w: calls.append(w) or braid_aut(w))
        return calls

    def test_no_certify_path_calls_the_word_engine(self, engine_calls, tmp_path, capsys):
        for n, weights, lemma in self.CASES:
            chi = sparse(n, weights)
            pkg = build_witness_for(classify(chi), chi)
            assert pkg.lemma == lemma and len(pkg.factorizations) == 2
            cold = witness._shape_checks(n, pkg.j_sets, pkg.i_sets, pkg.factorizations)
            assert cold == (True, (), (), True)
            assert verify_witness(pkg, chi).ok
        # the CLI, over a character of every lemma and random ones
        rng = random.Random(61)
        chars = [sparse(n, w) for n, w, _ in self.CASES]
        chars += [
            sparse(6, {(1, 2): 1, (3, 4): 1, (5, 6): -2}),  # disjoint_triple
            sparse(5, {(1, 5): 1, (2, 5): 1, (3, 5): -2}),  # star
            sparse(4, {(1, 2): 1, (3, 4): -1}),  # disjoint_leaves
        ]
        chars += [random_nonzero_character(n, rng, span=2, max_denom=1) for n in (4, 5, 6, 7) * 5]
        lemmas = set()
        path = tmp_path / "chi.json"
        for chi in chars:
            path.write_text(json.dumps(character_to_json_dict(chi)))
            assert main(["classify", "--witness", "--in", str(path)]) == 0
            out = json.loads(capsys.readouterr().out)
            lemmas.add(out.get("witness", {}).get("lemma"))
        kinds = ["zero_sum", "disjoint_triple", "disjoint_pair", "star", "disjoint_leaves"]
        assert {*kinds, "triangle"} <= lemmas
        assert engine_calls == []

    def test_other_factorizations_are_refused(self, engine_calls):
        n, weights, _ = self.CASES[0]
        chi = sparse(n, weights)
        pkg = build_witness_for(classify(chi), chi)
        first, second = pkg.factorizations
        # a rotation of a table product is a true identity outside the table
        rotated = Factorization(first.added, first.factors[1:] + first.factors[:1], first.recovers)
        assert rotated != first and planar.factorization_holds(rotated, n)
        engine_calls.clear()
        report = verify_witness(pkg._replace(factorizations=(rotated, second)), chi)
        assert report.failures() == [NOT_14_LINE, TABLE_LINE]
        # S_245 is not the product of S_14, S_15 and S_45
        wrong = first._replace(added=(2, 4, 5))
        report = verify_witness(pkg._replace(factorizations=(wrong, second)), chi)
        assert not report.table_factorizations and TABLE_LINE in report.failures()
        assert engine_calls == []

    @pytest.mark.parametrize("n", [5, 6, 9])
    def test_reordered_factors_are_refused_at_every_n(self, n, engine_calls):
        # the product S_14 S_45 S_15 is not the table's S_14 S_15 S_45
        chi = sparse(n, {(1, 2): 1, (3, 4): 1, (4, 5): -2})
        pkg = build_witness_for(classify(chi), chi)
        assert pkg.lemma == "disjoint_pair" and verify_witness(pkg, chi).ok
        first, second = pkg.factorizations
        reordered = first._replace(factors=((1, 4), (4, 5), (1, 5)))
        report = verify_witness(pkg._replace(factorizations=(reordered, second)), chi)
        assert report.failures() == [NOT_14_LINE, TABLE_LINE]
        assert engine_calls == []

    def test_table_factorizations_need_their_strands(self):
        # at n = 4 the disjoint_pair factorizations name strand 5, so they
        # are not the proved identities of P_4: the package is refused
        n, weights, lemma = self.CASES[1]
        chi = sparse(n, weights)
        pkg = build_witness_for(classify(chi), chi)
        assert n == 4 and pkg.lemma == lemma
        moved = pkg._replace(factorizations=RECOVERY_FACTORIZATIONS[5])
        report = verify_witness(moved, chi)
        assert not report.table_factorizations and report.failures()[-1] == TABLE_LINE

    def test_float_strands_are_not_table_factorizations(self):
        # a float strand equals its int and hashes like it, so a table test
        # by value alone took these for the table's; the report must name
        # the factorizations, not only the pairs they then fail to give
        n, weights, lemma = self.CASES[0]
        chi = sparse(n, weights)
        pkg = build_witness_for(classify(chi), chi)
        assert (n, pkg.lemma) == (5, "disjoint_pair")

        def floats(f, part):
            changed = {
                "added": tuple(map(float, f.added)),
                "factors": tuple(tuple(map(float, x)) for x in f.factors),
                "recovers": tuple(map(float, f.recovers)),
            }
            return f._replace(**{k: v for k, v in changed.items() if k in part})

        for part in (("added", "factors", "recovers"), ("added",), ("factors",), ("recovers",)):
            spelled = tuple(floats(f, part) for f in pkg.factorizations)
            assert spelled == pkg.factorizations
            report = verify_witness(pkg._replace(factorizations=spelled), chi)
            assert not report.table_factorizations and TABLE_LINE in report.failures()
        assert verify_witness(pkg, chi).ok


# -- any JSON value where a certificate or a witness holds strands -------------


@lru_cache(maxsize=1)
def stratified_cases():
    """The first character of each certificate kind in the seed-1
    ``stratified`` corpus: (character, classification, witness or None)."""
    cases = {}
    for item in _bench_corpus().stratified(1):
        chi = character_from_json(item.text)
        cls = classify(chi)
        if cls.certificate.kind not in cases:
            pkg = build_witness_for(cls, chi) if cls.verdict == SIGMA1 else None
            cases[cls.certificate.kind] = (chi, cls, pkg)
    return cases


# JSON values, and lists of small ints, which are often real strands
STRAND_VALUES = JSON_VALUES | st.integers(0, 9) | st.lists(st.integers(0, 9), max_size=4)


def replaced(values, k, value):
    return (*values[:k], value, *values[k + 1:])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_any_json_value_is_judged_not_raised(data):
    # one certificate field, one member of I or one factorization (or one of
    # its fields) of a seed-1 case holds any JSON value
    cases = stratified_cases()
    assert len(cases) == 7
    chi, cls, pkg = cases[data.draw(st.sampled_from(sorted(cases)), label="kind")]
    places = ["certificate", *(["I"] if pkg else [])]
    places += ["factorization"] if pkg and pkg.factorizations else []
    place = data.draw(st.sampled_from(places), label="place")
    value = data.draw(STRAND_VALUES, label="value")
    if place == "certificate":
        cert = cls.certificate
        name = data.draw(st.sampled_from(cert._fields), label="field")
        bad = Classification(cert._replace(**{name: value}), cls.n)
        assert verify_certificate(bad, chi) in (True, False)
        return
    if place == "I":
        k = data.draw(st.integers(0, len(pkg.i_sets) - 1), label="member")
        bad = pkg._replace(i_sets=replaced(pkg.i_sets, k, value))
    else:
        k = data.draw(st.integers(0, len(pkg.factorizations) - 1), label="factorization")
        name = data.draw(st.sampled_from([None, *Factorization._fields]), label="field")
        f = pkg.factorizations[k]
        fact = value if name is None else f._replace(**{name: value})
        bad = pkg._replace(factorizations=replaced(pkg.factorizations, k, fact))
    assert isinstance(verify_witness(bad, chi), WitnessReport)
