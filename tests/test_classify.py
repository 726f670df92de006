import json
import random
import sys
from fractions import Fraction

import pytest

from braidsigma.characters import InternalError, ZeroCharacterError, permute
from braidsigma.circles import CircleId, locate_circle
from braidsigma.classify import (
    COMPLEMENT,
    SIGMA1,
    CircleMembership,
    Classification,
    DisjointLeaves,
    DisjointPair,
    DisjointTriple,
    Star,
    Triangle,
    ZeroSum,
    classification_to_json_dict,
    classify,
    verify_certificate,
)
from braidsigma.witness import build_witness_for, verify_witness
from braidsigma.commands import enumerate_circles
from conftest import (
    dense,
    random_nonzero_character,
    random_perm,
    sample_circle,
    scale,
    sparse,
    zero_character,
)


# a character of each lemma but zero_sum, its certificate and the perm it
# derives: each perm sends the certificate's named vertices to their
# indices in the lemma's normal form and the other strands, in order, to
# the rest; none is the identity
DERIVED_PERMS = [
    (
        6,
        {(1, 4): 1, (2, 6): 1, (3, 5): -2},
        DisjointTriple(((1, 4), (2, 6), (3, 5))),
        (1, 3, 5, 2, 6, 4),
    ),
    (
        5,
        {(2, 5): 1, (1, 3): 2, (3, 4): -3},
        DisjointPair((2, 5), ((1, 3), (3, 4))),
        (3, 1, 4, 5, 2),
    ),
    (
        6,
        {(1, 3): 1, (2, 3): 1, (3, 5): 1, (3, 6): -3},
        Star(3, (1, 2, 5, 6)),
        (1, 2, 4, 5, 3, 6),
    ),
    (6, {(2, 5): 1, (4, 6): -1}, DisjointLeaves(((2, 5), (4, 6))), (5, 1, 6, 3, 2, 4)),
    (
        5,
        {(2, 3): -1, (2, 4): 1, (2, 5): -1, (3, 5): 1},
        Triangle(((3, 5), (2, 4)), (2, 3, 5), Fraction(-1)),
        (5, 3, 1, 4, 2),
    ),
]


def respellings(value, spell):
    """Each copy of the nested tuple of strands ``value`` with one strand v
    replaced by spell(v), where that is not None."""
    if not isinstance(value, tuple):
        return [] if spell(value) is None else [spell(value)]
    return [
        value[:k] + (s,) + value[k + 1:]
        for k, part in enumerate(value)
        for s in respellings(part, spell)
    ]


class TestPipelineStages:
    def test_zero_sum(self, chi0):
        cls = classify(chi0)
        assert cls.verdict == SIGMA1
        assert cls.certificate == ZeroSum(Fraction(-3))
        assert cls.perm == (1, 2, 3, 4)

    def test_p3_circle(self):
        chi = sparse(3, {(1, 2): 1, (1, 3): 1, (2, 3): -2})
        cls = classify(chi)
        assert cls.verdict == COMPLEMENT
        assert cls.certificate.circle == CircleId("P3", (1, 2, 3))

    def test_disjoint_leaves_on_three_edge_path(self):
        # the 3-edge path 2-1-3-4 has two disjoint leaf edges, which the
        # pipeline reaches before the triangle stage
        chi = sparse(4, {(1, 2): 1, (3, 4): 1, (1, 3): -2})
        cls = classify(chi)
        assert cls.verdict == SIGMA1
        assert isinstance(cls.certificate, DisjointLeaves)

    def test_disjoint_leaves_on_two_edges(self):
        chi = sparse(4, {(1, 2): 1, (3, 4): -1})
        cls = classify(chi)
        assert cls.verdict == SIGMA1
        assert isinstance(cls.certificate, DisjointLeaves)
        assert cls.certificate.leaf_edges == ((1, 2), (3, 4))

    def test_p4_circle(self):
        chi = dense(
            4, {(1, 2): 1, (3, 4): 1, (1, 3): 2, (2, 4): 2, (1, 4): -3, (2, 3): -3}
        )
        cls = classify(chi)
        assert cls.verdict == COMPLEMENT
        assert cls.certificate.circle == CircleId("P4", (1, 2, 3, 4))

    def test_disjoint_triple(self):
        chi = sparse(6, {(1, 2): 1, (3, 4): 1, (5, 6): -2})
        cls = classify(chi)
        assert cls.verdict == SIGMA1
        assert cls.certificate == DisjointTriple(((1, 2), (3, 4), (5, 6)))
        assert cls.perm == (1, 2, 3, 4, 5, 6)

    def test_star(self):
        chi = sparse(5, {(1, 4): 2, (2, 4): 1, (3, 4): -3})
        cls = classify(chi)
        assert cls.verdict == SIGMA1
        assert cls.certificate == Star(4, (1, 2, 3))
        assert cls.perm == (1, 2, 3, 4, 5)

    def test_disjoint_pair(self):
        chi = sparse(5, {(1, 2): 1, (3, 4): 2, (4, 5): -3})
        cls = classify(chi)
        assert cls.verdict == SIGMA1
        cert = cls.certificate
        assert isinstance(cert, DisjointPair)
        assert cert.edge == (1, 2)
        assert cert.others == ((3, 4), (4, 5))

    def test_triangle_on_four_cycle(self):
        # 4-cycle with a surviving triangle: no leaves, no edge disjoint
        # from two others, matching equality broken
        chi = sparse(4, {(1, 2): 1, (3, 4): 2, (1, 3): -1, (2, 4): -2})
        cls = classify(chi)
        assert cls.verdict == SIGMA1
        cert = cls.certificate
        assert isinstance(cert, Triangle)
        assert cert.value != 0

    def test_n2(self):
        chi = sparse(2, {(1, 2): -7})
        cls = classify(chi)
        assert cls.verdict == SIGMA1
        assert isinstance(cls.certificate, ZeroSum)

    def test_zero_character_rejected(self):
        with pytest.raises(ZeroCharacterError):
            classify(zero_character(4))

    # a character that reaches the circle tail but lies on no circle is a
    # fault of the pipeline, not of the input
    @pytest.mark.parametrize(
        "chi",
        [
            sparse(3, {(1, 2): 1, (1, 3): 1, (2, 3): -2}),
            dense(4, {(1, 2): 1, (3, 4): 1, (1, 3): 2, (2, 4): 2, (1, 4): -3, (2, 3): -3}),
        ],
        ids=["P3", "P4"],
    )
    def test_a_missed_circle_is_an_internal_error(self, chi, monkeypatch):
        # ``braidsigma.classify`` is the function; its module is reached here
        monkeypatch.setattr(sys.modules[classify.__module__], "locate_circle", lambda chi: None)
        with pytest.raises(InternalError, match="no circle over"):
            classify(chi)


class TestAgreementWithCircles:
    def test_random_corpus(self):
        rng = random.Random(47)
        for n in (4, 5, 6):
            for _ in range(300):
                chi = random_nonzero_character(n, rng, span=3, max_denom=2)
                cls = classify(chi)
                located = locate_circle(chi)
                assert (cls.verdict == COMPLEMENT) == (located is not None)
                if located is not None:
                    assert cls.certificate.circle == located

    def test_circle_samples_classify_complement(self):

        rng = random.Random(53)
        for n in (4, 5):
            for cid in enumerate_circles(n):
                chi = sample_circle(cid, (rng.randint(1, 9), rng.randint(-9, 9)), n)
                cls = classify(chi)
                assert cls.verdict == COMPLEMENT
                assert cls.certificate.circle == cid


class TestInvariance:
    def test_dilation(self):
        rng = random.Random(59)
        for _ in range(100):
            chi = random_nonzero_character(5, rng)
            scaled = scale(chi, Fraction(rng.randint(1, 9), rng.randint(1, 9)))
            a, b = classify(chi), classify(scaled)
            assert a.verdict == b.verdict
            assert type(a.certificate) is type(b.certificate)

    def test_permutation(self):
        rng = random.Random(61)
        for _ in range(100):
            chi = random_nonzero_character(5, rng, span=2, max_denom=1)
            perm = random_perm(5, rng)
            assert classify(chi).verdict == classify(permute(chi, perm)).verdict


class TestCertificates:
    def test_soundness_on_random_corpus(self):
        rng = random.Random(67)
        for n in (4, 5, 6):
            for _ in range(200):
                chi = random_nonzero_character(n, rng, span=2, max_denom=1)
                cls = classify(chi)
                assert verify_certificate(cls, chi)

    def test_json_shapes(self, chi0):
        out = classification_to_json_dict(classify(chi0))
        assert out == {
            "verdict": "sigma1",
            "certificate": {
                "kind": "zero_sum",
                "delta": "-3",
                "perm": (1, 2, 3, 4),
            },
        }

    def test_json_circle(self):
        chi = sparse(3, {(1, 2): 1, (1, 3): 1, (2, 3): -2})
        out = classification_to_json_dict(classify(chi))
        assert out == {
            "verdict": "complement",
            "certificate": {"kind": "circle", "id": {"kind": "P3", "support": [1, 2, 3]}},
        }


class TestDerivedPerm:
    @pytest.mark.parametrize("n, weights, cert, perm", DERIVED_PERMS)
    def test_perm_follows_from_fields(self, n, weights, cert, perm):
        chi = sparse(n, weights)
        cls = classify(chi)
        assert cls.certificate == cert
        assert cls.perm == perm
        assert classification_to_json_dict(cls)["certificate"]["perm"] == perm
        assert verify_certificate(cls, chi)
        assert verify_witness(build_witness_for(cls, chi), chi).ok


class TestCertificateRejection:
    def test_star_with_repeated_leaf_on_p3_point(self):
        # w14 = 1, w24 = -1 lies on the P3 circle over 124; the two-edge
        # star passes every other star condition when a leaf is repeated
        chi = sparse(4, {(1, 4): 1, (2, 4): -1})
        assert classify(chi).verdict == COMPLEMENT
        cls = Classification(Star(4, (1, 1, 2)), 4)
        assert not verify_certificate(cls, chi)

    def test_star_with_center_among_leaves(self):
        chi = sparse(5, {(1, 4): 2, (2, 4): 1, (3, 4): -3})
        assert verify_certificate(Classification(Star(4, (1, 2, 3)), 5), chi)
        cls = Classification(Star(4, (1, 2, 3, 4)), 5)
        assert not verify_certificate(cls, chi)

    # four edges of K on six strands; three edges of K of which two meet
    @pytest.mark.parametrize(
        "edges", [((1, 2), (3, 4), (5, 6), (1, 3)), ((1, 2), (1, 3), (5, 6))]
    )
    def test_disjoint_triple_fields_break_the_lemma(self, edges):
        chi = sparse(6, {(1, 2): 1, (3, 4): 1, (5, 6): 1, (1, 3): -3})
        cls = Classification(DisjointTriple(edges), 6)
        assert not verify_certificate(cls, chi)

    def test_disjoint_leaves_must_not_meet(self):
        # the two-edge path 1-2-3 lies on the P3 circle; its leaf edges meet
        chi = sparse(3, {(1, 2): 1, (2, 3): -1})
        cls = Classification(DisjointLeaves(((1, 2), (3, 2))), 3)
        assert not verify_certificate(cls, chi)

    def test_disjoint_leaves_must_be_leaves(self):
        # 1 has degree 2, so 1-2 is not a leaf edge although it is an edge
        chi = sparse(4, {(1, 2): 1, (1, 3): 1, (3, 4): -2})
        good = Classification(DisjointLeaves(((2, 1), (4, 3))), 4)
        assert verify_certificate(good, chi)
        cls = Classification(DisjointLeaves(((1, 2), (4, 3))), 4)
        assert not verify_certificate(cls, chi)

    def test_disjoint_pair_others_must_share_one_vertex(self):
        chi = sparse(6, {(1, 2): 1, (3, 4): 1, (5, 6): -2})
        cls = Classification(DisjointPair((1, 2), ((3, 4), (5, 6))), 6)
        assert not verify_certificate(cls, chi)

    # a repeated vertex, and a triangle that does not contain the first edge
    @pytest.mark.parametrize(
        "fields", [{"triangle": (1, 2, 2)}, {"edges": ((3, 4), (1, 2))}]
    )
    def test_triangle_fields_break_the_lemma(self, fields):
        chi = sparse(4, {(1, 2): 1, (3, 4): 2, (1, 3): -1, (2, 4): -2})
        good = classify(chi)
        assert good.certificate == Triangle(((1, 2), (3, 4)), (1, 2, 4), Fraction(-1))
        assert verify_certificate(good, chi)
        bad = good.certificate._replace(**fields)
        assert not verify_certificate(Classification(bad, 4), chi)

    # a strand below 1 cannot even be named (TestEnumerate in test_circles)
    @pytest.mark.parametrize("cid", [CircleId("P3", (1, 2, 5)), CircleId("P4", (1, 2, 4, 9))])
    def test_circle_outside_the_strands(self, cid):
        chi = sparse(4, {(1, 4): 1, (2, 4): -1})
        assert not verify_certificate(Classification(CircleMembership(cid), 4), chi)

    # each certificate holds on chi; one edge more in its tuple field must
    # make verify_certificate return False, not raise while unpacking
    @pytest.mark.parametrize(
        "cert, extra",
        [
            (DisjointPair((1, 2), ((3, 4), (4, 5))), {"others": ((3, 4), (4, 5), (5, 6))}),
            (Triangle(((1, 2), (3, 4)), (1, 2, 3), Fraction(1)), {"edges": ((1, 2), (3, 4), (5, 6))}),
            (DisjointLeaves(((1, 2), (3, 4))), {"leaf_edges": ((1, 2), (3, 4), (5, 6))}),
        ],
    )
    def test_wrong_edge_count_is_rejected(self, cert, extra):
        chi = sparse(6, {(1, 2): 1, (3, 4): 1, (4, 5): 1, (5, 6): -3})
        assert verify_certificate(Classification(cert, 6), chi)
        bad = cert._replace(**extra)
        assert not verify_certificate(Classification(bad, 6), chi)

    # the same strands spelled as floats: (1.0, 2.0) equals and hashes like
    # (1, 2), so only a type check tells them apart
    def test_float_disjoint_triple_is_refused(self):
        chi = sparse(6, {(1, 2): 1, (3, 4): 1, (5, 6): -2})
        assert verify_certificate(Classification(DisjointTriple(((1, 2), (3, 4), (5, 6))), 6), chi)
        cls = Classification(DisjointTriple(((1.0, 2.0), (3.0, 4.0), (5.0, 6.0))), 6)
        assert not verify_certificate(cls, chi)

    def test_float_triangle_is_refused_not_raised(self):
        chi = sparse(4, {(1, 2): 1, (1, 3): 1, (2, 3): 1, (3, 4): -3})
        good = classify(chi)
        assert good.certificate == Triangle(((1, 2), (3, 4)), (1, 2, 3), Fraction(3))
        bad = Triangle(((1.0, 2.0), (3.0, 4.0)), (1.0, 2.0, 3.0), Fraction(3))
        assert not verify_certificate(Classification(bad, 4), chi)

    # every strand of every lemma's certificate in turn, spelled as a float,
    # and each strand 1 spelled as True
    @pytest.mark.parametrize("n, weights, cert, perm", DERIVED_PERMS)
    @pytest.mark.parametrize(
        "spell", [float, lambda v: True if v == 1 else None], ids=["float", "bool"]
    )
    def test_each_strand_must_be_an_int(self, n, weights, cert, perm, spell):
        chi = sparse(n, weights)
        assert verify_certificate(Classification(cert, n), chi)
        for name in cert._fields:
            if name != "value":
                for value in respellings(getattr(cert, name), spell):
                    bad = cert._replace(**{name: value})
                    assert not verify_certificate(Classification(bad, n), chi), bad

    # every field of every kind holding a value that is not what the row
    # names: verify_certificate must return False, not raise unpacking it
    @pytest.mark.parametrize(
        "n, weights, cert",
        [case[:3] for case in DERIVED_PERMS]
        + [
            (4, {(1, 2): Fraction(3, 2)}, ZeroSum(Fraction(3, 2))),
            (4, {(1, 4): 1, (2, 4): -1}, CircleMembership(CircleId("P3", (1, 2, 4)))),
        ],
        ids=lambda case: getattr(case, "kind", ""),
    )
    @pytest.mark.parametrize("value", [5, None, "ab", (5,), ((1, 2), 5), [1.0, 2.0]])
    def test_any_other_value_of_a_field_is_refused(self, n, weights, cert, value):
        chi = sparse(n, weights)
        assert verify_certificate(Classification(cert, n), chi)
        for name in cert._fields:
            bad = cert._replace(**{name: value})
            assert verify_certificate(Classification(bad, n), chi) is False, bad

    # a bool equals 0 or 1, but is no exact value: it would print as true
    def test_bool_values_are_refused(self):
        chi = sparse(2, {(1, 2): 1})
        assert verify_certificate(Classification(ZeroSum(1), 2), chi)
        assert not verify_certificate(Classification(ZeroSum(True), 2), chi)
        chi = sparse(6, {(1, 2): 1, (3, 4): 1, (4, 5): 1, (5, 6): -3})
        tri = Triangle(((1, 2), (3, 4)), (1, 2, 3), Fraction(1))
        assert verify_certificate(Classification(tri, 6), chi)
        assert not verify_certificate(Classification(tri._replace(value=True), 6), chi)

    def test_strand_count_must_match(self, chi0):
        cls = classify(chi0)
        assert verify_certificate(cls, chi0)
        assert not verify_certificate(cls._replace(n=chi0.n + 1), chi0)

    # anything but a lemma or a circle where the certificate goes fails
    # the check and raises nothing
    @pytest.mark.parametrize("cert", [5, None, "zero_sum", {"kind": "zero_sum"}])
    def test_a_certificate_that_is_no_row_fails(self, chi0, cert):
        assert verify_certificate(Classification(cert, chi0.n), chi0) is False


def small_support_character(n, rng):
    """A character with integer weights on a few random pairs of at most
    seven strands: Delta is forced to 0 half of the time, and a fifth are
    circle points, so every kind that n admits turns up."""
    strands = rng.sample(range(1, n + 1), rng.randint(3, min(n, 7)))
    if rng.random() < 0.2:
        kind = "P4" if len(strands) > 3 and rng.random() < 0.5 else "P3"
        support = tuple(sorted(strands[:3 if kind == "P3" else 4]))
        return sample_circle(CircleId(kind, support), (rng.randint(-4, 4), rng.randint(1, 4)), n)
    pairs = [(a, b) for a in strands for b in strands if a < b]
    p = rng.choice([0.3, 0.6, 1.0])
    weights = {e: rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]) for e in pairs if rng.random() < p}
    if weights and rng.random() < 0.5:
        last = next(iter(weights))
        weights[last] -= sum(weights.values())
    return sparse(n, weights)


class TestIntTwins:
    """A support of int values is the same character as its Fraction twin,
    whichever the exact sums read."""

    @pytest.mark.parametrize("n", range(4, 9))
    def test_int_support_certifies_as_its_fraction_twin(self, n):
        rng = random.Random(800 + n)
        kinds = set()
        for _ in range(800):
            chi = small_support_character(n, rng)
            if chi.is_zero():
                continue
            twin = type(chi)(n, {e: int(v) for e, v in chi.support.items()})
            assert twin == chi and {type(v) for v in twin.support.values()} == {int}
            outcomes = []
            for c in (chi, twin):
                cls = classify(c)
                pkg = build_witness_for(cls, c) if cls.verdict == SIGMA1 else None
                text = json.dumps(classification_to_json_dict(cls), sort_keys=True)
                outcomes.append((text, locate_circle(c), pkg and verify_witness(pkg, c).ok))
            assert outcomes[0] == outcomes[1], chi
            assert outcomes[0][2] is not False
            kinds.add(classify(chi).certificate.kind)
        lemmas = {"zero_sum", "star", "disjoint_leaves", "triangle", "circle"}
        lemmas |= {"disjoint_pair"} if n >= 5 else set()
        lemmas |= {"disjoint_triple"} if n >= 6 else set()
        assert kinds == lemmas
