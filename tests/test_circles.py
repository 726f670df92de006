import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidsigma.characters import (
    ZeroCharacterError,
    delta_value,
    permute,
)
from braidsigma.circles import CircleId, locate_circle, on_circle
from braidsigma.commands import enumerate_circles
from conftest import (
    dense,
    pullback_rho,
    random_character,
    random_perm,
    sample_circle,
    scale,
    sparse,
    zero_character,
)


class TestEnumerate:
    def test_counts(self):
        assert len(enumerate_circles(3)) == 1
        assert len(enumerate_circles(4)) == 5
        assert len(enumerate_circles(6)) == 35

    def test_order(self):
        ids = enumerate_circles(4)
        assert ids[0] == CircleId("P3", (1, 2, 3))
        assert ids[-1] == CircleId("P4", (1, 2, 3, 4))

    def test_kind_support_validation(self):
        with pytest.raises(ValueError):
            CircleId("P3", (1, 2, 3, 4))
        with pytest.raises(ValueError):
            CircleId("P5", (1, 2, 3))

    # strands must be strictly increasing and >= 1, also when read from JSON
    @pytest.mark.parametrize(
        "kind, support", [("P3", (1, 1, 2)), ("P4", (0, 2, 2, 5)), ("P3", (0, 1, 2))]
    )
    def test_malformed_strands_are_refused(self, kind, support):
        with pytest.raises(ValueError):
            CircleId(kind, support)
        with pytest.raises(ValueError):
            CircleId.from_json_dict({"kind": kind, "support": list(support)})

    # strands are ints: strings, floats and bools are refused, also from
    # JSON, and so is a support that is no collection of strands
    @pytest.mark.parametrize(
        "support", [("a", "b", "c"), (1.0, 2.0, 3.0), (True, 2, 3), 5, None, "123"]
    )
    def test_strands_that_are_not_ints_are_refused(self, support):
        with pytest.raises(ValueError):
            CircleId("P3", support)
        listed = list(support) if isinstance(support, tuple) else support
        with pytest.raises(ValueError):
            CircleId.from_json_dict({"kind": "P3", "support": listed})

    # a badly shaped id is refused with ValueError too, not TypeError or KeyError
    @pytest.mark.parametrize(
        "data",
        [
            ["P3", [1, 2, 3]],  # not an object
            "P3",
            None,
            {"support": [1, 2, 3]},  # no kind
            {"kind": "P3"},  # no support
            {"kind": "P3", "support": 5},  # support not a list
            {"kind": "P3", "support": "123"},
            {"kind": "P3", "support": {"1": 2}},
            {"kind": ["P3"], "support": [1, 2, 3]},  # kind not a string
        ],
    )
    def test_badly_shaped_ids_are_refused(self, data):
        with pytest.raises(ValueError):
            CircleId.from_json_dict(data)

    def test_json_round_trip(self):
        for cid in enumerate_circles(6):
            assert CircleId.from_json_dict(json.loads(json.dumps(cid.to_json_dict()))) == cid


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=7), inner, max_size=3),
    max_leaves=6,
)
# valid ids, and ids near a valid one, so that most reach the checks of the
# kind and strands
VALID_IDS = st.sampled_from([("P3", 3), ("P4", 4)]).flatmap(
    lambda kind_size: st.fixed_dictionaries(
        {
            "kind": st.just(kind_size[0]),
            "support": st.lists(
                st.integers(1, 9), min_size=kind_size[1], max_size=kind_size[1], unique=True
            ).map(sorted),
        }
    )
)
NEAR_IDS = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(["P3", "P4", "P5", "p3", ""]) | JSON_VALUES,
        "support": st.lists(st.integers(-1, 9) | JSON_VALUES, max_size=5) | JSON_VALUES,
    }
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.one_of(VALID_IDS, NEAR_IDS, JSON_VALUES).map(lambda v: json.loads(json.dumps(v))))
@example({"kind": "P4", "support": [1, 2, 3, 4], "extra": None})
@example({"kind": "P3", "support": [[1], [2], [3]]})
@example({"kind": "P3", "support": [3, 2, 1]})
def test_any_json_value_is_an_id_or_a_value_error(value):
    try:
        cid = CircleId.from_json_dict(value)
    except ValueError:
        return
    assert type(cid) is CircleId
    assert CircleId.from_json_dict(cid.to_json_dict()) == cid


class TestP3Membership:
    def test_equatorial(self):
        chi = sparse(3, {(1, 2): 1, (1, 3): 1, (2, 3): -2})
        assert on_circle(chi, CircleId("P3", (1, 2, 3)))

    def test_support_escapes(self, chi0):
        assert not on_circle(chi0, CircleId("P3", (1, 2, 3)))

    def test_embedded_triple(self):
        chi = sparse(5, {(2, 4): 5, (2, 5): -5})
        assert on_circle(chi, CircleId("P3", (2, 4, 5)))

    def test_zero_character(self):
        with pytest.raises(ZeroCharacterError):
            on_circle(zero_character(3), CircleId("P3", (1, 2, 3)))


class TestP4Membership:
    def test_matching_point(self):
        chi = dense(
            4, {(1, 2): 1, (3, 4): 1, (1, 3): 2, (2, 4): 2, (1, 4): -3, (2, 3): -3}
        )
        assert on_circle(chi, CircleId("P4", (1, 2, 3, 4)))

    def test_broken_matching(self):
        chi = dense(
            4, {(1, 2): 1, (3, 4): 1, (1, 3): 2, (2, 4): 2, (1, 4): -3, (2, 3): -2}
        )
        assert not on_circle(chi, CircleId("P4", (1, 2, 3, 4)))

    def test_rho_pullbacks_land_on_circle(self):
        rng = random.Random(23)
        cid = CircleId("P4", (1, 2, 3, 4))
        done = 0
        while done < 100:
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            b = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            psi = sparse(3, {(1, 2): a, (1, 3): b, (2, 3): -a - b})
            if psi.is_zero():
                continue
            assert delta_value(psi) == 0
            assert on_circle(pullback_rho(psi), cid)
            done += 1


class TestLocate:
    def test_p3(self):
        chi = sparse(3, {(1, 2): 1, (1, 3): 1, (2, 3): -2})
        assert locate_circle(chi) == CircleId("P3", (1, 2, 3))

    def test_p4(self):
        chi = dense(
            4, {(1, 2): 1, (3, 4): 1, (1, 3): 2, (2, 4): 2, (1, 4): -3, (2, 3): -3}
        )
        assert locate_circle(chi) == CircleId("P4", (1, 2, 3, 4))

    def test_nonzero_delta_misses_all(self, chi0):
        assert delta_value(chi0) != 0
        assert locate_circle(chi0) is None


class TestSample:
    def test_p3_formula(self):
        chi = sample_circle(CircleId("P3", (1, 2, 3)), (1, 1), 3)
        assert [chi.weight(1, 2), chi.weight(1, 3), chi.weight(2, 3)] == [1, 1, -2]

    def test_p4_formula(self):
        chi = sample_circle(CircleId("P4", (1, 2, 3, 4)), (1, 2), 4)
        assert chi.weight(1, 2) == chi.weight(3, 4) == 1
        assert chi.weight(1, 3) == chi.weight(2, 4) == 2
        assert chi.weight(1, 4) == chi.weight(2, 3) == -3

    def test_embedded_p3(self):
        chi = sample_circle(CircleId("P3", (2, 4, 5)), (5, 0), 5)
        assert chi.weight(2, 4) == 5
        assert chi.weight(2, 5) == 0
        assert chi.weight(4, 5) == -5

    def test_degenerate_parameters(self):
        with pytest.raises(ZeroCharacterError):
            sample_circle(CircleId("P3", (1, 2, 3)), (0, 0), 3)

    def test_samples_lie_on_their_circle(self):
        rng = random.Random(29)
        for n in (4, 5, 6):
            for cid in enumerate_circles(n):
                for _ in range(5):
                    t = (rng.randint(-5, 5), rng.randint(-5, 5))
                    if t == (0, 0):
                        t = (1, 0)
                    assert on_circle(sample_circle(cid, t, n), cid)


class TestCircleGeometry:
    def test_disjointness_on_samples(self):
        # no sample of one circle lies on a different circle
        rng = random.Random(31)
        for n in (4, 5, 6):
            circles = enumerate_circles(n)
            for cid in circles:
                for _ in range(50):
                    t = (rng.randint(-4, 4), rng.randint(-4, 4))
                    if t == (0, 0):
                        t = (1, 1)
                    chi = sample_circle(cid, t, n)
                    for other in circles:
                        if other != cid:
                            assert not on_circle(chi, other)

    def test_dilation_invariance(self):
        rng = random.Random(37)
        for _ in range(50):
            chi = random_character(5, rng)
            if chi.is_zero():
                continue
            scaled = scale(chi, Fraction(7, 3))
            for cid in enumerate_circles(5):
                assert on_circle(chi, cid) == on_circle(scaled, cid)

    def test_permutation_equivariance(self):
        rng = random.Random(41)
        for _ in range(50):
            chi = random_character(5, rng)
            if chi.is_zero():
                continue
            perm = random_perm(5, rng)
            moved = permute(chi, perm)
            for cid in enumerate_circles(5):
                moved_id = CircleId(
                    cid.kind, tuple(sorted(perm[v - 1] for v in cid.support))
                )
                assert on_circle(chi, cid) == on_circle(moved, moved_id)

    def test_circle_points_kill_delta(self):
        rng = random.Random(43)
        for n in (4, 5):
            for cid in enumerate_circles(n):
                chi = sample_circle(cid, (rng.randint(1, 5), rng.randint(-5, 5)), n)
                assert delta_value(chi) == 0
