import random
from fractions import Fraction

import pytest

from braidsigma.characters import (
    Character,
    ZeroCharacterError,
    delta_value,
    permute,
    pullback_rho,
)
from braidsigma.circles import (
    CircleId,
    enumerate_circles,
    locate_circle,
    on_circle,
    sample_circle,
)
from conftest import random_character, random_perm


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


class TestP3Membership:
    def test_equatorial(self):
        chi = Character.sparse(3, {(1, 2): 1, (1, 3): 1, (2, 3): -2})
        assert on_circle(chi, CircleId("P3", (1, 2, 3)))

    def test_support_escapes(self, chi0):
        assert not on_circle(chi0, CircleId("P3", (1, 2, 3)))

    def test_embedded_triple(self):
        chi = Character.sparse(5, {(2, 4): 5, (2, 5): -5})
        assert on_circle(chi, CircleId("P3", (2, 4, 5)))

    def test_zero_character(self):
        with pytest.raises(ZeroCharacterError):
            on_circle(Character.zero(3), CircleId("P3", (1, 2, 3)))


class TestP4Membership:
    def test_matching_point(self):
        chi = Character.dense(
            4, {(1, 2): 1, (3, 4): 1, (1, 3): 2, (2, 4): 2, (1, 4): -3, (2, 3): -3}
        )
        assert on_circle(chi, CircleId("P4", (1, 2, 3, 4)))

    def test_broken_matching(self):
        chi = Character.dense(
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
            psi = Character.sparse(3, {(1, 2): a, (1, 3): b, (2, 3): -a - b})
            if psi.is_zero():
                continue
            assert delta_value(psi) == 0
            assert on_circle(pullback_rho(psi), cid)
            done += 1


class TestLocate:
    def test_p3(self):
        chi = Character.sparse(3, {(1, 2): 1, (1, 3): 1, (2, 3): -2})
        assert locate_circle(chi) == CircleId("P3", (1, 2, 3))

    def test_p4(self):
        chi = Character.dense(
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
            scaled = chi.scale(Fraction(7, 3))
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
