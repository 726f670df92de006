import random
from itertools import combinations

import pytest

from braidsigma import words
from braidsigma.characters import InternalError
from braidsigma.words import (
    BraidWord,
    artin_sigma,
    braid_aut,
    invert_word,
    standard_pure_word,
    swing_word,
)
from braidsigma.planar import (
    BudgetExceededError,
    commute_wordlevel,
    verify_p3_relation,
    verify_rho,
    verify_swing_factorizations,
)
from braidsigma.witness import commutes_predicate
from conftest import braid_perm, is_pure


def full_twist_word(lo: int, hi: int, n: int) -> BraidWord:
    """Full twist on the contiguous strand block lo..hi:
    (sigma_lo ... sigma_{hi-1})^(hi-lo+1)."""
    if not 1 <= lo < hi <= n:
        raise ValueError(f"bad block {lo}..{hi} for n={n}")
    period = tuple(range(lo, hi))
    return BraidWord(n, period * (hi - lo + 1))


def identity(n: int):
    return tuple((k,) for k in range(1, n + 1))


def random_word(n: int, rng: random.Random, max_len: int = 12) -> BraidWord:
    letters = [k for i in range(1, n) for k in (i, -i)]
    return BraidWord(n, tuple(rng.choice(letters) for _ in range(rng.randint(0, max_len))))


def is_reduced(w) -> bool:
    return all(x != -y for x, y in zip(w, w[1:]))


class TestArtinAction:
    def test_sigma1_images(self):
        assert artin_sigma(1, 2) == ((1, 2, -1), (1,))
        assert artin_sigma(-1, 2) == ((2,), (-2, 1, 2))
        assert artin_sigma(2, 4) == ((1,), (2, 3, -2), (2,), (4,))

    def test_inverse_cancels(self):
        for x in (1, -1, 2, -2):
            assert braid_aut(BraidWord(3, (x, -x))) == identity(3)

    def test_braid_relation(self):
        assert braid_aut(BraidWord(3, (1, 2, 1))) == braid_aut(BraidWord(3, (2, 1, 2)))

    def test_artin_relations_up_to_six_strands(self):
        for n in range(2, 7):
            for i, j in combinations(range(1, n), 2):
                if j - i >= 2:
                    assert braid_aut(BraidWord(n, (i, j))) == braid_aut(BraidWord(n, (j, i)))
            for i in range(1, n - 1):
                assert braid_aut(BraidWord(n, (i, i + 1, i))) == braid_aut(
                    BraidWord(n, (i + 1, i, i + 1))
                )

    def test_compose_identity(self):
        # the empty word acts as the identity on either side of a product
        w = standard_pure_word(1, 3, 4)
        empty = BraidWord(4, ())
        assert braid_aut(empty) == identity(4)
        assert braid_aut(w * empty) == braid_aut(empty * w) == braid_aut(w)

    def test_distinct_generators_differ(self):
        assert artin_sigma(1, 3) != artin_sigma(2, 3)
        assert artin_sigma(1, 3) != artin_sigma(-1, 3)

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            BraidWord(2, (1,)) * BraidWord(3, (1,))
        with pytest.raises(ValueError):
            artin_sigma(3, 3)

    def test_inverse_images_verified(self, monkeypatch):
        # a sigma_i^-1 table that does not undo sigma_i is the package's
        # fault, found once per letter under the cache
        tables = words._sigma_tables

        def identity_for_inverse(i, n):
            return tables(i, n)[0], identity(n)

        monkeypatch.setattr(words, "_sigma_tables", identity_for_inverse)
        artin_sigma.cache_clear()
        try:
            for x in (1, -1, 2):
                with pytest.raises(InternalError, match="does not invert"):
                    artin_sigma(x, 3)
        finally:
            artin_sigma.cache_clear()

    def test_random_braid_invertible(self):
        rng = random.Random(83)
        for _ in range(40):
            w = random_word(rng.randint(2, 6), rng)
            assert braid_aut(w * w.inverse()) == braid_aut(w.inverse() * w) == identity(w.n)

    def test_images_are_reduced(self):
        rng = random.Random(89)
        for _ in range(60):
            images = braid_aut(random_word(rng.randint(2, 6), rng, max_len=16))
            assert all(image and is_reduced(image) for image in images)


class TestStandardPureWords:
    def test_a12(self):
        assert standard_pure_word(1, 2, 2).letters == (1, 1)

    def test_a13(self):
        assert standard_pure_word(1, 3, 3).letters == (2, 1, 1, -2)

    def test_all_pure(self):
        for n in range(2, 7):
            for i, j in combinations(range(1, n + 1), 2):
                assert is_pure(standard_pure_word(i, j, n))

    def test_sigma_not_pure(self):
        assert braid_perm(BraidWord(3, (1,))) == (2, 1, 3)


class TestCommutesPredicate:
    def test_arc_separated(self):
        assert commutes_predicate((2, 3), (1, 4, 5))

    def test_nested(self):
        assert commutes_predicate((1, 4), (1, 4, 5))

    def test_crossing_chords(self):
        assert not commutes_predicate((6, 8), (7, 9))

    def test_overlapping_not_nested(self):
        assert not commutes_predicate((1, 2), (2, 3))

    def test_symmetric(self):
        rng = random.Random(89)
        for _ in range(100):
            a = tuple(sorted(rng.sample(range(1, 10), rng.randint(2, 4))))
            b = tuple(sorted(rng.sample(range(1, 10), rng.randint(2, 4))))
            assert commutes_predicate(a, b) == commutes_predicate(b, a)


class TestWordLevelCommutation:
    def test_disjoint_intervals(self):
        assert commute_wordlevel(
            standard_pure_word(1, 2, 4), standard_pure_word(3, 4, 4)
        )

    def test_crossing(self):
        assert not commute_wordlevel(
            standard_pure_word(1, 3, 4), standard_pure_word(2, 4, 4)
        )

    def test_matches_predicate_exhaustively(self):
        for n in range(2, 7):
            pairs = list(combinations(range(1, n + 1), 2))
            for p, q in combinations(pairs, 2):
                word_level = commute_wordlevel(
                    standard_pure_word(*p, n), standard_pure_word(*q, n)
                )
                assert word_level == commutes_predicate(p, q), (n, p, q)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            commute_wordlevel(
                standard_pure_word(1, 2, 7), standard_pure_word(3, 4, 7)
            )


class TestIdentitySuite:
    def test_p3_relation(self):
        assert verify_p3_relation()

    def test_swing_factorizations(self):
        assert verify_swing_factorizations()

    def test_rho(self):
        assert verify_rho()

    def test_triple_rotations_any_indices(self):
        # the cyclic factorization identities hold for non-contiguous triples
        for n in (4, 5):
            for i, j, k in combinations(range(1, n + 1), 3):
                p = standard_pure_word(i, j, n)
                q = standard_pure_word(i, k, n)
                r = standard_pure_word(j, k, n)
                ref = braid_aut(p * q * r)
                assert ref == braid_aut(q * r * p) == braid_aut(r * p * q)

    def test_swing_word_matches_full_twist_on_blocks(self):
        for n in (3, 4, 5):
            for lo in range(1, n):
                for hi in range(lo + 1, n + 1):
                    assert braid_aut(full_twist_word(lo, hi, n)) == braid_aut(
                        swing_word(range(lo, hi + 1), n)
                    )

    def test_full_twist_is_central(self):
        for n in (3, 4):
            delta = full_twist_word(1, n, n)
            for i, j in combinations(range(1, n + 1), 2):
                assert commute_wordlevel(delta, standard_pure_word(i, j, n))

