import random
from itertools import combinations

import pytest

from braidsigma.words import (
    BraidWord,
    BudgetExceededError,
    artin_sigma,
    aut_equal,
    braid_aut,
    braid_perm,
    commute_wordlevel,
    commutes_predicate,
    compose,
    identity_aut,
    invert_word,
    is_pure,
    standard_pure_word,
    swing_word,
    verify_p3_relation,
    verify_swing_factorizations,
)
from braidsigma.planar import verify_rho


def full_twist_word(lo: int, hi: int, n: int) -> BraidWord:
    """Full twist on the contiguous strand block lo..hi:
    (sigma_lo ... sigma_{hi-1})^(hi-lo+1)."""
    if not 1 <= lo < hi <= n:
        raise ValueError(f"bad block {lo}..{hi} for n={n}")
    period = tuple(range(lo, hi))
    return BraidWord(n, period * (hi - lo + 1))


class TestArtinAction:
    def test_sigma1_images(self):
        s1 = artin_sigma(1, 2)
        assert s1.images == ((1, 2, -1), (1,))

    def test_inverse_cancels(self):
        s1 = artin_sigma(1, 3)
        assert aut_equal(compose(s1, artin_sigma(1, 3, inverse=True)), identity_aut(3))

    def test_braid_relation(self):
        s1, s2 = artin_sigma(1, 3), artin_sigma(2, 3)
        assert aut_equal(
            compose(compose(s1, s2), s1), compose(compose(s2, s1), s2)
        )

    def test_artin_relations_up_to_six_strands(self):
        for n in range(2, 7):
            gens = [artin_sigma(i, n) for i in range(1, n)]
            for i, j in combinations(range(len(gens)), 2):
                if j - i >= 2:
                    assert aut_equal(
                        compose(gens[i], gens[j]), compose(gens[j], gens[i])
                    )
            for i in range(len(gens) - 1):
                assert aut_equal(
                    compose(compose(gens[i], gens[i + 1]), gens[i]),
                    compose(compose(gens[i + 1], gens[i]), gens[i + 1]),
                )

    def test_compose_identity(self):
        f = braid_aut(standard_pure_word(1, 3, 4))
        assert aut_equal(compose(f, identity_aut(4)), f)

    def test_distinct_generators_differ(self):
        assert not aut_equal(artin_sigma(1, 3), artin_sigma(2, 3))

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            compose(artin_sigma(1, 2), artin_sigma(1, 3))

    def test_inverse_images_verified(self):
        from braidsigma.words import FreeGroupAut

        with pytest.raises(ValueError):
            FreeGroupAut(2, ((1,), (2,)), ((2,), (1,)))

    def test_random_braid_invertible(self):
        rng = random.Random(83)
        for _ in range(20):
            n = rng.randint(2, 5)
            w = BraidWord(
                n,
                tuple(
                    rng.choice([k for i in range(1, n) for k in (i, -i)])
                    for _ in range(rng.randint(0, 12))
                ),
            )
            f = braid_aut(w)
            assert aut_equal(compose(f, f.inverse()), identity_aut(n))


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
                assert aut_equal(ref, braid_aut(q * r * p))
                assert aut_equal(ref, braid_aut(r * p * q))

    def test_swing_word_matches_full_twist_on_blocks(self):
        for n in (3, 4, 5):
            for lo in range(1, n):
                for hi in range(lo + 1, n + 1):
                    assert aut_equal(
                        braid_aut(full_twist_word(lo, hi, n)),
                        braid_aut(swing_word(range(lo, hi + 1), n)),
                    )

    def test_full_twist_is_central(self):
        for n in (3, 4):
            delta = full_twist_word(1, n, n)
            for i, j in combinations(range(1, n + 1), 2):
                assert commute_wordlevel(delta, standard_pure_word(i, j, n))

