"""The word-engine identity suite of ``braidsigma verify``: the P_3
relation, the cyclic factorizations of a triple swing, the planar
presentation of P_4 (generators a..f, nine relations, and rho onto P_3),
and the recovery factorizations of the lemma table.  Only that command
imports this module.

Each identity is stated once.  ``factorization_holds`` is the one
statement that a swing is the product of its factors' swings in every
cyclic order: the triple swing factorizations and the P_3 relation
abc = bca = cab are its records for a triple t, whose factors are t's
three pairs and which recovers t's first pair.

The planar generators live at a different basepoint than the standard
one, so some of them are conjugates of standard pair generators: a, b,
c, d and f are the standard pair generators on {1,2}, {1,3}, {2,3},
{3,4} and {1,4}, and e is the one on {2,4} conjugated by sigma_2^2.
``verify_planar_presentation`` is the one relation check: it checks
words against all nine relations in P_n for the n of the words.
``verify_rho`` is that check on the P_3 words that identifying the
disjoint-edge pairs a,d; b,e; c,f assigns to a..f.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import reduce
from itertools import combinations
from operator import mul

from .classify import Factorization
from .words import BraidWord, braid_aut, standard_pure_word, swing_word

# -- word-level commutation ------------------------------------------------


def commute_wordlevel(u: BraidWord, v: BraidWord) -> bool:
    return braid_aut(u * v) == braid_aut(v * u)


# -- the P_3 identities ----------------------------------------------------


def _triple_holds(t: tuple[int, int, int], n: int) -> bool:
    """The swing on the triple t is the product of its three pairs in
    every cyclic order, in P_n."""
    return factorization_holds(Factorization(t, tuple(combinations(t, 2)), t[:2]), n)


def verify_p3_relation() -> bool:
    """abc = bca = cab for a=S12, b=S13, c=S23 in P_3, and the product is
    central (commutes with a and b)."""
    delta = swing_word((1, 2, 3), 3)
    return _triple_holds((1, 2, 3), 3) and all(
        commute_wordlevel(delta, standard_pure_word(1, j, 3)) for j in (2, 3)
    )


def verify_swing_factorizations() -> bool:
    """The three cyclic pair factorizations of a triple swing coincide, for
    every contiguous triple with up to 5 strands."""
    return all(_triple_holds((i, i + 1, i + 2), n) for n in (3, 4, 5) for i in range(1, n - 1))


# -- the planar presentation of P_4 ----------------------------------------

PLANAR_RELATIONS: list[tuple[str, str, str]] = [
    ("abc=bca", "abc", "bca"),
    ("bca=cab", "bca", "cab"),
    ("ad=da", "ad", "da"),
    ("cde=dec", "cde", "dec"),
    ("dec=ecd", "dec", "ecd"),
    ("be=eb", "be", "eb"),
    ("bfd=fdb", "bfd", "fdb"),
    ("fdb=dbf", "fdb", "dbf"),
    ("cf=fc", "cf", "fc"),
]

RHO_IMAGE = {"a": "a", "d": "a", "b": "b", "e": "b", "c": "c", "f": "c"}


def planar_words() -> dict[str, BraidWord]:
    """Artin words for the planar generators a..f (module docstring)."""
    a, b, c, d, f = (
        standard_pure_word(i, j, 4) for i, j in ((1, 2), (1, 3), (2, 3), (3, 4), (1, 4))
    )
    sigma2_squared = BraidWord(4, (2, 2))
    e = sigma2_squared * standard_pure_word(2, 4, 4) * sigma2_squared.inverse()
    return {"a": a, "b": b, "c": c, "d": d, "e": e, "f": f}


def _eval_letters(words: Mapping[str, BraidWord], letters: str) -> BraidWord:
    return reduce(mul, [words[ch] for ch in letters])


def verify_planar_presentation(words: Mapping[str, BraidWord]) -> dict[str, bool]:
    """Check candidate words for the planar generators a..f against all
    nine planar relations, in P_n for the n of the words; returns a
    per-relation report."""
    return {
        name: braid_aut(_eval_letters(words, lhs)) == braid_aut(_eval_letters(words, rhs))
        for name, lhs, rhs in PLANAR_RELATIONS
    }


def verify_rho() -> bool:
    """The P_3 words that the disjoint-edge identification a,d -> a;
    b,e -> b; c,f -> c assigns to a..f, with a=S12, b=S13, c=S23, satisfy
    every planar relation."""
    p3 = {x: standard_pure_word(*p, 3) for x, p in zip("abc", combinations((1, 2, 3), 2))}
    return all(verify_planar_presentation({x: p3[y] for x, y in RHO_IMAGE.items()}).values())


# -- the recovery factorizations -------------------------------------------


def factorization_holds(fact: Factorization, n: int) -> bool:
    """Does the swing on ``fact.added`` equal the product of the swings on
    its factors in P_n, in every cyclic rotation of the product?  Checking
    each rotation keeps the identity from holding merely by the definition
    of the swing word."""
    target = braid_aut(swing_word(fact.added, n))
    words = [swing_word(f, n) for f in fact.factors]
    return all(
        braid_aut(reduce(mul, words[k:] + words[:k])) == target for k in range(len(words))
    )
