"""The word-engine identity suite of ``braidsigma verify``: the P_3
relation, the cyclic factorizations of a triple swing, the planar
presentation of P_4 (generators a..f, nine relations, and rho onto P_3),
and the recovery factorizations of the lemma table.  Only that command
imports this module.

The planar generators live at a different basepoint than the standard
one, so some of them are conjugates of standard pair generators: a, b,
c, d and f are the standard pair generators on {1,2}, {1,3}, {2,3},
{3,4} and {1,4}, and e is the one on {2,4} conjugated by sigma_2^2.
``verify_planar_presentation`` checks words against all nine relations
in the word engine, and ``verify_rho`` checks that identifying the
disjoint-edge pairs a,d; b,e; c,f sends every relation to one of P_3.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from .classify import Factorization
from .words import BraidWord, braid_aut, standard_pure_word, swing_word

# -- word-level commutation ------------------------------------------------

WORD_ENGINE_MAX_STRANDS = 6


class BudgetExceededError(ValueError):
    """Raised when a word-level operation exceeds the strand budget."""


def commute_wordlevel(u: BraidWord, v: BraidWord) -> bool:
    if u.n != v.n:
        raise ValueError("strand count mismatch")
    if u.n > WORD_ENGINE_MAX_STRANDS:
        raise BudgetExceededError(f"word engine capped at {WORD_ENGINE_MAX_STRANDS} strands")
    return braid_aut(u * v) == braid_aut(v * u)


# -- the P_3 identities ----------------------------------------------------


def _products_equal(words: Sequence[BraidWord]) -> bool:
    auts = [braid_aut(w) for w in words]
    return all(h == auts[0] for h in auts[1:])


def _cyclic_triple_words(i: int, j: int, k: int, n: int) -> list[BraidWord]:
    p, q, r = (
        standard_pure_word(i, j, n),
        standard_pure_word(i, k, n),
        standard_pure_word(j, k, n),
    )
    return [p * q * r, q * r * p, r * p * q]


def verify_p3_relation() -> bool:
    """abc = bca = cab for a=S12, b=S13, c=S23 in P_3, and the product is
    central (commutes with a and b)."""
    a = standard_pure_word(1, 2, 3)
    b = standard_pure_word(1, 3, 3)
    c = standard_pure_word(2, 3, 3)
    if not _products_equal([a * b * c, b * c * a, c * a * b]):
        return False
    delta = a * b * c
    return commute_wordlevel(delta, a) and commute_wordlevel(delta, b)


def verify_swing_factorizations() -> bool:
    """The three cyclic pair factorizations of a triple swing coincide, for
    every contiguous triple with up to 5 strands."""
    for n in (3, 4, 5):
        for i in range(1, n - 1):
            if not _products_equal(_cyclic_triple_words(i, i + 1, i + 2, n)):
                return False
    return True


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


def _eval_letters(words: Mapping[str, BraidWord], letters: str, n: int) -> BraidWord:
    out = BraidWord(n, ())
    for ch in letters:
        out = out * words[ch]
    return out


def verify_planar_presentation(words: Mapping[str, BraidWord]) -> dict[str, bool]:
    """Check candidate words for the planar generators a..f of P_4 against
    all nine planar relations; returns a per-relation report."""
    report = {}
    for name, lhs, rhs in PLANAR_RELATIONS:
        report[name] = braid_aut(_eval_letters(words, lhs, 4)) == braid_aut(
            _eval_letters(words, rhs, 4)
        )
    return report


def verify_rho() -> bool:
    """Substituting the disjoint-edge identification a,d -> a; b,e -> b;
    c,f -> c into every planar relation yields an identity of P_3."""
    p3_words = {
        "a": standard_pure_word(1, 2, 3),
        "b": standard_pure_word(1, 3, 3),
        "c": standard_pure_word(2, 3, 3),
    }
    for _, lhs, rhs in PLANAR_RELATIONS:
        lhs_img = "".join(RHO_IMAGE[ch] for ch in lhs)
        rhs_img = "".join(RHO_IMAGE[ch] for ch in rhs)
        if braid_aut(_eval_letters(p3_words, lhs_img, 3)) != braid_aut(
            _eval_letters(p3_words, rhs_img, 3)
        ):
            return False
    return True


# -- the recovery factorizations -------------------------------------------


def factorization_holds(fact: Factorization, n: int) -> bool:
    """Does the swing on ``fact.added`` equal the product of the swings on
    its factors in P_n, in every cyclic rotation of the product?  Checking
    each rotation keeps the identity from holding merely by the definition
    of the swing word."""
    target = braid_aut(swing_word(fact.added, n))
    factors = list(fact.factors)
    for shift in range(len(factors)):
        rotated = factors[shift:] + factors[:shift]
        prod = swing_word(rotated[0], n)
        for f in rotated[1:]:
            prod = prod * swing_word(f, n)
        if braid_aut(prod) != target:
            return False
    return True
