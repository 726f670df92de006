"""The planar presentation of P_4: generators a..f, nine relations, and
rho onto P_3.

The planar generators live at a different basepoint than the standard
one, so some of them are conjugates of standard pair generators: a, b,
c, d and f are the standard pair generators on {1,2}, {1,3}, {2,3},
{3,4} and {1,4}, and e is the one on {2,4} conjugated by sigma_2^2.
``verify_planar_presentation`` checks words against all nine relations
in the word engine, and ``verify_rho`` checks that identifying the
disjoint-edge pairs a,d; b,e; c,f sends every relation to one of P_3.
"""

from __future__ import annotations

from typing import Mapping

from .words import BraidWord, braid_aut, standard_pure_word

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
