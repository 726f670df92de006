"""Word-level ground truth via the Artin representation.

Braid words act faithfully on a free group F_n, so a braid is fixed by
the reduced images of the basis letters x_1..x_n, and two braid words are
equal exactly when their tuples of images are equal (``==``).  This module
supplies the braid words of the pure and swing generators; the identities
that ``braidsigma verify`` checks, of P_3, of the planar presentation of
P_4 and of the recovery factorizations, are in ``planar``.

Convention: products act left-to-right, so the images of a concatenated
word uv are those of u with each letter replaced by its image under v.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache

from .characters import InternalError
from .record import Record

Word = tuple[int, ...]


# -- free words ------------------------------------------------------------


def invert_word(w: Word) -> Word:
    return tuple(-x for x in reversed(w))


# -- the Artin action ------------------------------------------------------

# The reduced images of x_1..x_n under a braid.
Images = tuple[Word, ...]


def _apply_images(images: Images, word: Iterable[int]) -> Word:
    """The reduced word of ``word`` with each letter replaced by its image."""
    out: list[int] = []
    for x in word:
        img = images[x - 1] if x > 0 else invert_word(images[-x - 1])
        for y in img:
            if out and out[-1] == -y:
                out.pop()
            else:
                out.append(y)
    return tuple(out)


def _sigma_tables(i: int, n: int) -> tuple[Images, Images]:
    """The images of x_1..x_n under sigma_i, x_i -> x_i x_{i+1} x_i^-1 and
    x_{i+1} -> x_i, and under sigma_i^-1, x_i -> x_{i+1} and
    x_{i+1} -> x_{i+1}^-1 x_i x_{i+1}; every other letter is fixed."""
    sigma = [(k,) for k in range(1, n + 1)]
    inverse = sigma[:]
    sigma[i - 1 : i + 1] = (i, i + 1, -i), (i,)
    inverse[i - 1 : i + 1] = (i + 1,), (-(i + 1), i, i + 1)
    return tuple(sigma), tuple(inverse)


@lru_cache(maxsize=None)
def artin_sigma(x: int, n: int) -> Images:
    """The Artin action on F_n of the signed letter x: sigma_x when x > 0,
    sigma_{-x}^-1 when x < 0.  Under the cache, each letter checks once that
    the other table undoes it; one that does not is an ``InternalError``."""
    i = abs(x)
    if not 1 <= i < n:
        raise ValueError(f"need 1 <= |x| < n, got x={x}, n={n}")
    images, undo = _sigma_tables(i, n)
    if x < 0:
        images, undo = undo, images
    for k, image in enumerate(images, 1):
        if _apply_images(undo, image) != (k,):
            raise InternalError(f"the sigma_{i}^-1 table does not invert sigma_{i} at x_{k}, n={n}")
    return images


# -- braid words -----------------------------------------------------------


class BraidWord(Record):
    """Word in the Artin generators sigma_1..sigma_{n-1}; letter k stands
    for sigma_k and -k for its inverse."""

    def __init__(self, n: int, letters: Word) -> None:
        d = self.__dict__
        d["n"] = n
        d["letters"] = letters
        for x in letters:
            if not 1 <= abs(x) <= n - 1:
                raise ValueError(f"letter {x} out of range for {n} strands")

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.n != other.n:
            raise ValueError("strand count mismatch")
        return BraidWord(self.n, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.n, invert_word(self.letters))


def braid_aut(w: BraidWord) -> Images:
    """The images of x_1..x_n under the braid of w, substituted letter by
    letter."""
    images = tuple((k,) for k in range(1, w.n + 1))
    for x in w.letters:
        sigma = artin_sigma(x, w.n)
        images = tuple(_apply_images(sigma, image) for image in images)
    return images


def standard_pure_word(i: int, j: int, n: int) -> BraidWord:
    """The standard pure generator for the pair {i, j}:
    (sigma_{j-1} ... sigma_{i+1}) sigma_i^2 (sigma_{i+1}^-1 ... sigma_{j-1}^-1)."""
    if not 1 <= i < j <= n:
        raise ValueError(f"need 1 <= i < j <= n, got ({i}, {j}), n={n}")
    prefix = list(range(j - 1, i, -1))
    letters = prefix + [i, i] + [-k for k in reversed(prefix)]
    return BraidWord(n, tuple(letters))


def swing_word(a: Iterable[int], n: int) -> BraidWord:
    """Word realizing the swing generator on the index set, via the layered
    pair factorization: for a = {a_1 < ... < a_k} take the product of the
    standard pair generators A_{a_i a_j} grouped by increasing j, then i."""
    aset = tuple(sorted(a))
    word = BraidWord(n, ())
    for j in range(1, len(aset)):
        for i in range(j):
            word = word * standard_pure_word(aset[i], aset[j], n)
    return word
