import random
from fractions import Fraction

import pytest

from braidsigma.characters import Character, all_edges, swing_set


@pytest.fixture
def chi0() -> Character:
    """The running example on four strands: weights 3, 2, -4, -5, 0, 1."""
    return Character.dense(
        4, {(1, 2): 3, (1, 3): 2, (1, 4): -4, (2, 3): -5, (2, 4): 0, (3, 4): 1}
    )


def add_characters(a: Character, b: Character) -> Character:
    """Pointwise sum of two characters on the same strands."""
    return Character.dense(a.n, {e: a.weight(*e) + b.weight(*e) for e in all_edges(a.n)})


def random_character(
    n: int, rng: random.Random, span: int = 6, max_denom: int = 4
) -> Character:
    return Character.dense(
        n,
        {
            e: Fraction(rng.randint(-span, span), rng.randint(1, max_denom))
            for e in all_edges(n)
        },
    )


def random_nonzero_character(n: int, rng: random.Random, **kw) -> Character:
    while True:
        chi = random_character(n, rng, **kw)
        if not chi.is_zero():
            return chi


def random_perm(n: int, rng: random.Random) -> tuple[int, ...]:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return tuple(perm)


def pullback_phi(psi: Character, a, n: int) -> Character:
    """Pull back along the strand-forgetting projection onto the positions in
    ``a``: the weight on {a_r, a_s} is psi's weight on {r, s}; pairs with an
    endpoint outside ``a`` get zero."""
    aset = swing_set(a, n)
    if len(aset) != psi.n:
        raise ValueError(
            f"swing set size {len(aset)} does not match character on {psi.n} strands"
        )
    return Character.sparse(
        n, {(aset[r - 1], aset[s - 1]): v for (r, s), v in psi.support.items()}
    )


def pullback_rho(psi: Character) -> Character:
    """Pull back a character on P_3 along the map P_4 ->> P_3 that identifies
    the planar generators on disjoint K_4 edges: w12=w34=psi(S12),
    w13=w24=psi(S13), w14=w23=psi(S23)."""
    if psi.n != 3:
        raise ValueError(f"pullback_rho needs a character on P_3, got n={psi.n}")
    p12, p13, p23 = psi.weight(1, 2), psi.weight(1, 3), psi.weight(2, 3)
    return Character.dense(
        4,
        {
            (1, 2): p12,
            (3, 4): p12,
            (1, 3): p13,
            (2, 4): p13,
            (1, 4): p23,
            (2, 3): p23,
        },
    )


def braid_perm(w) -> tuple[int, ...]:
    """Strand permutation of a braid word (image of each strand position)."""
    perm = list(range(1, w.n + 1))
    for x in w.letters:
        i = abs(x)
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return tuple(perm)


def is_pure(w) -> bool:
    return braid_perm(w) == tuple(range(1, w.n + 1))
