import random
from fractions import Fraction

import pytest

from braidsigma.characters import Character, all_edges


@pytest.fixture
def chi0() -> Character:
    """The running example on four strands: weights 3, 2, -4, -5, 0, 1."""
    return Character.dense(
        4, {(1, 2): 3, (1, 3): 2, (1, 4): -4, (2, 3): -5, (2, 4): 0, (3, 4): 1}
    )


def add_characters(a: Character, b: Character) -> Character:
    """Pointwise sum of two characters on the same strands."""
    return Character(a.n, {e: a.weights[e] + b.weights[e] for e in a.weights})


def random_character(
    n: int, rng: random.Random, span: int = 6, max_denom: int = 4
) -> Character:
    return Character(
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
