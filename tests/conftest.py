import random
from fractions import Fraction

import pytest

from braidsigma.characters import (
    Character,
    CharacterFormatError,
    ZeroCharacterError,
    all_edges,
    edge,
    swing_set,
)
from braidsigma.circles import P3, CircleId, matchings_of

# -- building characters -------------------------------------------------------
#
# The package builds characters from JSON and from a support; tests also
# build them from weight mappings, which these helpers read exactly.


def exact_value(v, what: str) -> Fraction:
    """``v`` as a Fraction; a float or a bool, which is not an exact
    rational, is refused rather than read as its binary value."""
    if isinstance(v, (float, bool)):
        raise CharacterFormatError(f"{what} is {v!r}, not an int, a Fraction or a string")
    return Fraction(v)


def exact_values(weights) -> dict:
    """Each pair as (min, max), mapped to its exact value; two keys that
    name one pair, such as (1, 2) and (2, 1), are refused."""
    out = {}
    for (i, j), v in weights.items():
        e = edge(i, j)
        if e in out:
            raise CharacterFormatError(f"duplicate weight key {(i, j)}")
        out[e] = exact_value(v, f"weight of pair {(i, j)}")
    return out


def dense(n: int, weights) -> Character:
    """Build from a total pair -> value mapping (every pair required)."""
    w = exact_values(weights)
    expected = set(all_edges(n))
    if w.keys() != expected:
        missing = sorted(expected - w.keys())
        extra = sorted(w.keys() - expected)
        raise CharacterFormatError(
            f"weights must cover exactly the pairs of 1..{n}; missing={missing} extra={extra}"
        )
    return Character(n, {e: v for e, v in w.items() if v})


def sparse(n: int, weights) -> Character:
    """Build from a partial mapping; unspecified pairs get weight 0."""
    return Character(n, {e: v for e, v in exact_values(weights).items() if v})


def zero_character(n: int) -> Character:
    return Character(n, {})


def scale(chi: Character, q) -> Character:
    q = exact_value(q, "scale factor")
    return Character(chi.n, {e: q * v for e, v in chi.support.items()} if q else {})


def character_to_json_dict(chi: Character) -> dict:
    return {
        "n": chi.n,
        "weights": {f"{i}-{j}": str(chi.weight(i, j)) for i, j in all_edges(chi.n)},
    }


def sample_circle(cid: CircleId, t, n: int) -> Character:
    """A point on the circle with parameters (t1, t2, -t1-t2) spread over the
    support edges (P3) or the three perfect matchings (P4)."""
    t1, t2 = Fraction(t[0]), Fraction(t[1])
    if t1 == 0 and t2 == 0:
        raise ZeroCharacterError("parameters (0, 0) give the zero character")
    if cid.support[-1] > n:
        raise ValueError(f"circle support {cid.support} out of range for n={n}")
    values = (t1, t2, -t1 - t2)
    if cid.kind == P3:
        i, j, k = cid.support
        return sparse(n, {(i, j): values[0], (i, k): values[1], (j, k): values[2]})
    weights = {}
    for (e1, e2), v in zip(matchings_of(cid.support), values):
        weights[e1] = v
        weights[e2] = v
    return sparse(n, weights)


# -- fixtures and random characters ---------------------------------------------


@pytest.fixture
def chi0() -> Character:
    """The running example on four strands: weights 3, 2, -4, -5, 0, 1."""
    return dense(
        4, {(1, 2): 3, (1, 3): 2, (1, 4): -4, (2, 3): -5, (2, 4): 0, (3, 4): 1}
    )


def add_characters(a: Character, b: Character) -> Character:
    """Pointwise sum of two characters on the same strands."""
    return dense(a.n, {e: a.weight(*e) + b.weight(*e) for e in all_edges(a.n)})


def random_character(
    n: int, rng: random.Random, span: int = 6, max_denom: int = 4
) -> Character:
    return dense(
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
    return sparse(
        n, {(aset[r - 1], aset[s - 1]): v for (r, s), v in psi.support.items()}
    )


def pullback_rho(psi: Character) -> Character:
    """Pull back a character on P_3 along the map P_4 ->> P_3 that identifies
    the planar generators on disjoint K_4 edges: w12=w34=psi(S12),
    w13=w24=psi(S13), w14=w23=psi(S23)."""
    if psi.n != 3:
        raise ValueError(f"pullback_rho needs a character on P_3, got n={psi.n}")
    p12, p13, p23 = psi.weight(1, 2), psi.weight(1, 3), psi.weight(2, 3)
    return dense(
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
