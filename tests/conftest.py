import random
from fractions import Fraction
from itertools import combinations

import pytest

from braidsigma.characters import Character, CharacterFormatError, ZeroCharacterError, swing_set
from braidsigma.circles import P3, P4, CircleId, matchings_of
from braidsigma.witness import _split_members, dominates

# -- pairs, circles and changed copies ------------------------------------------


def edge(i: int, j: int) -> tuple[int, int]:
    """The unordered pair {i, j} as (min, max)."""
    if i == j:
        raise ValueError(f"edge endpoints must be distinct, got {{{i},{j}}}")
    return (i, j) if i < j else (j, i)


def all_edges(n: int) -> list[tuple[int, int]]:
    """The pairs i < j of 1..n in lexicographic order."""
    return list(combinations(range(1, n + 1), 2))


def enumerate_circles(n: int) -> list[CircleId]:
    """All complement circles for P_n: 3-sets first, then 4-sets, both in
    lexicographic order, as ``braidsigma circles`` prints them.  There are
    C(n,3) + C(n,4)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    strands = range(1, n + 1)
    return [CircleId(P3, t) for t in combinations(strands, 3)] + [
        CircleId(P4, q) for q in combinations(strands, 4)
    ]


def replaced(record, **changes):
    """A copy of ``record`` with the named fields changed, built and so
    checked again by its class's own constructor."""
    fields = {f: record.__dict__[f] for f in record._fields}
    return type(record)(**{**fields, **changes})

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
        "weights": {f"{i}-{j}": str(chi.support.get((i, j), 0)) for i, j in all_edges(chi.n)},
    }


def swing(chi: Character, a) -> Fraction:
    """The swing value on the strands ``a``, S_A's value: chi's weights
    summed over the pairs of ``a`` in plain Fractions, as an oracle that
    shares no code with the package's sums."""
    pairs = combinations(sorted(a), 2)
    return sum((chi.support.get(e, Fraction(0)) for e in pairs), Fraction(0))


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
    return dense(a.n, {e: a.support.get(e, 0) + b.support.get(e, 0) for e in all_edges(a.n)})


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
        if chi.support:
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
    p12, p13, p23 = (psi.support.get(e, 0) for e in all_edges(3))
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


def undominated(j_sets, i_sets, n: int) -> list:
    """``witness.dominates`` on I's own split, as ``_shape_checks`` hands it."""
    return dominates(j_sets, i_sets, n, _split_members(i_sets, n))
