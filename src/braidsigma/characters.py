"""Characters of the pure braid group as exact rational edge weightings.

A character of P_n is determined freely by its values on the standard
generators S_ij, so we store it as a total map from unordered pairs
{i, j} of strand indices to rationals.  All arithmetic is exact
(``fractions.Fraction``); every zero-test below is therefore decidable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

Edge = tuple[int, int]
SwingSet = tuple[int, ...]


class ZeroCharacterError(ValueError):
    """Raised when an operation requires a nonzero character."""


class CharacterFormatError(ValueError):
    """Raised for malformed character data (constructor input or JSON)."""


class InternalError(RuntimeError):
    """A broken invariant of the package itself, never an input error."""


def edge(i: int, j: int) -> Edge:
    """Normalize an unordered pair to (min, max)."""
    if i == j:
        raise ValueError(f"edge endpoints must be distinct, got {{{i},{j}}}")
    return (i, j) if i < j else (j, i)


def all_edges(n: int) -> list[Edge]:
    return list(combinations(range(1, n + 1), 2))


@lru_cache(maxsize=32)
def _pair_tables(n: int) -> tuple[dict[str, Edge], frozenset[Edge]]:
    """The pairs of 1..n, built once per n and only read: the canonical
    JSON key "i-j" (i < j) of each pair mapped to it, and the set of all
    pairs.  Callers ask only with an input of C(n,2) entries at hand, so a
    table is never larger than an input already seen."""
    keys = {f"{i}-{j}": (i, j) for i, j in all_edges(n)}
    return keys, frozenset(keys.values())


def swing_set(members: Iterable[int], n: int) -> SwingSet:
    """Validate and normalize a swing index set: distinct, in range, size >= 2."""
    a = tuple(sorted(members))
    if len(a) < 2:
        raise ValueError(f"swing set needs at least 2 indices, got {a}")
    if len(set(a)) != len(a):
        raise ValueError(f"swing set has repeated indices: {a}")
    if a[0] < 1 or a[-1] > n:
        raise IndexError(f"swing set {a} out of range 1..{n}")
    return a


@dataclass(frozen=True)
class Character:
    """Rational weight per unordered pair {i, j}, 1 <= i < j <= n.

    The weights mapping is total: every pair appears, zeros included.
    Instances are immutable values; all operations on them are pure.
    ``delta_value`` and ``chargraph.build_kchi`` compute Delta and K_chi
    once and cache them on the instance, so ``weights`` must never be
    mutated after construction.
    """

    n: int
    weights: Mapping[Edge, Fraction]

    def __post_init__(self) -> None:
        n = self.n
        if n < 2:
            raise CharacterFormatError(f"need n >= 2, got n={n}")
        if len(self.weights) != n * (n - 1) // 2 or self.weights.keys() != _pair_tables(n)[1]:
            expected = set(all_edges(n))
            got = set(self.weights)
            missing = sorted(expected - got)
            extra = sorted(got - expected)
            raise CharacterFormatError(
                f"weights must cover exactly the pairs of 1..{n}; "
                f"missing={missing} extra={extra}"
            )

    @staticmethod
    def dense(n: int, weights: Mapping[Edge, Fraction | int | str]) -> "Character":
        """Build from a total pair -> value mapping (every pair required)."""
        w = {edge(i, j): Fraction(v) for (i, j), v in weights.items()}
        return Character(n, w)

    @staticmethod
    def sparse(n: int, weights: Mapping[Edge, Fraction | int | str]) -> "Character":
        """Build from a partial mapping; unspecified pairs get weight 0."""
        w = {e: Fraction(0) for e in all_edges(n)}
        for (i, j), v in weights.items():
            e = edge(i, j)
            if e not in w:
                raise CharacterFormatError(f"pair {e} out of range for n={n}")
            w[e] = Fraction(v)
        return Character(n, w)

    @staticmethod
    def zero(n: int) -> "Character":
        return Character.sparse(n, {})

    def weight(self, i: int, j: int) -> Fraction:
        return self.weights[edge(i, j)]

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.weights.values())

    def scale(self, q: Fraction | int) -> "Character":
        q = Fraction(q)
        return Character(self.n, {e: q * v for e, v in self.weights.items()})


@dataclass(frozen=True)
class ProjectivePoint:
    """Canonical representative of a positive-dilation class of characters.

    Weights are scaled to integers with collective gcd 1; the overall sign
    is preserved (positive dilations cannot flip it), so two characters give
    the same point exactly when one is a positive rational multiple of the
    other.
    """

    character: Character

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        return (
            self.character.n == other.character.n
            and self.character.weights == other.character.weights
        )

    def __hash__(self) -> int:
        return hash(
            (self.character.n, tuple(sorted(self.character.weights.items())))
        )


def _exact_sum(values: Iterable[Fraction]) -> Fraction:
    """Sum of rationals: numerators are summed per denominator as plain
    integers, then one Fraction is added per distinct denominator."""
    by_denominator: dict[int, int] = {}
    for v in values:
        d = v.denominator
        by_denominator[d] = by_denominator.get(d, 0) + v.numerator
    return sum((Fraction(x, d) for d, x in by_denominator.items()), Fraction(0))


def swing_value(chi: Character, a: Iterable[int]) -> Fraction:
    """Value of the character on S_A: the sum of weights over pairs inside A."""
    aset = swing_set(a, chi.n)
    return _exact_sum(chi.weights[e] for e in combinations(aset, 2))


def delta_value(chi: Character) -> Fraction:
    """Value on the central full twist: sum of all edge weights, computed
    once per character and cached on it."""
    delta = chi.__dict__.get("_delta")
    if delta is None:
        delta = chi.__dict__["_delta"] = _exact_sum(chi.weights.values())
    return delta


def normalize(chi: Character) -> ProjectivePoint:
    """Canonical form of the positive-dilation class of a nonzero character."""
    if chi.is_zero():
        raise ZeroCharacterError("the zero character has no projective class")
    denoms = [v.denominator for v in chi.weights.values() if v != 0]
    scale = lcm(*denoms) if denoms else 1
    ints = {e: v.numerator * (scale // v.denominator) for e, v in chi.weights.items()}
    g = gcd(*(abs(x) for x in ints.values() if x != 0))
    canon = {e: Fraction(x // g) for e, x in ints.items()}
    return ProjectivePoint(Character(chi.n, canon))


def permute(chi: Character, perm: Sequence[int]) -> Character:
    """Relabel strands: the result weight on {perm(i), perm(j)} is the
    input weight on {i, j}.  ``perm[i-1]`` is the image of ``i``."""
    n = chi.n
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"perm must be a bijection on 1..{n}, got {perm}")
    image = (0, *perm)
    out = {}
    for (i, j), v in chi.weights.items():
        a, b = image[i], image[j]
        out[(a, b) if a < b else (b, a)] = v
    return Character(n, out)


def compose_perms(sigma: Sequence[int], tau: Sequence[int]) -> tuple[int, ...]:
    """(tau o sigma): first sigma, then tau."""
    return tuple(tau[s - 1] for s in sigma)


def pullback_phi(psi: Character, a: Iterable[int], n: int) -> Character:
    """Pull back along the strand-forgetting projection onto the positions in
    ``a``: the weight on {a_r, a_s} is psi's weight on {r, s}; pairs with an
    endpoint outside ``a`` get zero."""
    aset = swing_set(a, n)
    if len(aset) != psi.n:
        raise ValueError(
            f"swing set size {len(aset)} does not match character on {psi.n} strands"
        )
    out = {e: Fraction(0) for e in all_edges(n)}
    for (r, s), v in psi.weights.items():
        out[edge(aset[r - 1], aset[s - 1])] = v
    return Character(n, out)


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


# -- JSON wire format ------------------------------------------------------
#
# {"n": 4, "weights": {"1-2": "3", "1-3": "2/5", ...}}  -- every pair present.
# A weight is a string that Fraction parses exactly, or a JSON integer;
# floats and booleans are rejected, since they are not exact rationals.
# A string's exponent ("1e3", "2.5E-2") is at most MAX_EXPONENT in absolute
# value: Fraction expands 10**exp in full, so "1e10000000" alone would take
# seconds and a 33-Mbit integer.  The figure is Python's own default cap on
# the digits of an integer string (sys.int_info.default_max_str_digits).

MISSING_KEYS_SHOWN = 10
MAX_EXPONENT = 4300


def character_to_json_dict(chi: Character) -> dict:
    return {
        "n": chi.n,
        "weights": {f"{i}-{j}": str(chi.weights[(i, j)]) for i, j in all_edges(chi.n)},
    }


def _parse_weight(key: str, val: str | int) -> Fraction:
    """Exact value of one JSON weight; ``key`` names it in errors."""
    if isinstance(val, str):
        _, marker, exp = val.lower().rpartition("e")
        if marker:
            try:
                exponent = int(exp)
            except ValueError:  # not an integer: Fraction rejects it below
                exponent = 0
            if abs(exponent) > MAX_EXPONENT:
                raise CharacterFormatError(
                    f"exponent of weight for key {key!r} exceeds {MAX_EXPONENT} "
                    "in absolute value"
                )
    try:
        return Fraction(val)
    except (ValueError, ZeroDivisionError) as exc:
        raise CharacterFormatError(f"bad rational {val!r} for key {key!r}") from exc


def character_from_json_dict(data: dict) -> Character:
    if not isinstance(data, dict):
        raise CharacterFormatError("character JSON must be an object")
    if "n" not in data:
        raise CharacterFormatError("missing key 'n'")
    if "weights" not in data:
        raise CharacterFormatError("missing key 'weights'")
    n = data["n"]
    if not isinstance(n, int) or n < 2:
        raise CharacterFormatError(f"'n' must be an integer >= 2, got {n!r}")
    raw = data["weights"]
    if not isinstance(raw, dict):
        raise CharacterFormatError("'weights' must be an object")
    expected = n * (n - 1) // 2
    weights = {}
    # each distinct raw value is parsed once; pairs with equal values share
    # one (immutable) Fraction
    parsed: dict[str | int, Fraction] = {}
    # a canonical key "i-j" (i < j) is one lookup; any other key ("2-1",
    # "01-2", "x") is parsed and range-checked
    canonical = _pair_tables(n)[0] if len(raw) == expected else {}
    for key, val in raw.items():
        e = canonical.get(key)
        if e is None:
            try:
                i_s, j_s = key.split("-")
                e = edge(int(i_s), int(j_s))
            except (ValueError, AttributeError) as exc:
                raise CharacterFormatError(f"bad weight key {key!r}") from exc
            if not (1 <= e[0] and e[1] <= n):
                raise CharacterFormatError(f"weight key {key!r} out of range for n={n}")
        if e in weights:
            raise CharacterFormatError(f"duplicate weight key {key!r}")
        if isinstance(val, bool) or not isinstance(val, (str, int)):
            raise CharacterFormatError(
                f"weight for key {key!r} must be a string or an integer, got {val!r}"
            )
        value = parsed.get(val)
        if value is None:
            value = parsed[val] = _parse_weight(key, val)
        weights[e] = value
    # keys are distinct pairs in range, so a short count means missing keys.
    # The pairs are generated lazily and each present key is skipped once,
    # so naming the first few absent ones costs O(len(weights)), not O(n^2).
    if len(weights) != expected:
        every_pair = ((i, j) for i in range(1, n) for j in range(i + 1, n + 1))
        absent = (e for e in every_pair if e not in weights)
        shown = [f"{i}-{j}" for i, j in islice(absent, MISSING_KEYS_SHOWN)]
        count = expected - len(weights)
        more = ", ..." if count > len(shown) else ""
        raise CharacterFormatError(
            f"missing weight keys ({count} of {expected}): {shown}{more}"
        )
    return Character(n, weights)


def character_from_json(text: str) -> Character:
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise CharacterFormatError(f"invalid JSON: {exc}") from exc
    return character_from_json_dict(data)
