"""Characters of the pure braid group as exact rational edge weightings.

A character of P_n is determined freely by its values on the standard
generators S_ij, and every test here reads only the nonzero ones (K_chi
and exact sums over it), so we store its support, each weight once: each
unordered pair {i, j} of strand indices with a nonzero value, mapped to
that rational.  All arithmetic is exact (``fractions.Fraction``); every
zero-test below is therefore decidable.

Fraction's own machinery stays off the per-character path.  A document
followed by nothing but JSON whitespace (space, tab, LF, CR: RFC 8259
section 2) is read by ``JSONDecoder.raw_decode``; any other text goes to
``json.loads``, which names its errors as before.  Keys that are the
canonical list "1-2", "1-3", ... in ``all_edges`` order are zipped against
the pairs (both built once per n); other keys are split and checked one by
one.  Every weight is read by Fraction, after the exponent bound below.
Each distinct spelling is parsed once per character, and once per process
if ``_weight_memo`` keeps it: the memo maps a spelling that parsed to its
value and the value's (numerator, denominator), None for 0, so a kept
spelling costs one lookup.  A spelling that fails is never kept, so it
fails again, naming its key, in every character that holds it.  The memo
keeps only exact ``str`` spellings of at most _WEIGHT_MEMO_LENGTH = 32
characters without an exponent, whose values have at most 32 digits above
and below the line, and only the first _WEIGHT_MEMO_SIZE = 1024 of them.
On 64-bit CPython an entry holds at most 573 bytes (the spelling 333, as 32
four-byte characters and a cached UTF-8 copy; its tuple 56; the Fraction 48
and its two integers 40 each; the pair's tuple 56, holding those integers)
and the dict's table under 37,000 (26,032 on 3.11), so the memo never holds
more than 1024 * 573 + 37,000 = 623,752 bytes.  Sums (Delta, swing values,
row sums) add ``as_integer_ratio()`` pairs (``_pair_sum``) into an unreduced
pair, so a zero test reads its numerator and an equality cross-multiplies.
The parser keeps only nonzero values, skips the constructor's check of what
it has proved, and sums Delta as it reads; ``_delta`` sums any other's.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice, repeat
from math import lcm

from .record import Record

Edge = tuple[int, int]
SwingSet = tuple[int, ...]
Pair = tuple[int, int]  # (numerator, denominator), denominator > 0


class InputError(ValueError):
    """Input the package refuses: a malformed, unreadable or zero
    character, or a command-line argument out of range or unknown."""


class ZeroCharacterError(InputError):
    """Raised when an operation requires a nonzero character."""


class CharacterFormatError(InputError):
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
def _canonical_keys(n: int) -> tuple[list[str], list[Edge]]:
    """The keys "i-j" (i < j) of the pairs of 1..n, and the pairs, in
    ``all_edges`` order; asked for only with an input of C(n,2) keys."""
    return [f"{i}-{j}" for i, j in combinations(map(str, range(1, n + 1)), 2)], all_edges(n)


def _int_strands(strands: object) -> bool:
    """Is ``strands`` a tuple, list or range of ints (by type: a bool or a
    float compares equal to one)?  Never raises; every strand check uses it."""
    return isinstance(strands, (tuple, list, range)) and {int}.issuperset(map(type, strands))


def _is_pair(e: object, n: int) -> bool:
    """Is ``e`` a pair (i, j) of int strands with 1 <= i < j <= n?  Never raises."""
    return _int_strands(e) and len(e) == 2 and 1 <= e[0] < e[1] <= n


def swing_set(members: Iterable[int], n: int) -> SwingSet:
    """Validate and normalize a swing index set: any iterable of int
    strands (bools refused), distinct, in range, size >= 2."""
    a = tuple(members) if isinstance(members, Iterable) else members
    if not _int_strands(a):
        raise ValueError(f"swing set strands must be ints, got {a!r}")
    a = tuple(sorted(a))
    if len(a) < 2:
        raise ValueError(f"swing set needs at least 2 indices, got {a}")
    if len(set(a)) != len(a):
        raise ValueError(f"swing set has repeated indices: {a}")
    if a[0] < 1 or a[-1] > n:
        raise IndexError(f"swing set {a} out of range 1..{n}")
    return a


class Character(Record):
    """A character of P_n, stored as its support: ``support`` maps each
    pair (i, j), 1 <= i < j <= n, of nonzero weight to that weight, and
    every other pair has weight 0.

    Instances are immutable values; all operations on them are pure.  Two
    derived facts are cached on the instance, outside its fields: ``_delta``
    (Delta as an integer pair) and ``chargraph.build_kchi`` (K_chi, labeled
    by the support itself), so ``support`` must never be mutated.  The
    constructor refuses an ``n`` that is not an int >= 2, a ``support``
    that is not a Mapping, a key that
    ``_is_pair`` refuses, a zero value and a value that is not an int or a
    Fraction (a float is not exact), in O(|support|).  The hash is over
    ``n`` and the support's items, so it agrees with ``==``.
    """

    def __init__(self, n: int, support: Mapping[Edge, Fraction]) -> None:
        d = self.__dict__
        d["n"] = n
        d["support"] = support
        if type(n) is not int or n < 2:
            raise CharacterFormatError(f"need an int n >= 2, got n={n!r}")
        if not isinstance(support, Mapping):
            raise CharacterFormatError(f"support must be a mapping, got {type(support).__name__}")
        for e, v in support.items():
            if not _is_pair(e, n):
                raise CharacterFormatError(
                    f"pair {e} is not (i, j) with 1 <= i < j <= {n}, i and j ints"
                )
            if type(v) is bool or not isinstance(v, (int, Fraction)):
                raise CharacterFormatError(f"pair {e} has weight {v!r}, not an int or a Fraction")
            if v == 0:
                raise CharacterFormatError(f"pair {e} has weight 0, so it is not in the support")

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.support.items())))

    def weight(self, i: int, j: int) -> Fraction:
        return self.support.get(edge(i, j), Fraction(0))

    def is_zero(self) -> bool:
        return not self.support


def _pair_sum(pairs: Iterable[Pair]) -> Pair:
    """Sum of pairs as one unreduced pair (x, d), d > 0: the numerators
    summed per denominator, then ``_merged``."""
    by_denominator: dict[int, int] = {}
    for x, d in pairs:
        by_denominator[d] = by_denominator.get(d, 0) + x
    return _merged(by_denominator)


def _merged(by_denominator: dict[int, int]) -> Pair:
    """The sum of x/d over the items d: x, as an unreduced pair.  One
    denominator's pair is returned as it is; more nonzero terms are merged
    two at a time over the lcm of their denominators, oldest first: a
    balanced tree, so k distinct denominators cost about log2 k rounds."""
    if len(by_denominator) == 1:
        [(d, x)] = by_denominator.items()
        return x, d
    terms = [(d, x) for d, x in by_denominator.items() if x]
    for i in range(0, 2 * len(terms) - 2, 2):
        (d1, x1), (d2, x2) = terms[i], terms[i + 1]
        d = lcm(d1, d2)
        terms.append((d, x1 * (d // d1) + x2 * (d // d2)))
    d, x = terms[-1] if terms else (1, 0)
    return x, d


def _delta(chi: Character) -> Pair:
    """Delta as an unreduced pair, cached: set by the parser, else summed once."""
    d = chi.__dict__
    if "_delta" not in d:
        d["_delta"] = _pair_sum(v.as_integer_ratio() for v in chi.support.values())
    return d["_delta"]


def _swing_pair(chi: Character, a: SwingSet) -> Pair:
    """The swing on the sorted strands ``a`` as an unreduced pair."""
    return _pair_sum(v.as_integer_ratio() for v in map(chi.support.get, combinations(a, 2)) if v)


def _equals(value: object, pair: Pair) -> bool:
    """Is ``value`` an int or a Fraction (not a bool) equal to the pair's rational?"""
    x, d = pair
    return type(value) in (int, Fraction) and value.numerator * d == x * value.denominator


def swing_value(chi: Character, a: Iterable[int]) -> Fraction:
    """Value of the character on S_A: the sum of weights over pairs inside A."""
    return Fraction(*_swing_pair(chi, swing_set(a, chi.n)))


def delta_value(chi: Character) -> Fraction:
    """Value on the central full twist: sum of all edge weights."""
    return Fraction(*_delta(chi))


def _check_perm(perm: Sequence[int], n: int) -> None:
    """Refuse with ValueError a perm that is not a bijection on 1..n of ints."""
    if not _int_strands(perm) or sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"perm must be a bijection on 1..{n} of ints, got {perm}")


def permute(chi: Character, perm: Sequence[int]) -> Character:
    """Relabel strands: the result weight on {perm(i), perm(j)} is the
    input weight on {i, j}.  ``perm[i-1]`` is the image of ``i``.  Only
    the support is relabeled."""
    n = chi.n
    _check_perm(perm, n)
    image = (0, *perm)
    out = {}
    for (i, j), v in chi.support.items():
        a, b = image[i], image[j]
        out[(a, b) if a < b else (b, a)] = v
    return Character(n, out)


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

_WEIGHT_MEMO_SIZE = 1024
_WEIGHT_MEMO_LENGTH = 32
_weight_memo: dict[str, tuple[Fraction, Pair | None]] = {}
_raw_decode = json.JSONDecoder().raw_decode


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


def _weight_entry(key: str, val: object, parsed: dict) -> tuple[Fraction, Pair | None]:
    """(value, its pair or None for 0) of a weight ``_weight_memo`` lacks:
    from ``parsed``, or parsed and kept in the memo or else in ``parsed``."""
    # strings first, the common case; then ints, but not bools
    if not isinstance(val, str) and (isinstance(val, bool) or not isinstance(val, int)):
        raise CharacterFormatError(
            f"weight for key {key!r} must be a string or an integer, got {val!r}"
        )
    entry = parsed.get(val)
    if entry is None:
        value = _parse_weight(key, val)
        entry = (value, value.as_integer_ratio() if value else None)
        kept = type(val) is str and len(val) <= _WEIGHT_MEMO_LENGTH and "e" not in val.lower()
        (_weight_memo if kept and len(_weight_memo) < _WEIGHT_MEMO_SIZE else parsed)[val] = entry
    return entry


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
    # keys that are the canonical list, in its order, name its pairs in
    # that order, all distinct and in range; any other key is checked
    fast = len(raw) == expected and list(raw) == (canonical := _canonical_keys(n))[0]
    seen: set[Edge] = set()  # the pairs of the checked keys
    support = {}
    delta = {}  # Delta's numerators per denominator
    parsed: dict = {}
    memo = _weight_memo.get
    for key, val, e in zip(raw, raw.values(), canonical[1] if fast else repeat(None)):
        if e is None:
            try:
                i_s, j_s = key.split("-")
                e = edge(int(i_s), int(j_s))
            except (ValueError, AttributeError) as exc:
                raise CharacterFormatError(f"bad weight key {key!r}") from exc
            if not (1 <= e[0] and e[1] <= n):
                raise CharacterFormatError(f"weight key {key!r} out of range for n={n}")
            if e in seen:
                raise CharacterFormatError(f"duplicate weight key {key!r}")
            seen.add(e)
        # a str subclass may equal a kept spelling, but its own methods
        # decide what it reads as, so it takes the parser
        entry = memo(val) if type(val) is str else None
        if entry is None:
            entry = _weight_entry(key, val, parsed)
        value, pair = entry
        if pair:
            support[e] = value
            x, d = pair
            delta[d] = delta.get(d, 0) + x
    # each key named a distinct pair in range, so fewer keys than pairs
    # means missing ones (and then ``seen`` holds every pair read).  The
    # pairs are generated lazily and each present key is skipped once, so
    # naming the first few absent ones costs O(len(raw)), not O(n^2).
    if len(raw) != expected:
        every_pair = ((i, j) for i in range(1, n) for j in range(i + 1, n + 1))
        absent = (e for e in every_pair if e not in seen)
        shown = [f"{i}-{j}" for i, j in islice(absent, MISSING_KEYS_SHOWN)]
        count = expected - len(raw)
        more = ", ..." if count > len(shown) else ""
        raise CharacterFormatError(f"missing weight keys ({count} of {expected}): {shown}{more}")
    # the keys are now proved to be exactly the pairs of 1..n, and only
    # nonzero values entered the support, so the constructor's check of
    # the same facts is not run again
    chi = Character.__new__(Character)
    chi.__dict__.update(n=n, support=support, _delta=_merged(delta))
    return chi


def character_from_json(text: str) -> Character:
    """The character of a JSON text, read as the module docstring says."""
    try:
        try:
            data, end = _raw_decode(text)
            whole = not text[end:].strip(" \t\n\r")  # RFC 8259 whitespace only
        except (ValueError, RecursionError, TypeError):
            whole = False
        if not whole:
            data = json.loads(text)
    # a ValueError is also an int past Python's digit limit; RecursionError, nesting too deep
    except (ValueError, RecursionError) as exc:
        raise CharacterFormatError(f"invalid JSON: {exc}") from exc
    return character_from_json_dict(data)


def read_text(path: str) -> str:
    """The text of the file ``path``, or of standard input for ``-``,
    decoded as UTF-8 (RFC 8259) whatever the locale.  A file or stream
    that cannot be read is a CharacterFormatError."""
    try:
        if path == "-":
            if sys.stdin is None:  # the process started with no file descriptor 0
                raise CharacterFormatError("cannot read -: standard input is closed")
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as f:
                data = f.read()
        return data.decode("utf-8")
    except FileNotFoundError:
        raise CharacterFormatError(f"no such file: {path}") from None
    except OSError as exc:
        raise CharacterFormatError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise CharacterFormatError(f"{path} is not UTF-8 text") from None
