"""Characters of the pure braid group as exact rational edge weightings.

A character of P_n is determined freely by its values on the standard
generators S_ij, and every test here reads only the nonzero ones (K_chi
and exact sums over it), so we store its support: each unordered pair
{i, j} of strand indices with a nonzero value, mapped to that rational.
All arithmetic is exact (``fractions.Fraction``); every zero-test below
is therefore decidable.

Fraction's own machinery stays off the per-character path.  The JSON
parser reads a weight in a plain form, [+-]digits or [+-]digits/digits in
ASCII, with int(); any other spelling goes to Fraction's parser after the
exponent bound below.  Each distinct spelling is parsed once per
character, and once per process if ``_weight_memo`` keeps it: the memo
maps a spelling that parsed to its value and whether that is nonzero.  A
spelling that fails is never kept, so it fails again, naming its key, in
every character that holds it.  The memo keeps only exact ``str``
spellings of at most _WEIGHT_MEMO_LENGTH = 32 characters without an
exponent, whose values have at most 32 digits above and below the line,
and only the first _WEIGHT_MEMO_SIZE = 1024 of them.  On 64-bit CPython
an entry holds at most 517 bytes (the spelling 333, as 32 four-byte
characters and a cached UTF-8 copy; its tuple 56; the Fraction 48 and
its two integers 40 each) and the dict's table under 37,000 (26,032 on
3.11), so the memo never holds more than 1024 * 517 + 37,000 = 566,408
bytes.  Sums (Delta, swing values, row sums, circle sums) add plain
integers and build one Fraction each (``_exact_sum``).  The parser keeps
only the nonzero values and has proved their pairs, so it skips the
constructor's check of them.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice
from math import lcm

from .record import Record

Edge = tuple[int, int]
SwingSet = tuple[int, ...]


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
def _canonical_keys(n: int) -> dict[str, Edge]:
    """The canonical JSON key "i-j" (i < j) of each pair of 1..n mapped to
    the pair, built once per n and only read.  Callers ask only with an
    input of C(n,2) entries at hand, so a table is never larger than an
    input already seen."""
    return {f"{i}-{j}": (i, j) for i, j in all_edges(n)}


def swing_set(members: Iterable[int], n: int) -> SwingSet:
    """Validate and normalize a swing index set: int strands (bools
    refused), distinct, in range, size >= 2."""
    a = tuple(sorted(members))
    if not {int}.issuperset(map(type, a)):  # a bool or a float compares equal to an int
        raise ValueError(f"swing set strands must be ints, got {a}")
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
    derived facts are cached on the instance, outside its fields:
    ``delta_value`` (Delta, summed over the support) and
    ``chargraph.build_kchi`` (K_chi, labeled by the support itself).  So
    ``support`` must never be mutated after construction.  The constructor
    refuses a pair out of range, a zero value and a value that is not an
    int or a Fraction (a float, say, is not exact), in O(|support|).  The
    hash is over ``n`` and the support's items, so it agrees with ``==``.
    """

    _fields = ("n", "support")

    def __init__(self, n: int, support: Mapping[Edge, Fraction]) -> None:
        d = self.__dict__
        d["n"] = n
        d["support"] = support
        if n < 2:
            raise CharacterFormatError(f"need n >= 2, got n={n}")
        for e, v in support.items():
            if not (len(e) == 2 and 1 <= e[0] < e[1] <= n):
                raise CharacterFormatError(f"pair {e} is not (i, j) with 1 <= i < j <= {n}")
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


def _exact_sum(values: Iterable[Fraction]) -> Fraction:
    """Sum of rationals in plain integers, one Fraction built at the end.
    Numerators are summed per denominator, then merged two partial sums at
    a time over the lcm of their denominators, oldest first: a balanced
    tree, so k distinct denominators cost about log2 k rounds."""
    by_denominator: dict[int, int] = {}
    for v in values:
        d = v.denominator
        by_denominator[d] = by_denominator.get(d, 0) + v.numerator
    terms = list(by_denominator.items())
    for i in range(0, 2 * len(terms) - 2, 2):
        (d1, x1), (d2, x2) = terms[i], terms[i + 1]
        d = lcm(d1, d2)
        terms.append((d, x1 * (d // d1) + x2 * (d // d2)))
    d, x = terms[-1] if terms else (1, 0)
    return Fraction(x, d)


def swing_value(chi: Character, a: Iterable[int]) -> Fraction:
    """Value of the character on S_A: the sum of weights over pairs inside A."""
    aset = swing_set(a, chi.n)
    support = chi.support
    return _exact_sum(support.get(e, 0) for e in combinations(aset, 2))


def delta_value(chi: Character) -> Fraction:
    """Value on the central full twist: sum of all edge weights, computed
    from the support once per character and cached on it."""
    delta = chi.__dict__.get("_delta")
    if delta is None:
        delta = chi.__dict__["_delta"] = _exact_sum(chi.support.values())
    return delta


def permute(chi: Character, perm: Sequence[int]) -> Character:
    """Relabel strands: the result weight on {perm(i), perm(j)} is the
    input weight on {i, j}.  ``perm[i-1]`` is the image of ``i``.  Only
    the support is relabeled."""
    n = chi.n
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"perm must be a bijection on 1..{n}, got {perm}")
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
_weight_memo: dict[str, tuple[Fraction, bool]] = {}


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
        if isinstance(val, str) and val.isascii():
            # the plain spellings [+-]digits and [+-]digits/digits are read
            # by int(), which refuses what Fraction refuses: more digits
            # than Python's limit (ValueError), a zero denominator below
            num, slash, den = val.partition("/")
            if (num[1:] if num[:1] in "+-" else num).isdigit():
                if not slash:
                    return Fraction(int(num))
                if den.isdigit():
                    return Fraction(int(num), int(den))
        return Fraction(val)
    except (ValueError, ZeroDivisionError) as exc:
        raise CharacterFormatError(f"bad rational {val!r} for key {key!r}") from exc


def _weight_entry(key: str, val: str | int) -> tuple[Fraction, bool]:
    """(value, value != 0) of one JSON weight, read from ``_weight_memo``
    or parsed and then kept there when the module docstring allows."""
    kept = type(val) is str and len(val) <= _WEIGHT_MEMO_LENGTH
    if kept and (entry := _weight_memo.get(val)) is not None:
        return entry
    value = _parse_weight(key, val)
    entry = (value, value != 0)
    if kept and len(_weight_memo) < _WEIGHT_MEMO_SIZE and "e" not in val.lower():
        _weight_memo[val] = entry
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
    support = {}
    # each distinct raw value is looked up once, and in the process-wide
    # memo only when this dict misses; pairs with equal values share one
    # (immutable) Fraction
    parsed: dict[str | int, tuple[Fraction, bool]] = {}
    # a canonical key "i-j" (i < j) is one lookup; any other key ("2-1",
    # "01-2", "x") is parsed and range-checked
    canonical = _canonical_keys(n) if len(raw) == expected else {}
    # distinct canonical keys name distinct pairs; only other input needs
    # the set of pairs read so far to find a pair named twice
    seen: set[Edge] | None = None if canonical and raw.keys() <= canonical.keys() else set()
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
        if seen is not None:
            if e in seen:
                raise CharacterFormatError(f"duplicate weight key {key!r}")
            seen.add(e)
        # strings first, the common case; then ints, but not bools
        if not isinstance(val, str) and (isinstance(val, bool) or not isinstance(val, int)):
            raise CharacterFormatError(
                f"weight for key {key!r} must be a string or an integer, got {val!r}"
            )
        entry = parsed.get(val)
        if entry is None:
            entry = parsed[val] = _weight_entry(key, val)
        value, nonzero = entry
        if nonzero:
            support[e] = value
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
        raise CharacterFormatError(
            f"missing weight keys ({count} of {expected}): {shown}{more}"
        )
    # the keys are now proved to be exactly the pairs of 1..n, and only
    # nonzero values entered the support, so the constructor's check of
    # the same facts is not run again
    chi = Character.__new__(Character)
    chi.__dict__.update(n=n, support=support)
    return chi


def character_from_json(text: str) -> Character:
    try:
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
