"""Executable witnesses for the reduction lemmas.

Each invariant-side certificate is backed by a package (J, I) in the
lemma's normal-form coordinates: the certificate's class in ``classify``
states J and the recovery factorizations, and ``_lemma_shape`` derives I
from them.  J survives under the relabeled character, the commuting graph
C(J) is connected, J dominates I, and I generates the group.  Generation
is checked by covering the standard generators, the pairs of 1..n, through
proved identities alone: the factorizations of the lemma table
(``classify.RECOVERY_FACTORIZATIONS``) whose strands lie in 1..n, each an
identity of every such P_n, as ``braidsigma verify`` proves once, so no
word is checked here.  A pair is given when it is a member of I, or when
it is the ``recovers`` of such a factorization whose ``added`` and other
two factors are members of I.  No table factorization has another's
``recovers`` among its other factors, so no recovered pair is read
back.  Any other factorization gives nothing and is a reported failure.

J and I are fixed by the lemma and n, not by the character, so every
check that reads only them and the factorizations runs once per (lemma,
n) in ``_lemma_shape``, the one cache here, and travels with the package
``build_witness_for`` makes, outside its fields.  A package from outside,
one built by ``WitnessPackage(...)`` or read from JSON, is checked in full
on every call, so none reaches the cache.  The JSON dict holds the
package's own tuples, which ``json.dumps`` writes as arrays.

Each of those checks costs about one pass over I, whose members are
almost all pairs of strands.  A pair {a, b} commutes with a swing set S
(``commutes_predicate``) when it lies in S, or when it misses S and the
number of S's strands strictly between a and b is 0 or |S| (S lies in the
pair only when it is the pair).  So domination tests a pair by two lookups
in a membership array of S and one difference of its prefix counts, built
once per member of J, and C(J) is one search over the predicate from J's
first member.  The word engine checks the predicate on every two swing
sets at n <= 8 in the tests, so every commutation a table shape reads at
n <= 8 is checked at word level.  The carried checks below reason about
the predicate, so above n = 8 its soundness for points in convex position
is cited.  ``_shape_checks`` splits I once into its pairs of 1..n and
its other members, which take the predicate and are sorted into swing
sets only for the coverage.  A list member (as from JSON) counts as its
tuple; a member not of int strands is dominated by none, and one not a
swing set of 1..n gives nothing.

Above n = CARRIED_FROM = 8, a table shape carries the checks of its shape
at 8.  Every member S of a row's J lies on strands <= 6, is {1..n}, or is
{1..n} minus a strand <= 3, so a pair {a < b} with b > 6 commutes with S
as (a, 7) does if a <= 6 and as (7, 8) does if not: it lies in S unless a
is the strand S lacks, or it meets S in a, or it misses S with S's strands
above a between its ends.  8 is the least n with both stand-ins, and the
members of J commute with each other alike at every n >= 8.  Every pair
with an endpoint above 6 is in I, and the factorizations, with the pairs
they recover and the triples they add, lie on strands <= 5.  So C(J),
domination and coverage come out at n as at 8; a pair past 6 that J does
not dominate at 8 would stand for every pair of its kind.

Only survival reads the character, so it alone runs for every character,
on its support and cached Delta, not on a relabeled copy.  It checks the
perm every time, but a built package's J only once per shape, in
``_lemma_shape``.  The swing on J after relabeling by perm is the swing
on perm^-1(J) before it: J of all n strands gives the cached Delta, J of
all strands but m gives Delta minus the row sum at perm^-1(m) (the
weights on the edges of K_chi at that strand), J of two strands is
nonzero when its pair is in the support, and any other J sums its own
pairs.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from itertools import accumulate, combinations

from .characters import (
    Character,
    Edge,
    InternalError,
    SwingSet,
    _check_perm,
    _delta,
    _int_strands,
    _is_pair,
    _pair_sum,
    _quoted,
    _swing_pair,
    permute,  # unused here; bench/tracing.py rebinds this name
    swing_set,
)
from .chargraph import build_kchi
from .classify import RECOVERY_FACTORIZATIONS, Classification, Factorization, Lemma
from .record import Record
from .words import braid_aut  # unused here; bench/tracing.py rebinds this name


class WitnessPackage(Record):
    def __init__(
        self,
        lemma: str,
        perm: tuple[int, ...],
        j_sets: tuple[SwingSet, ...],
        i_sets: tuple[SwingSet, ...],
        factorizations: tuple[Factorization, ...] = (),
    ) -> None:
        d = self.__dict__
        d["lemma"] = lemma
        d["perm"] = perm  # relabeling into the lemma's normal form
        d["j_sets"] = j_sets
        d["i_sets"] = i_sets
        d["factorizations"] = factorizations


FAILURES_SHOWN = 8


class WitnessReport(Record):
    """The outcome of each condition ``verify_witness`` checks.  The three
    lists are the report's own: the members of J whose swing vanishes, the
    members of I that J does not dominate, and the pairs of 1..n that I
    does not give (the module docstring's coverage)."""

    def __init__(
        self,
        survival_failures: list[SwingSet],
        connected: bool,
        uncovered: list[SwingSet],
        ungenerated: list[Edge],
        table_factorizations: bool,
    ) -> None:
        d = self.__dict__
        d["survival_failures"] = survival_failures
        d["connected"] = connected
        d["uncovered"] = uncovered
        d["ungenerated"] = ungenerated
        d["table_factorizations"] = table_factorizations

    def failures(self) -> list[str]:
        """One line naming each condition that fails, with the length and
        the first FAILURES_SHOWN members of a failing list, each quoted as
        ``_quoted`` does, so a line stays short and never raises; empty when
        all hold."""
        lines = []

        def shown(s: list) -> str:
            return f"({len(s)}): [{', '.join(_quoted(m) for m in s[:FAILURES_SHOWN])}]"

        if s := self.survival_failures:
            lines.append(f"members of J whose swing vanishes {shown(s)}")
        if not self.connected:
            lines.append("the commuting graph C(J) is not connected")
        if s := self.uncovered:
            lines.append(f"members of I that J does not dominate {shown(s)}")
        if s := self.ungenerated:
            lines.append(f"pairs of 1..n that I does not give {shown(s)}")
        if not self.table_factorizations:
            lines.append("a factorization is not one of the lemma table's on strands 1..n")
        return lines

    @property
    def ok(self) -> bool:
        return not self.failures()


def commutes_predicate(a: Sequence[int], b: Sequence[int]) -> bool:
    """Sufficient commutation test for swing generators S_A, S_B with the
    points in convex position: nested sets commute, and so do disjoint sets
    whose convex hulls do not cross (no cyclic interleaving of labels).  A
    set that is not a collection of int strands commutes with nothing."""
    if not (_int_strands(a) and _int_strands(b)):
        return False
    sa, sb = set(a), set(b)
    if sa <= sb or sb <= sa:
        return True
    if sa & sb:
        return False
    marks = [x in sa for x in sorted(sa | sb)]
    crossings = sum(1 for k in range(len(marks)) if marks[k] != marks[k - 1])
    return crossings == 2


def _connected(j_sets: Sequence[SwingSet]) -> bool:
    """Is C(J) connected: does a search from J's first member, along the
    pairs that ``commutes_predicate`` accepts, reach every member?"""
    stack, left = list(j_sets[:1]), list(j_sets[1:])
    while stack:
        a, unreached = stack.pop(), []
        for b in left:
            (stack if commutes_predicate(a, b) else unreached).append(b)
        left = unreached
    return not left


Members = tuple[list, list]


def _split_members(i_sets: Sequence[SwingSet], n: int) -> Members:
    """I's members that are pairs of 1..n, and its other members, each in
    I's order: the one place that tells them apart."""
    pairs: list[Edge] = []
    others: list[SwingSet] = []
    for a in i_sets:
        (pairs if _is_pair(a, n) else others).append(a)
    return pairs, others


def dominates(
    j_sets: Sequence[SwingSet], i_sets: Sequence[SwingSet], n: int, members: Members
) -> list[SwingSet]:
    """The elements of I that commute (predicate) with no element of J, so
    J dominates I exactly when the list is empty.  A pair of 1..n is tested
    against each swing set S of J by the lookups of the module docstring:
    ``inside`` marks S's strands and ``before[x]`` counts those <= x.
    Every member of J must be a swing set of 1..n, as survival, which
    ``verify_witness`` runs first, proves of a package's J.  ``members``
    is I's ``_split_members``."""
    pairs, others = members
    for j in j_sets:
        size, inside = len(j), [0] * (n + 1)
        for v in j:
            inside[v] = 1
        before = list(accumulate(inside))
        pairs = [
            i
            for i in pairs
            if not (
                (k := inside[i[0]] + inside[i[1]]) == 2
                or not k and not (before[i[1]] - before[i[0]]) % size
            )
        ]
        others = [i for i in others if not commutes_predicate(i, j)]
    if not pairs and not others:
        return []
    # back into I's order; by identity, as a member need not be hashable
    left = {id(i) for i in pairs} | {id(i) for i in others}
    return [i for i in i_sets if id(i) in left]


def build_witness_for(cls: Classification, chi: Character) -> WitnessPackage:
    """Instantiate the (J, I, factorizations) data of the proof backing the
    classification's certificate, in its normal-form coordinates, at the n
    of its perm, with the shape's checks outside the package's fields."""
    if not isinstance(cls.certificate, Lemma):
        raise ValueError("complement certificates carry no invariant-side witness")
    data, checks = _lemma_shape(type(cls.certificate), cls.n)
    pkg = WitnessPackage(cls.certificate.kind, cls.perm, *data)
    pkg.__dict__["_checks"] = checks
    return pkg


# entries of the shape cache: far more than the (lemma, n) shapes a run meets
_SHAPE_CACHE_SIZE = 256

# the largest n whose table shapes are checked in full (module docstring)
CARRIED_FROM = 8

# the only factorizations a package may carry: each holds in every P_n
# that has its strands (``commands.cmd_verify``)
_TABLE_FACTORIZATIONS = frozenset(f for fs in RECOVERY_FACTORIZATIONS.values() for f in fs)


@lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def _lemma_shape(lemma: type, n: int) -> tuple[tuple, tuple]:
    """A lemma's (J, I, factorizations) at n, I by the table's rule, and
    their ``_shape_checks``, carried from n = CARRIED_FROM above it (module
    docstring); J's swing sets checked here."""
    j_sets, factorizations = lemma.witness(n)
    try:
        for j in j_sets:
            swing_set(j, n)
    except (ValueError, IndexError) as exc:
        raise InternalError(f"{lemma.kind} at n = {n}: {exc}") from exc
    recovered = {f.recovers for f in factorizations}
    pairs = (p for p in combinations(range(1, n + 1), 2) if p not in recovered)
    data = j_sets, (*pairs, *(f.added for f in factorizations)), factorizations
    if n > CARRIED_FROM:
        return data, _lemma_shape(lemma, CARRIED_FROM)[1]
    return data, _shape_checks(n, *data)


# -- verification ----------------------------------------------------------


def _strand_tuples(f: object) -> Factorization | None:
    """``f`` with tuples for its strand collections if it is a Factorization
    of int strands, else None, which is no table factorization."""
    if isinstance(f, Factorization) and isinstance(f.factors, (tuple, list)):
        if all(map(_int_strands, (f.added, f.recovers, *f.factors))):
            return Factorization(tuple(f.added), tuple(map(tuple, f.factors)), tuple(f.recovers))
    return None


def _ungenerated(n: int, members: Members, factorizations: Sequence[Factorization]) -> list[Edge]:
    """The pairs of 1..n, in order, that I, split into ``members``, does
    not give by the module docstring's rule.  Every factorization must be a
    table factorization on strands 1..n, whose ``added`` is a sorted triple
    and whose factors are that triple's pairs, so none is normalized here;
    I's members are read as sorted swing sets of 1..n."""
    pair_members, other_members = members
    given: set[Edge] = set(map(tuple, pair_members))  # I's pairs, then recovered ones
    swings: set[SwingSet] = set()  # I's larger swing sets
    for a in other_members:
        try:
            s = swing_set(a, n)
        except (ValueError, IndexError):
            continue
        (given if len(s) == 2 else swings).add(s)
    used = [f for f in factorizations if f.added in swings and given >= {*f.factors} - {f.recovers}]
    given.update(f.recovers for f in used)  # ``used`` was read from I's members alone
    if len(given) == n * (n - 1) // 2:
        return []
    return [p for p in combinations(range(1, n + 1), 2) if p not in given]


def _shape_checks(
    n: int,
    j_sets: tuple[SwingSet, ...],
    i_sets: tuple[SwingSet, ...],
    factorizations: tuple[Factorization, ...],
) -> tuple[bool, tuple[SwingSet, ...], tuple[Edge, ...], bool]:
    """The checks that read no character: (C(J) connected, the members of
    I that J does not dominate, the pairs that I does not give through the
    table factorizations, every factorization one of the lemma table's on
    strands 1..n); the one place that splits I."""
    connected = _connected(j_sets)
    members = _split_members(i_sets, n)
    uncovered = tuple(dominates(j_sets, i_sets, n, members))
    facts = [_strand_tuples(f) for f in factorizations]
    # a table factorization's ``added`` is sorted and holds all its strands
    table = [f for f in facts if f in _TABLE_FACTORIZATIONS and f.added[-1] <= n]
    ungenerated = tuple(_ungenerated(n, members, table))
    return connected, uncovered, ungenerated, len(table) == len(facts)


def _survival_failures(pkg: WitnessPackage, chi: Character) -> list[SwingSet]:
    """The members of J whose swing vanishes on the character relabeled by
    the package's perm, found without relabeling (module docstring)."""
    n = chi.n
    _check_perm(pkg.perm, n)
    preimage = {p: i for i, p in enumerate(pkg.perm, 1)}
    w, (x, d) = chi.support, _delta(chi)
    built = "_checks" in pkg.__dict__  # its J passed swing_set in _lemma_shape
    failures = []
    for j in pkg.j_sets:
        a = j if built else swing_set(j, n)
        if len(a) == n:
            vanishes = x == 0
        elif len(a) == n - 1:
            # Delta minus the row sum at the missing strand, read off K_chi
            v, g = preimage[n * (n + 1) // 2 - sum(a)], build_kchi(chi)
            row = g.nbrs.get(v, ())
            y, dy = _pair_sum(w[(v, k) if v < k else (k, v)].as_integer_ratio() for k in row)
            vanishes = x * dy == y * d
        elif len(a) == 2:
            p, q = preimage[a[0]], preimage[a[1]]
            vanishes = ((p, q) if p < q else (q, p)) not in w
        else:
            vanishes = _swing_pair(chi, sorted(preimage[s] for s in a))[0] == 0
        if vanishes:
            failures.append(j)
    return failures


_LEMMA_KINDS = tuple(row.kind for row in Lemma.__subclasses__())


def verify_witness(pkg: WitnessPackage, chi: Character) -> WitnessReport:
    """Check all four conditions of the connectivity-and-domination lemma;
    only a package from ``build_witness_for`` brings its shape's checks.
    A malformed package raises ValueError (a lemma not the kind of a lemma
    row, J, I or the factorizations not a tuple or list, a perm not a
    bijection on 1..n of ints, a member of J not a swing set of int strands)
    or IndexError (a member of J out of range); a well-formed package's
    failures are reported, never raised."""
    if pkg.lemma not in _LEMMA_KINDS:  # a tuple, so an unhashable lemma is refused too
        raise ValueError(f"lemma must be the kind of a lemma row, got {_quoted(pkg.lemma)}")
    if not all(isinstance(x, (tuple, list)) for x in (pkg.j_sets, pkg.i_sets, pkg.factorizations)):
        raise ValueError("J, I and the factorizations must each be a tuple or list")
    survival_failures = _survival_failures(pkg, chi)
    # survival proved len(perm) == chi.n, the n a built package's checks ran at
    connected, uncovered, ungenerated, table_ok = pkg.__dict__.get("_checks") or _shape_checks(
        chi.n, pkg.j_sets, pkg.i_sets, pkg.factorizations
    )
    # the carried tuples are shared, so each report gets its own lists
    return WitnessReport(survival_failures, connected, list(uncovered), list(ungenerated), table_ok)


# -- JSON ------------------------------------------------------------------


def witness_to_json_dict(pkg: WitnessPackage) -> dict:
    """The package's own tuples under their JSON names (module docstring)."""
    return {
        "lemma": pkg.lemma,
        "perm": pkg.perm,
        "J": pkg.j_sets,
        "I": pkg.i_sets,
        "factorizations": [
            {"added": f.added, "factors": f.factors, "recovers": f.recovers}
            for f in pkg.factorizations
        ],
    }
