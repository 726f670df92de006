"""Executable witnesses for the reduction lemmas.

Each invariant-side certificate is backed by a package (J, I) in the
lemma's normal-form coordinates; the certificate's class in ``classify``
states J, I and the recovery factorizations.  J survives under the
relabeled character, the commuting graph C(J) is connected, J dominates
I, and I generates the group.  Generation is checked through the
abelianization (full rank on the weight lattice) plus the recorded
recovery factorizations.  The four factorizations of the lemma table
(``classify.RECOVERY_FACTORIZATIONS``) hold at the word level in every
P_n, as ``braidsigma verify`` proves once; any other factorization a
package brings is checked exactly in the word engine at n <=
WORDLEVEL_MAX_STRANDS = 5.

J and I are fixed by the lemma and n, not by the character, so every
check that reads only them runs once per shape and is cached: C(J)
connectivity and domination (``_shape_checks``), and generation
(``_generation_checks``).  The caches are keyed by value, so a package
that differs from its shape's own in any member is checked in full, and
bounded, so packages from outside cannot grow them without limit.

Each of those checks costs about one pass over I, whose members are
almost all pairs of strands.  A pair {a, b} commutes with a swing set S
(the predicate of ``words``) when it lies in S, or when it misses S and
the number of S's strands strictly between a and b is 0 or |S| (S lies
in the pair only when it is the pair).  So domination tests a pair by two
lookups in a membership array of S and one difference of its prefix
counts, built once per member of J.  In the abelianization a pair is
the unit row of its own column, so the rank is the number of distinct
pairs plus the exact rank of the other members with those columns
removed: the same elimination, unit rows first.  Members of I that are
not pairs of 1..n take the predicate and the general elimination; a
member that is not a swing set of 1..n adds nothing to the rank.

Only survival reads the character, so it alone runs for every character,
and it reads Delta and row sums, not a relabeled copy.  The swing on J
after relabeling by perm is the swing on perm^-1(J) before it: J of all
n strands gives the cached Delta, J of all strands but m gives Delta
minus the row sum at perm^-1(m) (the weights on the edges of K_chi at
that strand), J of two strands reads its one weight from the support,
and any other J sums its own pairs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations
from typing import Optional, Sequence

from .characters import (
    Character,
    Edge,
    SwingSet,
    _exact_sum,
    delta_value,
    permute,  # unused here; bench/tracing.py rebinds this name
    swing_set,
    swing_value,
)
from .chargraph import build_kchi
from .classify import RECOVERY_FACTORIZATIONS, Classification, Factorization, WitnessData
from .record import Record
from .words import braid_aut, commutes_predicate, swing_word


class WitnessPackage(Record):
    _fields = ("lemma", "perm", "j_sets", "i_sets", "factorizations")

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


class WitnessReport(Record):
    """The outcome of each condition ``verify_witness`` checks; the two
    lists are the report's own."""

    _fields = (
        "survival_failures",
        "connected",
        "uncovered",
        "full_rank",
        "abelian_factorizations",
        "wordlevel_factorizations",
    )

    def __init__(
        self,
        survival_failures: list[SwingSet],
        connected: bool,
        uncovered: list[SwingSet],
        full_rank: bool,
        abelian_factorizations: bool,
        # None when not run in this process: every factorization is one of
        # the lemma table's, which ``braidsigma verify`` proves, or n is
        # above WORDLEVEL_MAX_STRANDS
        wordlevel_factorizations: Optional[bool],
    ) -> None:
        d = self.__dict__
        d["survival_failures"] = survival_failures
        d["connected"] = connected
        d["uncovered"] = uncovered
        d["full_rank"] = full_rank
        d["abelian_factorizations"] = abelian_factorizations
        d["wordlevel_factorizations"] = wordlevel_factorizations

    @property
    def ok(self) -> bool:
        return (
            not self.survival_failures
            and self.connected
            and not self.uncovered
            and self.full_rank
            and self.abelian_factorizations
            and self.wordlevel_factorizations in (None, True)
        )


def commuting_graph(j_sets: Sequence[SwingSet]) -> list[set[int]]:
    """Adjacency sets of C(J): vertices are positions in J, edges join
    distinct members that the commutation predicate accepts."""
    adj: list[set[int]] = [set() for _ in j_sets]
    for a, b in combinations(range(len(j_sets)), 2):
        if commutes_predicate(j_sets[a], j_sets[b]):
            adj[a].add(b)
            adj[b].add(a)
    return adj


def is_connected(adj: list[set[int]]) -> bool:
    if not adj:
        return True
    seen = {0}
    stack = [0]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(adj)


def _is_pair(a: Sequence, n: int) -> bool:
    """Is ``a`` a pair (i, j) of strands with 1 <= i < j <= n?"""
    return len(a) == 2 and type(a[0]) is int is type(a[1]) and 0 < a[0] < a[1] <= n


def _swing_set_of(a: Sequence, n: int) -> Optional[SwingSet]:
    """``a`` sorted, if it is a swing set of 1..n (at least two distinct
    integer strands in range), else None."""
    if len(a) < 2 or not all(type(v) is int for v in a):
        return None
    s = tuple(sorted(set(a)))
    return s if len(s) == len(a) and 1 <= s[0] and s[-1] <= n else None


def dominates(j_sets: Sequence[SwingSet], i_sets: Sequence[SwingSet], n: int) -> list[SwingSet]:
    """The elements of I that commute (predicate) with no element of J, so
    J dominates I exactly when the list is empty.  A pair of 1..n is tested
    against each swing set S of J by the lookups of the module docstring:
    ``inside`` marks S's strands and ``before[x]`` counts those <= x."""
    if any(_swing_set_of(j, n) is None for j in j_sets):
        return [i for i in i_sets if not any(commutes_predicate(i, j) for j in j_sets)]
    uncovered = list(i_sets)
    for j in j_sets:
        size, inside = len(j), [0] * (n + 1)
        for v in j:
            inside[v] = 1
        before = list(accumulate(inside))
        uncovered = [
            i
            for i in uncovered
            if not (
                (k := inside[i[0]] + inside[i[1]]) == 2
                or not k and not (before[i[1]] - before[i[0]]) % size
                if _is_pair(i, n)
                else commutes_predicate(i, j)
            )
        ]
    return uncovered


def build_witness_for(cls: Classification, chi: Character) -> WitnessPackage:
    """Instantiate the (J, I, factorizations) data of the proof backing the
    classification's certificate, in its normal-form coordinates."""
    cert = cls.certificate
    j_sets, i_sets, factorizations = _lemma_sets(type(cert), chi.n)
    return WitnessPackage(cert.kind, cls.perm, j_sets, i_sets, factorizations)


# entries of each shape cache: far more than the (lemma, n) shapes a run
# meets, and a bound on what packages from outside can add
_SHAPE_CACHE_SIZE = 256

# A factorization outside the lemma table is checked in the word engine at
# n <= 5 only, the budget of one cold check per shape; the table's own
# hold in every P_n that has their strands (``cli.cmd_verify``) and are
# not checked again.
WORDLEVEL_MAX_STRANDS = 5
_TABLE_FACTORIZATIONS = frozenset(f for fs in RECOVERY_FACTORIZATIONS.values() for f in fs)


@lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def _lemma_sets(lemma: type, n: int) -> WitnessData:
    """A lemma's (J, I, factorizations) at n, built once per shape, like
    the shape caches below that it feeds; those are keyed by value, so a
    package rebuilt after an eviction still finds its checks."""
    return lemma.witness(n)


# -- verification ----------------------------------------------------------


def _abelianized(a: SwingSet) -> dict[Edge, int]:
    return {pair: 1 for pair in combinations(sorted(a), 2)}


def _rank(vectors: list[dict[Edge, int]]) -> int:
    """Exact rank of the abelianized images over the weight lattice, by
    sparse elimination: each row is a dict column -> value, reduced
    against the pivot rows found so far, keyed by their leading column."""
    pivots: dict[Edge, dict[Edge, Fraction]] = {}
    for vec in vectors:
        row = {c: Fraction(v) for c, v in vec.items() if v}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            factor = row[lead] / pivot[lead]
            for c, v in pivot.items():
                reduced = row.get(c, 0) - factor * v
                if reduced:
                    row[c] = reduced
                else:
                    row.pop(c, None)
    return len(pivots)


def _generation_rank(n: int, i_sets: Sequence[SwingSet]) -> int:
    """The exact rank of the abelianized I on the C(n,2) pair columns: the
    distinct pairs of 1..n are unit rows, and the other swing sets of 1..n
    are reduced by ``_rank`` with those columns removed."""
    units: set[Edge] = set()
    rest = []
    for a in i_sets:
        if _is_pair(a, n):
            units.add(a)
        else:
            rest.append(a)
    swings = [s for s in (_swing_set_of(a, n) for a in rest) if s is not None]
    units.update(s for s in swings if len(s) == 2)
    rows = [{p: 1 for p in combinations(s, 2) if p not in units} for s in swings if len(s) > 2]
    return len(units) + _rank(rows)


def factorization_holds(fact: Factorization, n: int) -> bool:
    """Does the swing on ``fact.added`` equal the product of the swings on
    its factors in P_n, in every cyclic rotation of the product?  Checking
    each rotation keeps the identity from holding merely by the definition
    of the swing word."""
    target = braid_aut(swing_word(fact.added, n))
    factors = list(fact.factors)
    for shift in range(len(factors)):
        rotated = factors[shift:] + factors[:shift]
        prod = swing_word(rotated[0], n)
        for f in rotated[1:]:
            prod = prod * swing_word(f, n)
        if braid_aut(prod) != target:
            return False
    return True


@lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def _shape_checks(
    n: int, j_sets: tuple[SwingSet, ...], i_sets: tuple[SwingSet, ...]
) -> tuple[bool, tuple[SwingSet, ...]]:
    """Character-independent C(J) and domination checks, cached per shape:
    (C(J) connected, the elements of I that J does not dominate)."""
    return is_connected(commuting_graph(j_sets)), tuple(dominates(j_sets, i_sets, n))


@lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def _generation_checks(
    n: int,
    i_sets: tuple[SwingSet, ...],
    factorizations: tuple[Factorization, ...],
) -> tuple[bool, bool, Optional[bool]]:
    """Character-independent part of witness verification, cached per shape:
    (full abelianized rank, factorizations in the abelianization, the
    factorizations outside the lemma table exact in the word engine, or
    None when there are none or n is over budget)."""
    full_rank = _generation_rank(n, i_sets) == n * (n - 1) // 2

    abelian_ok = True
    for fact in factorizations:
        lhs = _abelianized(fact.added)
        rhs: dict[Edge, int] = {}
        for f in fact.factors:
            for pair, v in _abelianized(f).items():
                rhs[pair] = rhs.get(pair, 0) + v
        if lhs != {k: v for k, v in rhs.items() if v}:
            abelian_ok = False
        if fact.recovers not in lhs:
            abelian_ok = False

    wordlevel: Optional[bool] = None
    others = [f for f in factorizations if f not in _TABLE_FACTORIZATIONS or f.added[-1] > n]
    if others and n <= WORDLEVEL_MAX_STRANDS:
        wordlevel = all(factorization_holds(f, n) for f in others)
    return full_rank, abelian_ok, wordlevel


def _row_sum(chi: Character, v: int) -> Fraction:
    """The sum of the weights on the pairs at strand v, read off K_chi."""
    g = build_kchi(chi)
    return _exact_sum(g.labels[(v, k) if v < k else (k, v)] for k in g.nbrs.get(v, ()))


def _survival_failures(pkg: WitnessPackage, chi: Character) -> list[SwingSet]:
    """The members of J whose swing vanishes on the character relabeled by
    the package's perm, found without relabeling (module docstring)."""
    n = chi.n
    perm = pkg.perm
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"perm must be a bijection on 1..{n}, got {perm}")
    preimage = {p: i for i, p in enumerate(perm, 1)}
    failures = []
    for j in pkg.j_sets:
        a = swing_set(j, n)
        if len(a) == n:
            value = delta_value(chi)
        elif len(a) == n - 1:
            missing = n * (n + 1) // 2 - sum(a)
            value = delta_value(chi) - _row_sum(chi, preimage[missing])
        elif len(a) == 2:
            p, q = preimage[a[0]], preimage[a[1]]
            value = chi.weight(p, q)
        else:
            value = swing_value(chi, [preimage[x] for x in a])
        if value == 0:
            failures.append(j)
    return failures


def verify_witness(pkg: WitnessPackage, chi: Character) -> WitnessReport:
    """Check all four conditions of the connectivity-and-domination lemma;
    failures are reported, never raised."""
    survival_failures = _survival_failures(pkg, chi)
    connected, uncovered = _shape_checks(chi.n, pkg.j_sets, pkg.i_sets)
    full_rank, abelian_ok, wordlevel = _generation_checks(
        chi.n, pkg.i_sets, pkg.factorizations
    )
    # the cached uncovered tuple is shared, so each report gets its own list
    return WitnessReport(
        survival_failures, connected, list(uncovered), full_rank, abelian_ok, wordlevel
    )


# -- JSON ------------------------------------------------------------------


def witness_to_json_dict(pkg: WitnessPackage) -> dict:
    return {
        "lemma": pkg.lemma,
        "perm": list(pkg.perm),
        "J": [list(j) for j in pkg.j_sets],
        "I": [list(i) for i in pkg.i_sets],
        "factorizations": [
            {
                "added": list(f.added),
                "factors": [list(x) for x in f.factors],
                "recovers": list(f.recovers),
            }
            for f in pkg.factorizations
        ],
    }
