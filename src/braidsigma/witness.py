"""Executable witnesses for the reduction lemmas.

Each invariant-side certificate is backed by a package (J, I) in the
lemma's normal-form coordinates: J survives under the relabeled
character, the commuting graph C(J) is connected, J dominates I, and I
generates the group.  Generation is checked through the abelianization
(full rank on the weight lattice) plus the recorded recovery
factorizations, which are additionally verified exactly in the word
engine for small strand counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Optional, Sequence

from .characters import (
    Character,
    Edge,
    SwingSet,
    all_edges,
    permute,
    swing_value,
)
from .classify import (
    Certificate,
    CircleMembership,
    Classification,
    DisjointLeaves,
    DisjointPair,
    DisjointTriple,
    Star,
    Triangle,
    ZeroSum,
)
from .words import (
    WORD_ENGINE_MAX_STRANDS,
    braid_aut,
    aut_equal,
    commutes_predicate,
    swing_word,
)


@dataclass(frozen=True)
class Factorization:
    """A recovery identity: the swing on ``added`` equals the ordered product
    of the swings on ``factors``, so the pair ``recovers`` (dropped from the
    standard generating set) is expressible from the rest."""

    added: SwingSet
    factors: tuple[SwingSet, ...]
    recovers: Edge


@dataclass(frozen=True)
class WitnessPackage:
    lemma: str
    perm: tuple[int, ...]  # relabeling into the lemma's normal form
    j_sets: tuple[SwingSet, ...]
    i_sets: tuple[SwingSet, ...]
    factorizations: tuple[Factorization, ...] = ()


@dataclass
class WitnessReport:
    survival_failures: list[SwingSet] = field(default_factory=list)
    connected: bool = False
    uncovered: list[SwingSet] = field(default_factory=list)
    full_rank: bool = False
    abelian_factorizations: bool = False
    wordlevel_factorizations: Optional[bool] = None  # None when out of budget

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


def commuting_graph(j_sets: Sequence[SwingSet], n: int) -> list[set[int]]:
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


def dominates(
    j_sets: Sequence[SwingSet], i_sets: Sequence[SwingSet]
) -> tuple[bool, list[SwingSet]]:
    """Does every element of I commute (predicate) with some element of J?
    Returns the flag and the uncovered elements."""
    uncovered = [
        i for i in i_sets if not any(commutes_predicate(i, j) for j in j_sets)
    ]
    return (not uncovered, uncovered)


def _standard_pairs(n: int) -> tuple[SwingSet, ...]:
    return tuple(all_edges(n))


def _complement_set(i: int, n: int) -> SwingSet:
    return tuple(k for k in range(1, n + 1) if k != i)


def build_witness(cert: Certificate, chi: Character) -> WitnessPackage:
    """Instantiate the (J, I, factorizations) data of the proof backing the
    certificate, in the certificate's normal-form coordinates."""
    n = chi.n
    pairs = _standard_pairs(n)
    if isinstance(cert, CircleMembership):
        raise ValueError("complement certificates carry no invariant-side witness")
    if isinstance(cert, ZeroSum):
        return WitnessPackage(
            "zero_sum", cert.perm, (tuple(range(1, n + 1)),), pairs
        )
    if isinstance(cert, DisjointTriple):
        return WitnessPackage(
            "disjoint_triple", cert.perm, ((1, 2), (3, 4), (5, 6)), pairs
        )
    if isinstance(cert, DisjointPair):
        i_sets = tuple(p for p in pairs if p not in ((1, 4), (2, 4)))
        i_sets += ((1, 4, 5), (2, 4, 5))
        facts = (
            Factorization((1, 4, 5), ((1, 4), (1, 5), (4, 5)), (1, 4)),
            Factorization((2, 4, 5), ((2, 4), (2, 5), (4, 5)), (2, 4)),
        )
        return WitnessPackage(
            "disjoint_pair", cert.perm, ((1, 2), (3, 4), (4, 5)), i_sets, facts
        )
    if isinstance(cert, Star):
        j_sets = (
            (1, 4),
            (2, 4),
            (3, 4),
            _complement_set(1, n),
            _complement_set(2, n),
            _complement_set(3, n),
        )
        return WitnessPackage("star", cert.perm, j_sets, pairs)
    if isinstance(cert, DisjointLeaves):
        j_sets = (
            (1, 2),
            (3, 4),
            (1, 2, 3),
            _complement_set(1, n),
            _complement_set(3, n),
        )
        return WitnessPackage("disjoint_leaves", cert.perm, j_sets, pairs)
    if isinstance(cert, Triangle):
        i_sets = tuple(p for p in pairs if p not in ((1, 4), (2, 4)))
        i_sets += ((1, 3, 4), (2, 3, 4))
        facts = (
            Factorization((1, 3, 4), ((1, 3), (1, 4), (3, 4)), (1, 4)),
            Factorization((2, 3, 4), ((2, 3), (2, 4), (3, 4)), (2, 4)),
        )
        return WitnessPackage(
            "triangle", cert.perm, ((1, 2), (1, 2, 3), (3, 4)), i_sets, facts
        )
    raise TypeError(f"unknown certificate {cert!r}")


def build_witness_for(cls: Classification, chi: Character) -> WitnessPackage:
    return build_witness(cls.certificate, chi)


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


@lru_cache(maxsize=None)
def _generation_checks(
    n: int,
    i_sets: tuple[SwingSet, ...],
    factorizations: tuple[Factorization, ...],
) -> tuple[bool, bool, Optional[bool]]:
    """Character-independent part of witness verification, cached per shape:
    (full abelianized rank, factorizations in the abelianization,
    factorizations exact in the word engine or None when over budget)."""
    vectors = [_abelianized(a) for a in i_sets]
    full_rank = _rank(vectors) == n * (n - 1) // 2

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
    if n <= min(5, WORD_ENGINE_MAX_STRANDS):
        wordlevel = True
        for fact in factorizations:
            target = braid_aut(swing_word(fact.added, n))
            factors = list(fact.factors)
            # check every cyclic rotation of the factor product, so the
            # identity is not true merely by definition of the swing word
            for shift in range(len(factors)):
                rotated = factors[shift:] + factors[:shift]
                prod = swing_word(rotated[0], n)
                for f in rotated[1:]:
                    prod = prod * swing_word(f, n)
                if not aut_equal(braid_aut(prod), target):
                    wordlevel = False
    return full_rank, abelian_ok, wordlevel


def verify_witness(pkg: WitnessPackage, chi: Character) -> WitnessReport:
    """Check all four conditions of the connectivity-and-domination lemma;
    failures are reported, never raised."""
    report = WitnessReport()
    relabeled = permute(chi, pkg.perm)
    report.survival_failures = [
        j for j in pkg.j_sets if swing_value(relabeled, j) == 0
    ]
    report.connected = is_connected(commuting_graph(pkg.j_sets, chi.n))
    _, report.uncovered = dominates(pkg.j_sets, pkg.i_sets)
    full_rank, abelian_ok, wordlevel = _generation_checks(
        chi.n, pkg.i_sets, pkg.factorizations
    )
    report.full_rank = full_rank
    report.abelian_factorizations = abelian_ok
    report.wordlevel_factorizations = wordlevel
    return report


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
