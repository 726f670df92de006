"""Total decision procedure: every nonzero character is either located on a
complement circle or handed a certificate naming the reduction lemma that
places it in the invariant.

The pipeline mirrors the case analysis of the classification theorem:
nonzero total sum first, then an edge disjoint from two others, then the
star case, and finally the small-support cases that end on a circle.
Earlier stages win when several lemmas apply, so certificates are
deterministic.

Lemma table.  Each certificate class states its lemma once: its fields
(the JSON keys), ``check`` (what ``verify_certificate`` re-checks),
``named`` (the strands that get the normal-form indices 1, 2, ... in
order) and ``witness`` (the lemma's J, I and factorizations in normal
form).  The derived ``perm`` sends the k-th named strand to k and the
other strands, in increasing order, to the indices after the named ones.
K is the support graph K_chi, edges are unordered, Delta is the total sum.

  kind             fields                   check                             1 2 3 ...
  zero_sum         delta                    delta = Delta != 0                identity
  disjoint_triple  edges ab, cd, ef         pairwise disjoint edges of K      a b c d e f
  disjoint_pair    edge ab, others cv, vd   edges of K; a b c v d distinct    a b c v d
  star             center c, leaves l       K is the star at c on the         l1 l2 l3 c
                                            distinct l != c (>= 3); Delta = 0
  disjoint_leaves  leaf_edges ua, wb        disjoint edges of K, u and w      u a w b
                                            of degree 1; Delta = 0
  triangle         edges ab, cd,            disjoint edges of K; swing        a b c d
                   triangle abc, value      on abc = value != 0               (a < b)
  circle           circle (JSON "id")       the character is on it            no perm
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .characters import (
    Character,
    Edge,
    InternalError,
    SwingSet,
    ZeroCharacterError,
    all_edges,
    delta_value,
    swing_value,
)
from .chargraph import (
    CharGraph,
    build_kchi,
    find_disjoint_pair,
    find_disjoint_triple,
    find_edge_disjoint_from_two,  # unused here; bench/tracing.py rebinds this name
    shape_classify,
)
from .circles import P3, P4, CircleId, on_circle

SIGMA1 = "sigma1"
COMPLEMENT = "complement"

Perm = tuple[int, ...]


@dataclass(frozen=True)
class Factorization:
    """A recovery identity: the swing on ``added`` equals the ordered product
    of the swings on ``factors``, so the pair ``recovers`` (dropped from the
    standard generating set) is expressible from the rest."""

    added: SwingSet
    factors: tuple[SwingSet, ...]
    recovers: Edge


WitnessData = tuple[tuple[SwingSet, ...], tuple[SwingSet, ...], tuple[Factorization, ...]]


def _complement(i: int, n: int) -> SwingSet:
    return tuple(k for k in range(1, n + 1) if k != i)


def _recovering(k: int, n: int) -> tuple[tuple[SwingSet, ...], tuple[Factorization, ...]]:
    """I and its factorizations for the lemmas that drop (1, 4) and (2, 4)
    from the standard pairs and recover each from the triple it spans
    with vertex k."""
    triples = [tuple(sorted((a, 4, k))) for a in (1, 2)]
    i_sets = tuple(p for p in all_edges(n) if p not in ((1, 4), (2, 4)))
    facts = tuple(
        Factorization(t, tuple(combinations(t, 2)), (a, 4)) for a, t in zip((1, 2), triples)
    )
    return i_sets + tuple(triples), facts


def _has_edges(g: CharGraph, *pairs: Edge) -> bool:
    return all(tuple(sorted(p)) in g.edges for p in pairs)


def _are_pairs(edges: tuple, k: int) -> bool:
    """Are ``edges`` k pairs?  A ``check`` asks before it unpacks them."""
    return len(edges) == k and all(len(e) == 2 for e in edges)


def _hinge(f: Edge, h: Edge) -> Optional[int]:
    """The vertex two edges share, if they share exactly one."""
    common = set(f) & set(h)
    return common.pop() if len(common) == 1 else None


class Lemma:
    """An invariant-side certificate; each subclass is one row of the
    module docstring's table.  ``named`` assumes ``check`` holds."""

    verdict = SIGMA1


@dataclass(frozen=True)
class ZeroSum(Lemma):
    kind = "zero_sum"
    delta: Fraction

    def check(self, chi: Character) -> bool:
        return self.delta == delta_value(chi) != 0

    def named(self) -> tuple[int, ...]:
        return ()

    @staticmethod
    def witness(n: int) -> WitnessData:
        return (tuple(range(1, n + 1)),), tuple(all_edges(n)), ()


@dataclass(frozen=True)
class DisjointTriple(Lemma):
    kind = "disjoint_triple"
    edges: tuple[Edge, Edge, Edge]

    def check(self, chi: Character) -> bool:
        disjoint = len(self.edges) == 3 and len({v for e in self.edges for v in e}) == 6
        return disjoint and _has_edges(build_kchi(chi), *self.edges)

    def named(self) -> tuple[int, ...]:
        return sum(self.edges, ())

    @staticmethod
    def witness(n: int) -> WitnessData:
        return ((1, 2), (3, 4), (5, 6)), tuple(all_edges(n)), ()


@dataclass(frozen=True)
class DisjointPair(Lemma):
    kind = "disjoint_pair"
    edge: Edge
    others: tuple[Edge, Edge]  # the two edges share exactly one vertex

    def check(self, chi: Character) -> bool:
        if not _are_pairs(self.others, 2):
            return False
        f, h = self.others
        g = build_kchi(chi)
        return (
            _has_edges(g, self.edge, f, h)
            and not set(self.edge) & (set(f) | set(h))
            and _hinge(f, h) is not None
        )

    def named(self) -> tuple[int, ...]:
        f, h = self.others
        v = _hinge(f, h)
        if v is None:
            raise InternalError(f"{self.others} do not share exactly one vertex")
        (c,), (d,) = set(f) - {v}, set(h) - {v}
        return (*self.edge, c, v, d)

    @staticmethod
    def witness(n: int) -> WitnessData:
        return ((1, 2), (3, 4), (4, 5)), *_recovering(5, n)


@dataclass(frozen=True)
class Star(Lemma):
    kind = "star"
    center: int
    leaves: tuple[int, ...]  # at least 3

    def check(self, chi: Character) -> bool:
        c, leaves = self.center, self.leaves  # a leaf equal to c makes no edge of K
        return (
            len(set(leaves)) == len(leaves) >= 3
            and delta_value(chi) == 0
            and build_kchi(chi).edges == frozenset(tuple(sorted((c, l))) for l in leaves)
        )

    def named(self) -> tuple[int, ...]:
        return (*self.leaves[:3], self.center)

    @staticmethod
    def witness(n: int) -> WitnessData:
        co = [_complement(i, n) for i in (1, 2, 3)]
        return ((1, 4), (2, 4), (3, 4), *co), tuple(all_edges(n)), ()


@dataclass(frozen=True)
class DisjointLeaves(Lemma):
    kind = "disjoint_leaves"
    leaf_edges: tuple[Edge, Edge]  # (leaf, neighbor) order within each edge

    def check(self, chi: Character) -> bool:
        if not _are_pairs(self.leaf_edges, 2):
            return False
        (u, a), (w, b) = self.leaf_edges
        nbrs = build_kchi(chi).nbrs  # nbrs[u] == [a] puts u-a in K
        return (
            nbrs.get(u) == [a]
            and nbrs.get(w) == [b]
            and not {u, a} & {w, b}
            and delta_value(chi) == 0
        )

    def named(self) -> tuple[int, ...]:
        return sum(self.leaf_edges, ())

    @staticmethod
    def witness(n: int) -> WitnessData:
        co1, co3 = _complement(1, n), _complement(3, n)
        return ((1, 2), (3, 4), (1, 2, 3), co1, co3), tuple(all_edges(n)), ()


@dataclass(frozen=True)
class Triangle(Lemma):
    kind = "triangle"
    edges: tuple[Edge, Edge]  # disjoint pair covering the 4 support vertices
    triangle: tuple[int, int, int]  # the first edge plus one vertex of the second
    value: Fraction  # nonzero swing value of the triangle

    def check(self, chi: Character) -> bool:
        if not _are_pairs(self.edges, 2):
            return False
        p, q = self.edges
        tri = set(self.triangle)
        return (
            _has_edges(build_kchi(chi), p, q)
            and not set(p) & set(q)
            and len(tri) == len(self.triangle) == 3
            and set(p) <= tri <= set(p) | set(q)
            and swing_value(chi, self.triangle) == self.value != 0
        )

    def named(self) -> tuple[int, ...]:
        (a, b), q = sorted(self.edges[0]), self.edges[1]
        (c,) = set(self.triangle) - {a, b}
        (d,) = set(q) - {c}
        return a, b, c, d

    @staticmethod
    def witness(n: int) -> WitnessData:
        return ((1, 2), (1, 2, 3), (3, 4)), *_recovering(3, n)


@dataclass(frozen=True)
class CircleMembership:
    kind = "circle"
    verdict = COMPLEMENT
    circle: CircleId

    def check(self, chi: Character) -> bool:
        return on_circle(chi, self.circle)

    @staticmethod
    def witness(n: int) -> WitnessData:
        raise ValueError("complement certificates carry no invariant-side witness")


# not typing.Union, whose cache would keep each re-imported copy of the package alive
Certificate = Lemma | CircleMembership


@dataclass(frozen=True)
class Classification:
    verdict: str  # SIGMA1 | COMPLEMENT
    certificate: Certificate
    n: int  # the strand count the certificate was made for

    def __post_init__(self) -> None:
        if self.verdict != self.certificate.verdict:
            raise InternalError(f"verdict {self.verdict!r} mismatches {self.certificate!r}")

    @property
    def perm(self) -> Perm:
        """The relabeling into the lemma's normal form, derived on first use."""
        perm = self.__dict__.get("_perm")
        if perm is None:
            perm = _complete_perm(self.certificate.named(), self.n)
            self.__dict__["_perm"] = perm
        return perm


def _complete_perm(named: tuple[int, ...], n: int) -> Perm:
    """The permutation of 1..n that sends named[k - 1] to k and the other
    strands, in increasing order, to len(named) + 1, ..., n."""
    if not named:
        return tuple(range(1, n + 1))
    index = {v: k for k, v in enumerate(named, 1)}
    if len(index) != len(named):
        raise InternalError(f"named strands {named} repeat")
    rest = iter(range(len(named) + 1, n + 1))
    return tuple(index[i] if i in index else next(rest) for i in range(1, n + 1))


def classify(chi: Character) -> Classification:
    n = chi.n

    delta = delta_value(chi)
    if delta != 0:
        return Classification(SIGMA1, ZeroSum(delta), n)

    g = build_kchi(chi)
    if not g.edges:
        raise ZeroCharacterError("cannot classify the zero character")
    shape = shape_classify(g)

    if shape.kind == "has_disjoint_from_two":
        triple = find_disjoint_triple(g)
        if triple is not None:
            return Classification(SIGMA1, DisjointTriple(triple), n)
        e, f, h = shape.witness
        return Classification(SIGMA1, DisjointPair(e, (f, h)), n)

    if shape.kind not in ("star", "small_k4"):
        raise InternalError(f"unexpected shape {shape.kind}")

    if shape.kind == "star" and len(shape.leaves) >= 3:
        return Classification(SIGMA1, Star(shape.center, shape.leaves), n)

    support = tuple(sorted(g.nbrs))
    if len(support) <= 3:
        # delta = 0 rules out a single edge, so the support is a full 3-set
        # (a two-edge star or a zero-sum triangle): a P3-circle point.
        if len(support) != 3:
            raise InternalError(f"zero-sum support {support} is not a 3-set")
        return _on_circle_or_fail(chi, CircleId(P3, support))

    if len(support) != 4:
        raise InternalError(f"small support {support} is not a 4-set")
    leaf_edges = [(v, g.nbrs[v][0]) for v in support if len(g.nbrs[v]) == 1]
    for eu, ew in combinations(leaf_edges, 2):
        if not set(eu) & set(ew):
            return Classification(SIGMA1, DisjointLeaves((eu, ew)), n)

    pair = find_disjoint_pair(g)
    if pair is None:
        raise InternalError("4-vertex non-star graph must contain disjoint edges")
    for tri in combinations(support, 3):
        value = swing_value(chi, tri)
        if value != 0:
            # the edge inside the triangle comes first; the other edge
            # holds the one support vertex the triangle misses
            p, q = pair
            inner, outer = (q, p) if set(q) <= set(tri) else (p, q)
            return Classification(SIGMA1, Triangle((inner, outer), tri, value), n)

    return _on_circle_or_fail(chi, CircleId(P4, support))


def _on_circle_or_fail(chi: Character, cid: CircleId) -> Classification:
    """The complement verdict for a character the pipeline has placed on
    ``cid``; a character that is not on it is an internal fault."""
    if not on_circle(chi, cid):
        raise InternalError(f"pipeline placed the character on {cid}, which misses it")
    return Classification(COMPLEMENT, CircleMembership(cid), chi.n)


def verify_certificate(cls: Classification, chi: Character) -> bool:
    """Re-check every numeric claim a certificate makes about the character;
    the verdict matches the certificate by construction of Classification."""
    return cls.n == chi.n and cls.certificate.check(chi)


# -- JSON ------------------------------------------------------------------


def _json_value(v):
    """Fractions as exact strings; tuples of ints or of edges as lists."""
    if isinstance(v, tuple):
        return [list(x) if isinstance(x, tuple) else x for x in v]
    return str(v) if isinstance(v, Fraction) else v


def classification_to_json_dict(cls: Classification) -> dict:
    """Each certificate field under its own name, then the derived perm;
    a circle certificate prints its circle as "id" and has no perm."""
    cert = cls.certificate
    if isinstance(cert, CircleMembership):
        body: dict = {"kind": cert.kind, "id": cert.circle.to_json_dict()}
    else:
        body = {"kind": cert.kind}
        for name in cert.__dataclass_fields__:
            body[name] = _json_value(getattr(cert, name))
        body["perm"] = list(cls.perm)
    return {"verdict": cls.verdict, "certificate": body}
