"""Total decision procedure: every nonzero character is either located on a
complement circle or handed a certificate naming the reduction lemma that
places it in the invariant.

The pipeline mirrors the case analysis of the classification theorem:
nonzero total sum first, then an edge disjoint from two others, then the
star case, and finally the small-support cases that end on a circle.
Earlier stages win when several lemmas apply, so certificates are
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Union

from .characters import (
    Character,
    Edge,
    InternalError,
    ZeroCharacterError,
    delta_value,
    identity_perm,
    swing_value,
)
from .chargraph import (
    CharGraph,
    build_kchi,
    find_disjoint_pair,
    find_disjoint_triple,
    find_edge_disjoint_from_two,
    shape_classify,
    support_vertices,
)
from .circles import P3, P4, CircleId, on_circle

SIGMA1 = "sigma1"
COMPLEMENT = "complement"

Perm = tuple[int, ...]


@dataclass(frozen=True)
class CircleMembership:
    kind = "circle"
    circle: CircleId


@dataclass(frozen=True)
class ZeroSum:
    kind = "zero_sum"
    delta: Fraction
    perm: Perm


@dataclass(frozen=True)
class DisjointTriple:
    kind = "disjoint_triple"
    edges: tuple[Edge, Edge, Edge]
    perm: Perm


@dataclass(frozen=True)
class DisjointPair:
    kind = "disjoint_pair"
    edge: Edge
    others: tuple[Edge, Edge]  # the two edges share exactly one vertex
    perm: Perm


@dataclass(frozen=True)
class Star:
    kind = "star"
    center: int
    leaves: tuple[int, ...]  # at least 3
    perm: Perm


@dataclass(frozen=True)
class DisjointLeaves:
    kind = "disjoint_leaves"
    leaf_edges: tuple[Edge, Edge]  # (leaf, neighbor) order within each edge
    perm: Perm


@dataclass(frozen=True)
class Triangle:
    kind = "triangle"
    edges: tuple[Edge, Edge]  # disjoint pair covering the 4 support vertices
    triangle: tuple[int, int, int]
    value: Fraction  # nonzero swing value of the triangle
    perm: Perm


Certificate = Union[
    CircleMembership, ZeroSum, DisjointTriple, DisjointPair, Star, DisjointLeaves, Triangle
]


@dataclass(frozen=True)
class Classification:
    verdict: str  # SIGMA1 | COMPLEMENT
    certificate: Certificate

    def __post_init__(self) -> None:
        in_complement = isinstance(self.certificate, CircleMembership)
        if (self.verdict == COMPLEMENT) != in_complement:
            raise InternalError(
                f"verdict {self.verdict!r} does not match certificate {self.certificate!r}"
            )


def _complete_perm(assign: dict[int, int], n: int) -> Perm:
    """Extend a partial index assignment to a permutation of 1..n, filling
    the unassigned originals into the unassigned targets in order."""
    targets = set(assign.values())
    if len(targets) != len(assign):
        raise InternalError(f"partial assignment {assign} is not injective")
    rest_orig = [i for i in range(1, n + 1) if i not in assign]
    rest_targ = [t for t in range(1, n + 1) if t not in targets]
    full = dict(assign)
    full.update(zip(rest_orig, rest_targ))
    return tuple(full[i] for i in range(1, n + 1))


def _degrees(g: CharGraph) -> dict[int, list[int]]:
    nbrs: dict[int, list[int]] = {}
    for i, j in sorted(g.edges):
        nbrs.setdefault(i, []).append(j)
        nbrs.setdefault(j, []).append(i)
    return nbrs


def classify(chi: Character) -> Classification:
    if chi.is_zero():
        raise ZeroCharacterError("cannot classify the zero character")
    n = chi.n

    delta = delta_value(chi)
    if delta != 0:
        return Classification(SIGMA1, ZeroSum(delta, identity_perm(n)))

    g = build_kchi(chi)

    dft = find_edge_disjoint_from_two(g)
    if dft is not None:
        triple = find_disjoint_triple(g)
        if triple is not None:
            (a1, b1), (a2, b2), (a3, b3) = triple
            perm = _complete_perm(
                {a1: 1, b1: 2, a2: 3, b2: 4, a3: 5, b3: 6}, n
            )
            return Classification(SIGMA1, DisjointTriple(triple, perm))
        e, f, h = dft
        shared = set(f) & set(h)
        if len(shared) != 1:
            raise InternalError("non-triple witness must share a vertex")
        v = shared.pop()
        f_other = (set(f) - {v}).pop()
        h_other = (set(h) - {v}).pop()
        perm = _complete_perm({e[0]: 1, e[1]: 2, f_other: 3, v: 4, h_other: 5}, n)
        return Classification(SIGMA1, DisjointPair(e, (f, h), perm))

    shape = shape_classify(g)
    if shape.kind not in ("star", "small_k4"):
        raise InternalError(f"unexpected shape {shape.kind}")

    if shape.kind == "star" and len(shape.leaves) >= 3:
        center = shape.center
        l1, l2, l3 = shape.leaves[:3]
        perm = _complete_perm({l1: 1, l2: 2, l3: 3, center: 4}, n)
        return Classification(SIGMA1, Star(center, shape.leaves, perm))

    support = tuple(sorted(support_vertices(g)))
    if len(support) <= 3:
        # delta = 0 rules out a single edge, so the support is a full 3-set
        # (a two-edge star or a zero-sum triangle): a P3-circle point.
        if len(support) != 3:
            raise InternalError(f"zero-sum support {support} is not a 3-set")
        return _on_circle_or_fail(chi, CircleId(P3, support))

    if len(support) != 4:
        raise InternalError(f"small support {support} is not a 4-set")
    nbrs = _degrees(g)
    leaves = [v for v in support if len(nbrs[v]) == 1]
    for u, w in combinations(sorted(leaves), 2):
        eu = (u, nbrs[u][0])
        ew = (w, nbrs[w][0])
        if not set(eu) & set(ew):
            perm = _complete_perm({u: 1, eu[1]: 2, w: 3, ew[1]: 4}, n)
            return Classification(SIGMA1, DisjointLeaves((eu, ew), perm))

    pair = find_disjoint_pair(g)
    if pair is None:
        raise InternalError("4-vertex non-star graph must contain disjoint edges")
    for tri in combinations(support, 3):
        value = swing_value(chi, tri)
        if value != 0:
            missing = (set(support) - set(tri)).pop()
            p, q = pair
            if missing in q:
                inner, outer = p, q
            else:
                inner, outer = q, p
            # inner sits inside the triangle; outer contributes one vertex
            w = (set(outer) - {missing}).pop()
            i1, i2 = sorted(inner)
            perm = _complete_perm({i1: 1, i2: 2, w: 3, missing: 4}, n)
            return Classification(SIGMA1, Triangle((inner, outer), tri, value, perm))

    return _on_circle_or_fail(chi, CircleId(P4, support))


def _on_circle_or_fail(chi: Character, cid: CircleId) -> Classification:
    """The complement verdict for a character the pipeline has placed on
    ``cid``; a character that is not on it is an internal fault."""
    if not on_circle(chi, cid):
        raise InternalError(f"pipeline placed the character on {cid}, which misses it")
    return Classification(COMPLEMENT, CircleMembership(cid))


def verify_certificate(cls: Classification, chi: Character) -> bool:
    """Re-check every numeric claim a certificate makes about the character."""
    cert = cls.certificate
    if isinstance(cert, CircleMembership):
        return cls.verdict == COMPLEMENT and on_circle(chi, cert.circle)
    if cls.verdict != SIGMA1:
        return False
    if isinstance(cert, ZeroSum):
        return cert.delta == delta_value(chi) != 0
    g = build_kchi(chi)
    if isinstance(cert, DisjointTriple):
        e, f, h = cert.edges
        return (
            all(x in g.edges for x in cert.edges)
            and not set(e) & set(f)
            and not set(e) & set(h)
            and not set(f) & set(h)
        )
    if isinstance(cert, DisjointPair):
        f, h = cert.others
        return (
            cert.edge in g.edges
            and f in g.edges
            and h in g.edges
            and f != h
            and not set(cert.edge) & set(f)
            and not set(cert.edge) & set(h)
        )
    if isinstance(cert, Star):
        return (
            len(cert.leaves) >= 3
            and delta_value(chi) == 0
            and g.edges == frozenset(tuple(sorted((cert.center, l))) for l in cert.leaves)
        )
    if isinstance(cert, DisjointLeaves):
        (u, nu), (w, nw) = cert.leaf_edges
        deg = _degrees(g)
        return (
            tuple(sorted((u, nu))) in g.edges
            and tuple(sorted((w, nw))) in g.edges
            and deg.get(u) == [nu]
            and deg.get(w) == [nw]
            and not {u, nu} & {w, nw}
            and delta_value(chi) == 0
        )
    if isinstance(cert, Triangle):
        p, q = cert.edges
        tri_ok = set(cert.triangle) <= set(p) | set(q)
        return (
            tuple(sorted(p)) in g.edges
            and tuple(sorted(q)) in g.edges
            and not set(p) & set(q)
            and tri_ok
            and swing_value(chi, cert.triangle) == cert.value != 0
        )
    raise TypeError(f"unknown certificate {cert!r}")


# -- JSON ------------------------------------------------------------------


def classification_to_json_dict(cls: Classification) -> dict:
    cert = cls.certificate
    if isinstance(cert, CircleMembership):
        body: dict = {"kind": cert.kind, "id": cert.circle.to_json_dict()}
    elif isinstance(cert, ZeroSum):
        body = {"kind": cert.kind, "delta": str(cert.delta), "perm": list(cert.perm)}
    elif isinstance(cert, DisjointTriple):
        body = {
            "kind": cert.kind,
            "edges": [list(e) for e in cert.edges],
            "perm": list(cert.perm),
        }
    elif isinstance(cert, DisjointPair):
        body = {
            "kind": cert.kind,
            "edge": list(cert.edge),
            "others": [list(e) for e in cert.others],
            "perm": list(cert.perm),
        }
    elif isinstance(cert, Star):
        body = {
            "kind": cert.kind,
            "center": cert.center,
            "leaves": list(cert.leaves),
            "perm": list(cert.perm),
        }
    elif isinstance(cert, DisjointLeaves):
        body = {
            "kind": cert.kind,
            "leaf_edges": [list(e) for e in cert.leaf_edges],
            "perm": list(cert.perm),
        }
    elif isinstance(cert, Triangle):
        body = {
            "kind": cert.kind,
            "edges": [list(e) for e in cert.edges],
            "triangle": list(cert.triangle),
            "value": str(cert.value),
            "perm": list(cert.perm),
        }
    else:  # pragma: no cover
        raise TypeError(f"unknown certificate {cert!r}")
    return {"verdict": cls.verdict, "certificate": body}
