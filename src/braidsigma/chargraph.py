"""The support graph of a character and its combinatorial structure.

K_chi has an edge {i, j} exactly when the weight on {i, j} is nonzero.
The central structural fact used by the classifier: a graph with no edge
disjoint from two other edges is a star or lives on at most 4 vertices.
``oracle_star_or_small`` proves this exhaustively for small vertex counts.

The edge searches run in O(E) for E edges, after sorting.  Edge (a, b) is
disjoint from exactly E - deg a - deg b + 1 edges, so one degree count
finds the first edge disjoint from k others.  Disjoint triples use the
matching kernel (Cygan et al., *Parameterized Algorithms*, 2015, ch. 2).
Take a greedy maximal matching M in edge order.

- |M| <= 2: every edge meets the <= 4 vertices C = V(M).  The least
  triple uses only edges inside C and, for each c in C, the 3 smallest
  edges from c to outside C.  Exchange argument: if the least triple has
  (c, x) with x outside C, its other two edges each meet C, so they block
  at most two outside vertices; one of c's 3 smallest outside edges is
  then free and replaces (c, x) by a smaller edge.
- |M| >= 3: a triple exists; let T = (t1, t2, t3) be the least one and
  e < t1 an edge.  The first vertex of e lies on no edge of T but
  possibly t1, and its second vertex on at most one.  Unless e starts at
  t1's first vertex and ends on t2 or t3, e misses two edges of T and
  forms a smaller triple with them.  So at most 4 edges precede t1, and
  scanning the edges in order for t1 stops after at most 5.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, islice
from typing import Mapping, Optional, Sequence

from .characters import Character, Edge, InternalError, swing_value


@dataclass(frozen=True)
class CharGraph:
    """K_chi on strands 1..n: ``edges`` are the pairs of nonzero weight and
    ``labels`` their weights.  Construction also derives, once, what every
    stage reads: ``order``, the edges sorted, and ``nbrs``, each support
    vertex (an endpoint of some edge) mapped to its neighbours in
    increasing order.  So ``set(nbrs)`` is the support and ``len(nbrs[v])``
    the degree of v; the lists must not be mutated."""

    n: int
    edges: frozenset[Edge]
    labels: Mapping[Edge, Fraction]
    order: tuple[Edge, ...] = field(init=False, repr=False, compare=False)
    nbrs: dict[int, list[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        order = tuple(sorted(self.edges))
        nbrs: dict[int, list[int]] = {}
        for i, j in order:  # (i, v) edges precede (v, j) ones, so each list ascends
            nbrs.setdefault(i, []).append(j)
            nbrs.setdefault(j, []).append(i)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "nbrs", nbrs)


@dataclass(frozen=True)
class ShapeClass:
    """Structure tag for a support graph.

    kind is one of "empty", "star", "small_k4", "has_disjoint_from_two".
    A graph that is both a star and within 4 vertices reports "star".
    "other" is unreachable (tested exhaustively by the oracle).
    """

    kind: str
    center: Optional[int] = None
    leaves: tuple[int, ...] = ()
    vertex_set: tuple[int, ...] = ()
    witness: Optional[tuple[Edge, Edge, Edge]] = None


def build_kchi(chi: Character) -> CharGraph:
    """Support graph: exactly the pairs with nonzero weight, labels copied.
    Built once per character and cached on it."""
    g = chi.__dict__.get("_kchi")
    if g is None:
        labels = {e: v for e, v in chi.weights.items() if v != 0}
        g = chi.__dict__["_kchi"] = CharGraph(chi.n, frozenset(labels), labels)
    return g


def _disjoint(e: Edge, f: Edge) -> bool:
    return not (set(e) & set(f))


def _first_disjoint_from(edges: Sequence[Edge], k: int) -> Optional[tuple[Edge, ...]]:
    """For sorted ``edges``: the first edge e disjoint from at least k
    others, followed by the k smallest of them; None if there is none."""
    deg = Counter(v for e in edges for v in e)
    for e in edges:
        a, b = e
        if len(edges) - deg[a] - deg[b] + 1 >= k:
            away = (f for f in edges if a not in f and b not in f)
            return (e, *islice(away, k))
    return None


def find_edge_disjoint_from_two(
    g: CharGraph,
) -> Optional[tuple[Edge, Edge, Edge]]:
    """Lexicographically least triple (e; f, g) with e disjoint from both
    f and g, f < g.  None if no edge is disjoint from two others."""
    return _first_disjoint_from(g.order, 2)


def find_disjoint_triple(g: CharGraph) -> Optional[tuple[Edge, Edge, Edge]]:
    """Lexicographically least triple of pairwise disjoint edges, if any
    (the matching kernel of the module docstring)."""
    edges = g.order
    matched: set[int] = set()
    size = 0
    for a, b in edges:
        if a not in matched and b not in matched:
            matched.update((a, b))
            size += 1
            if size == 3:
                break
    if size == 3:
        for idx, (a, b) in enumerate(edges):
            later = [f for f in edges[idx + 1:] if a not in f and b not in f]
            pair = _first_disjoint_from(later, 1)
            if pair is not None:
                return ((a, b), *pair)
        raise InternalError("a matching of size 3 must contain a disjoint triple")
    outside: Counter[int] = Counter()
    kernel = []
    for a, b in edges:
        if a in matched and b in matched:
            kernel.append((a, b))
        else:
            c = a if a in matched else b
            if outside[c] < 3:
                outside[c] += 1
                kernel.append((a, b))
    for e, f, h in combinations(kernel, 3):
        if _disjoint(e, f) and _disjoint(e, h) and _disjoint(f, h):
            return (e, f, h)
    return None


def find_disjoint_pair(g: CharGraph) -> Optional[tuple[Edge, Edge]]:
    """Lexicographically least pair of disjoint edges, if any: the first
    edge with a disjoint partner, and its smallest one (every partner of
    that edge has a partner itself, so it comes later)."""
    return _first_disjoint_from(g.order, 1)


def shape_classify(g: CharGraph) -> ShapeClass:
    witness = find_edge_disjoint_from_two(g)
    if witness is not None:
        return ShapeClass(kind="has_disjoint_from_two", witness=witness)
    if not g.order:
        return ShapeClass(kind="empty")
    # a star's center lies on every edge, the first one too, so its degree
    # is the edge count; a single edge reports its smaller endpoint
    center = next((v for v in g.order[0] if len(g.nbrs[v]) == len(g.order)), None)
    if center is not None:
        return ShapeClass(kind="star", center=center, leaves=tuple(g.nbrs[center]))
    verts = tuple(sorted(g.nbrs))
    if len(verts) > 4:  # pragma: no cover - would contradict the shape lemma
        return ShapeClass(kind="other")
    return ShapeClass(kind="small_k4", vertex_set=verts)


def oracle_star_or_small(max_vertices: int) -> list[int]:
    """Exhaustive check of the star-or-small dichotomy.

    Enumerates every edge subset of K_m with m = max_vertices (smaller
    vertex counts are subsumed; vertices are taken as endpoints only) and
    asserts: no-edge-disjoint-from-two <=> (star or at most 4 endpoints).
    Returns the list of counterexample bitmasks, which must be empty.
    """
    if max_vertices > 8:
        raise ValueError("enumeration budget is 8 vertices")
    m = max_vertices
    pairs = list(combinations(range(m), 2))
    ne = len(pairs)
    vmask = [(1 << i) | (1 << j) for i, j in pairs]
    # disj[e] = bitmask of edges sharing no endpoint with edge e
    disj = [
        sum(1 << f for f in range(ne) if not (vmask[f] & vmask[e]))
        for e in range(ne)
    ]
    counterexamples = []
    for subset in range(1 << ne):
        members = []
        rest = subset
        while rest:
            low = rest & -rest
            members.append(low.bit_length() - 1)
            rest ^= low
        has_dft = False
        for e in members:
            if (subset & disj[e]).bit_count() >= 2:
                has_dft = True
                break
        if members:
            union = 0
            common = vmask[members[0]]
            for e in members:
                union |= vmask[e]
                common &= vmask[e]
            star_or_small = bool(common) or union.bit_count() <= 4
        else:
            star_or_small = True
        if has_dft == star_or_small:
            counterexamples.append(subset)
    return counterexamples


@dataclass(frozen=True)
class MatchingValues:
    """Shared values on the three perfect matchings of K_4:
    x on {12|34}, y on {13|24}, z on {14|23}; x + y + z = 0."""

    x: Fraction
    y: Fraction
    z: Fraction


def triple_sum_consequences(chi: Character) -> Optional[MatchingValues]:
    """For a character on P_4: if all four triangle swing values vanish,
    opposite edges carry equal weights and the three shared values sum to
    zero.  Returns those values, or None when some triangle survives."""
    if chi.n != 4:
        raise ValueError(f"triple_sum_consequences needs n=4, got n={chi.n}")
    for triple in combinations(range(1, 5), 3):
        if swing_value(chi, triple) != 0:
            return None
    x, y, z = chi.weight(1, 2), chi.weight(1, 3), chi.weight(1, 4)
    if not (x == chi.weight(3, 4) and y == chi.weight(2, 4) and z == chi.weight(2, 3)):
        raise InternalError("vanishing triangles must force equal opposite edges")
    if x + y + z != 0:
        raise InternalError("vanishing triangles must force a zero matching sum")
    return MatchingValues(x, y, z)


def to_dot(g: CharGraph) -> str:
    """DOT export: vertices v1..vn, edges labeled by their rational weight,
    isolated vertices dotted."""
    lines = ["graph kchi {"]
    for v in range(1, g.n + 1):
        attr = "" if v in g.nbrs else " [style=dotted]"
        lines.append(f"  v{v}{attr};")
    for i, j in g.order:
        lines.append(f'  v{i} -- v{j} [label="{g.labels[(i, j)]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
