"""The support graph of a character and its combinatorial structure.

K_chi has an edge {i, j} exactly when the weight on {i, j} is nonzero.
The central structural fact used by the classifier, at every n: a graph
with no edge disjoint from two other edges is a star or lives on at most
4 vertices.  ``commands.oracle_star_or_small``, run by ``braidsigma
oracle``, checks every set of at most 5 edges on 7 vertices, which proves
it for all graphs:

- A star or a graph on at most 4 vertices has no edge disjoint from two
  others: two edges of a star meet at the center, and on 4 vertices only
  the edge on the other two vertices misses a given edge.
- Deleting edges keeps a graph free of edges disjoint from two others.
- Any other graph G, neither a star nor on at most 4 vertices, contains
  a subgraph H that is neither, with at most 5 edges on at most 7
  vertices.  Take edges of G one at a time, each with an endpoint not
  yet covered, until 5 vertices are covered: at most 4 edges, covering 5
  or 6 vertices.  If they form a star, it has 5 vertices; add an edge of
  G off its center.
- So a counterexample G would contain a counterexample H among the sets
  the check enumerates, up to relabeling the vertices, and there is none.

The edge searches run in O(E) for E edges, after sorting.  Edge (a, b) is
disjoint from exactly E - deg a - deg b + 1 edges, so one degree count
finds the first edge disjoint from k others.  Disjoint triples use the
matching kernel (Cygan et al., *Parameterized Algorithms*, 2015, ch. 2).
Take a greedy matching M in edge order, stopped at its third edge.

- |M| = 3: M is the least triple, found in one O(E) scan.  An edge t1
  starts no triple only when the later edges that miss it form a star or
  a triangle.  M's first edge t1 is the first edge of all, and it starts
  one: M's other two edges come after it and miss it.  M's second edge
  t2 is the first that misses t1, so it is the least one: an earlier
  partner would have been taken first.  M's third edge is the first
  that misses both.
- |M| <= 2: every edge meets the <= 4 vertices C = V(M).  The least
  triple uses only edges inside C and, for each c in C, the 3 smallest
  edges from c to outside C.  Exchange argument: if the least triple has
  (c, x) with x outside C, its other two edges each meet C, so they
  block at most two outside vertices; one of c's 3 smallest outside
  edges is then free and replaces (c, x) by a smaller edge.  This kernel
  of at most 18 edges is built in one pass and searched in the order of
  its triples: for each t1, the later edges that miss it, and for each
  t2 among those, the first later one that misses t2.  Here t1 need not
  be the first edge.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from itertools import islice

from .characters import Character, Edge
from .record import Record


class CharGraph(Record):
    """K_chi on strands 1..n: ``labels`` maps each edge, a pair (i, j) with
    i < j of nonzero weight, to its weight, so its keys are the edges.
    Construction also derives, once, what every stage reads: ``order``,
    the edges sorted, and ``nbrs``, each support vertex (an endpoint of
    some edge) mapped to its neighbours in increasing order.  So
    ``set(nbrs)`` is the support and ``len(nbrs[v])`` the degree of v; the
    lists must not be mutated."""

    def __init__(self, n: int, labels: Mapping[Edge, Fraction]) -> None:
        order = tuple(sorted(labels))
        nbrs: dict[int, list[int]] = {}
        for i, j in order:  # (i, v) edges precede (v, j) ones, so each list ascends
            nbrs.setdefault(i, []).append(j)
            nbrs.setdefault(j, []).append(i)
        d = self.__dict__
        d["n"] = n
        d["labels"] = labels
        d["order"] = order
        d["nbrs"] = nbrs


def build_kchi(chi: Character) -> CharGraph:
    """Support graph: exactly the pairs with nonzero weight, labeled by the
    character's support itself.  Built once per character and cached on
    it."""
    g = chi.__dict__.get("_kchi")
    if g is None:
        g = chi.__dict__["_kchi"] = CharGraph(chi.n, chi.support)
    return g


def _first_disjoint_from(g: CharGraph, k: int) -> tuple[Edge, ...] | None:
    """The first edge e of K_chi disjoint from at least k others, followed
    by the k smallest of them; None if there is none."""
    edges, nbrs = g.order, g.nbrs
    for e in edges:
        a, b = e
        if len(edges) - len(nbrs[a]) - len(nbrs[b]) + 1 >= k:
            away = (f for f in edges if a not in f and b not in f)
            return (e, *islice(away, k))
    return None


def find_edge_disjoint_from_two(g: CharGraph) -> tuple[Edge, Edge, Edge] | None:
    """Lexicographically least triple (e; f, g) with e disjoint from both
    f and g, f < g.  None if no edge is disjoint from two others."""
    return _first_disjoint_from(g, 2)


def find_disjoint_triple(g: CharGraph) -> tuple[Edge, Edge, Edge] | None:
    """Lexicographically least triple of pairwise disjoint edges, if any:
    the greedy matching or a triple of its kernel (module docstring)."""
    edges = g.order
    matched: set[int] = set()
    matching = []
    for a, b in edges:
        if a not in matched and b not in matched:
            matched.update((a, b))
            matching.append((a, b))
            if len(matching) == 3:
                return tuple(matching)
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
    for k, (a, b) in enumerate(kernel):
        away = [f for f in kernel[k + 1:] if a not in f and b not in f]
        for m, (c, d) in enumerate(away):
            for h in away[m + 1:]:
                if c not in h and d not in h:
                    return ((a, b), (c, d), h)
    return None


def find_disjoint_pair(g: CharGraph) -> tuple[Edge, Edge] | None:
    """Lexicographically least pair of disjoint edges, if any: the first
    edge with a disjoint partner, and its smallest one (every partner of
    that edge has a partner itself, so it comes later)."""
    return _first_disjoint_from(g, 1)


def shape_classify(g: CharGraph) -> int | None:
    """The center of K_chi if it is a star, else None (the empty graph
    too).  A star's center lies on every edge, the first one too, so its
    degree is the edge count; a single edge reports its smaller endpoint."""
    return next((v for e in g.order[:1] for v in e if len(g.nbrs[v]) == len(g.order)), None)
