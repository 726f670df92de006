"""Total decision procedure: every nonzero character is either located on a
complement circle or handed a certificate naming the reduction lemma that
places it in the invariant.

The pipeline mirrors the case analysis of the classification theorem:
nonzero total sum first, then an edge disjoint from two others, then the
star case, and finally the small-support cases that end on a circle.
Earlier stages win when several lemmas apply, so certificates are
deterministic.

Lemma table.  Each certificate class states its lemma once: its fields
(its constructor's parameters, the JSON keys), ``check`` (what
``verify_certificate`` re-checks; any value but the row's int strands
fails it, and none raises), ``named`` (the strands that get the
normal-form indices 1, 2, ... in order) and ``witness`` (the lemma's J
and recovery factorizations in normal form).
Every row's I is the pairs of 1..n but each factorization's ``recovers``,
then each one's ``added``, built in ``witness._lemma_shape``.  The derived
``perm`` sends the k-th named strand to k and the other strands, in
increasing order, to the indices after the named ones.  K is the support
graph K_chi, edges are unordered, Delta is the total sum.

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

from fractions import Fraction
from itertools import combinations

from .characters import (
    Character,
    Edge,
    InternalError,
    SwingSet,
    ZeroCharacterError,
    _delta,
    _equals,
    _int_strands,
    _swing_pair,
    delta_value,
    swing_set,
)
from .chargraph import (
    CharGraph,
    build_kchi,
    find_disjoint_pair,
    find_disjoint_triple,
    find_edge_disjoint_from_two,  # unused here; bench/tracing.py rebinds this name
    shape_classify,
)
from .circles import CircleId, locate_circle, on_circle
from .record import Record

SIGMA1 = "sigma1"
COMPLEMENT = "complement"

Perm = tuple[int, ...]


class Factorization(Record):
    """A recovery identity: the swing on ``added`` equals the ordered product
    of the swings on ``factors``, so the pair ``recovers`` (dropped from the
    standard generating set) is expressible from the rest."""

    def __init__(self, added: SwingSet, factors: tuple[SwingSet, ...], recovers: Edge) -> None:
        d = self.__dict__
        d["added"] = added
        d["factors"] = factors
        d["recovers"] = recovers


WitnessData = tuple[tuple[SwingSet, ...], tuple[Factorization, ...]]  # J, factorizations


def _complement(i: int, n: int) -> SwingSet:
    return tuple(k for k in range(1, n + 1) if k != i)


def _recovery(k: int) -> tuple[Factorization, ...]:
    """(1, 4) and (2, 4) each recovered from the triple it spans with
    vertex k: the swing on the triple is the product of its three pairs."""
    triples = [(a, tuple(sorted((a, 4, k)))) for a in (1, 2)]
    return tuple(Factorization(t, tuple(combinations(t, 2)), (a, 4)) for a, t in triples)


# The recovery factorizations of the lemma table, keyed by the vertex k
# each triple adds: (1, 4, 5) and (2, 4, 5) for disjoint_pair, (1, 3, 4) and
# (2, 3, 4) for triangle.  They lie on strands 1..5 and do not depend on n;
# ``braidsigma verify`` proves each in P_5 (``commands.cmd_verify`` says why
# that settles every n), so witness verification does not repeat them, and
# accepts no other factorization.
RECOVERY_FACTORIZATIONS = {5: _recovery(5), 3: _recovery(3)}


def _has_edges(g: CharGraph, *pairs: Edge) -> bool:
    return all(tuple(sorted(p)) in g.labels for p in pairs)


def _are_edges(edges: object, k: int) -> bool:
    """Are ``edges`` a tuple or list of k pairs of int strands?"""
    pairs = edges if isinstance(edges, (tuple, list)) else ()
    return len(pairs) == k and all(_int_strands(e) and len(e) == 2 for e in pairs)


def _hinge(f: Edge, h: Edge) -> int | None:
    """The vertex two edges share, if they share exactly one."""
    common = set(f) & set(h)
    return common.pop() if len(common) == 1 else None


class Lemma(Record):
    """An invariant-side certificate; each subclass is one row of the
    module docstring's table, its constructor's parameters (so its
    ``_fields``) the row's fields.  ``named`` assumes ``check`` holds."""

    verdict = SIGMA1


class ZeroSum(Lemma):
    kind = "zero_sum"

    def __init__(self, delta: Fraction) -> None:
        self.__dict__["delta"] = delta

    def check(self, chi: Character) -> bool:
        return _equals(self.delta, _delta(chi)) and self.delta != 0

    def named(self) -> tuple[int, ...]:
        return ()

    @staticmethod
    def witness(n: int) -> WitnessData:
        return (tuple(range(1, n + 1)),), ()


class DisjointTriple(Lemma):
    kind = "disjoint_triple"

    def __init__(self, edges: tuple[Edge, Edge, Edge]) -> None:
        self.__dict__["edges"] = edges

    def check(self, chi: Character) -> bool:
        disjoint = _are_edges(self.edges, 3) and len({v for e in self.edges for v in e}) == 6
        return disjoint and _has_edges(build_kchi(chi), *self.edges)

    def named(self) -> tuple[int, ...]:
        return sum(self.edges, ())

    @staticmethod
    def witness(n: int) -> WitnessData:
        return ((1, 2), (3, 4), (5, 6)), ()


class DisjointPair(Lemma):
    kind = "disjoint_pair"

    def __init__(self, edge: Edge, others: tuple[Edge, Edge]) -> None:
        d = self.__dict__
        d["edge"] = edge
        d["others"] = others  # the two edges share exactly one vertex

    def check(self, chi: Character) -> bool:
        if not (_are_edges((self.edge,), 1) and _are_edges(self.others, 2)):
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
        return ((1, 2), (3, 4), (4, 5)), RECOVERY_FACTORIZATIONS[5]


class Star(Lemma):
    kind = "star"

    def __init__(self, center: int, leaves: tuple[int, ...]) -> None:
        d = self.__dict__
        d["center"] = center
        d["leaves"] = leaves  # at least 3

    def check(self, chi: Character) -> bool:
        c, leaves = self.center, self.leaves  # a leaf equal to c makes no edge of K
        return (
            _int_strands((c,)) and _int_strands(leaves)
            and len(set(leaves)) == len(leaves) >= 3
            and _delta(chi)[0] == 0
            and build_kchi(chi).labels.keys() == {tuple(sorted((c, l))) for l in leaves}
        )

    def named(self) -> tuple[int, ...]:
        return (*self.leaves[:3], self.center)

    @staticmethod
    def witness(n: int) -> WitnessData:
        return ((1, 4), (2, 4), (3, 4), _complement(1, n), _complement(2, n), _complement(3, n)), ()


class DisjointLeaves(Lemma):
    kind = "disjoint_leaves"

    def __init__(self, leaf_edges: tuple[Edge, Edge]) -> None:
        self.__dict__["leaf_edges"] = leaf_edges  # (leaf, neighbor) order within each edge

    def check(self, chi: Character) -> bool:
        if not _are_edges(self.leaf_edges, 2):
            return False
        (u, a), (w, b) = self.leaf_edges
        nbrs = build_kchi(chi).nbrs  # nbrs[u] == [a] puts u-a in K
        return (
            nbrs.get(u) == [a]
            and nbrs.get(w) == [b]
            and not {u, a} & {w, b}
            and _delta(chi)[0] == 0
        )

    def named(self) -> tuple[int, ...]:
        return sum(self.leaf_edges, ())

    @staticmethod
    def witness(n: int) -> WitnessData:
        return ((1, 2), (3, 4), (1, 2, 3), _complement(1, n), _complement(3, n)), ()


class Triangle(Lemma):
    kind = "triangle"

    def __init__(
        self, edges: tuple[Edge, Edge], triangle: tuple[int, int, int], value: Fraction
    ) -> None:
        d = self.__dict__
        d["edges"] = edges  # disjoint pair covering the 4 support vertices
        d["triangle"] = triangle  # the first edge plus one vertex of the second
        d["value"] = value  # nonzero swing value of the triangle

    def check(self, chi: Character) -> bool:
        if not (_are_edges(self.edges, 2) and _int_strands(self.triangle)):
            return False
        p, q = self.edges
        tri = set(self.triangle)
        return (
            _has_edges(build_kchi(chi), p, q)
            and not set(p) & set(q)
            and len(tri) == len(self.triangle) == 3
            and set(p) <= tri <= set(p) | set(q)
            and _equals(self.value, _swing_pair(chi, swing_set(self.triangle, chi.n)))
            and self.value != 0
        )

    def named(self) -> tuple[int, ...]:
        (a, b), q = sorted(self.edges[0]), self.edges[1]
        (c,) = set(self.triangle) - {a, b}
        (d,) = set(q) - {c}
        return a, b, c, d

    @staticmethod
    def witness(n: int) -> WitnessData:
        return ((1, 2), (1, 2, 3), (3, 4)), RECOVERY_FACTORIZATIONS[3]


class CircleMembership(Record):
    kind = "circle"
    verdict = COMPLEMENT

    def __init__(self, circle: CircleId) -> None:
        self.__dict__["circle"] = circle

    def check(self, chi: Character) -> bool:
        return isinstance(self.circle, CircleId) and on_circle(chi, self.circle)


# not typing.Union, whose cache would keep each re-imported copy of the package alive
Certificate = Lemma | CircleMembership


class Classification(Record):
    """A certificate for a character on n strands.  The verdict is the
    certificate's own: SIGMA1 for a lemma, COMPLEMENT for a circle."""

    def __init__(self, certificate: Certificate, n: int) -> None:
        d = self.__dict__
        d["certificate"] = certificate
        d["n"] = n  # the strand count the certificate was made for

    @property
    def verdict(self) -> str:
        return self.certificate.verdict

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

    if _delta(chi)[0] != 0:
        return Classification(ZeroSum(delta_value(chi)), n)

    g = build_kchi(chi)
    if not g.labels:
        raise ZeroCharacterError("the zero character has no class on the sphere")
    shape = shape_classify(g)

    if shape.kind == "has_disjoint_from_two":
        triple = find_disjoint_triple(g)
        if triple is not None:
            return Classification(DisjointTriple(triple), n)
        e, f, h = shape.witness
        return Classification(DisjointPair(e, (f, h)), n)

    if shape.kind == "star" and len(shape.leaves) >= 3:
        return Classification(Star(shape.center, shape.leaves), n)

    support = tuple(sorted(g.nbrs))
    if len(support) == 4:
        leaf_edges = [(v, g.nbrs[v][0]) for v in support if len(g.nbrs[v]) == 1]
        for eu, ew in combinations(leaf_edges, 2):
            if not set(eu) & set(ew):
                return Classification(DisjointLeaves((eu, ew)), n)

        pair = find_disjoint_pair(g)
        if pair is None:
            raise InternalError("4-vertex non-star graph must contain disjoint edges")
        for tri in combinations(support, 3):
            x, d = _swing_pair(chi, tri)
            if x != 0:
                # the edge inside the triangle comes first; the other edge
                # holds the one support vertex the triangle misses
                p, q = pair
                inner, outer = (q, p) if set(q) <= set(tri) else (p, q)
                return Classification(Triangle((inner, outer), tri, Fraction(x, d)), n)

    # no lemma holds, so the character is on the circle over its support
    # (the support lemma of ``circles``), which must hold it
    cid = locate_circle(chi)
    if cid is None:
        raise InternalError(f"no lemma holds and no circle over {support} holds the character")
    return Classification(CircleMembership(cid), n)


def verify_certificate(cls: Classification, chi: Character) -> bool:
    """Re-check every numeric claim a certificate makes about the character;
    the verdict is the certificate's own.  Anything but a Lemma or a
    CircleMembership in the certificate's place fails."""
    cert = cls.certificate
    return cls.n == chi.n and isinstance(cert, Certificate) and cert.check(chi)


# -- JSON ------------------------------------------------------------------


def classification_to_json_dict(cls: Classification) -> dict:
    """Each certificate field under its own name (a tuple as it is, which
    ``json.dumps`` writes as an array; a Fraction as a string), then the
    derived perm; a circle certificate prints its circle as "id", no perm."""
    cert = cls.certificate
    if isinstance(cert, CircleMembership):
        body: dict = {"kind": cert.kind, "id": cert.circle.to_json_dict()}
    else:
        body = {"kind": cert.kind}
        for name in cert._fields:
            v = getattr(cert, name)
            body[name] = str(v) if isinstance(v, Fraction) else v
        body["perm"] = cls.perm
    return {"verdict": cls.verdict, "certificate": body}
