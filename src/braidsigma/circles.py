"""The complement circles: C(n,3) three-point circles and C(n,4) four-point
circles on the character sphere.

A character lies on the circle over a 3-set A when its support fits inside
A and the triangle sum vanishes; on the circle over a 4-set when its
support fits, opposite edges carry equal weights, and the three shared
matching values sum to zero.

Support lemma: a circle over A contains a nonzero character chi only if
supp(chi), the set of endpoints of its nonzero edges, is exactly A.
  - P3: if supp(chi) is a proper subset of A, it has 2 vertices, so chi is
    a single edge and the triangle sum is that edge's nonzero weight.
  - P4: a vertex of A outside supp(chi) lies on one edge of each perfect
    matching; that edge is 0, so its opposite edge is 0 too, x = y = z = 0,
    and chi would be zero.
So a character lies on at most one circle, the one over its own support,
and ``locate_circle`` tests that single candidate.

Every circle point has Delta = 0, so a character with Delta != 0 is on none.
  - P3: the support lies in A, so Delta is the triangle sum, which vanishes.
  - P4: each matching value sits on two edges, so Delta = 2(x + y + z) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .characters import Character, ZeroCharacterError, delta_value
from .chargraph import build_kchi

P3 = "P3"
P4 = "P4"


@dataclass(frozen=True)
class CircleId:
    kind: str
    support: tuple[int, ...]

    def __post_init__(self) -> None:
        size = {P3: 3, P4: 4}.get(self.kind)
        if size is None:
            raise ValueError(f"circle kind must be P3 or P4, got {self.kind!r}")
        if len(self.support) != size or tuple(sorted(self.support)) != self.support:
            raise ValueError(
                f"{self.kind} circle needs a sorted {size}-set, got {self.support}"
            )

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "support": list(self.support)}

    @staticmethod
    def from_json_dict(data: dict) -> "CircleId":
        return CircleId(data["kind"], tuple(data["support"]))


def matchings_of(support: tuple[int, ...]) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The three perfect matchings of K_4 on a sorted 4-set {i<j<k<l},
    in the fixed order ({ij},{kl}), ({ik},{jl}), ({il},{jk})."""
    i, j, k, l = support
    return [((i, j), (k, l)), ((i, k), (j, l)), ((i, l), (j, k))]


def enumerate_circles(n: int) -> list[CircleId]:
    """All complement circles for P_n: 3-sets first, then 4-sets, both in
    lexicographic order.  Length is C(n,3) + C(n,4)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    ids = [CircleId(P3, t) for t in combinations(range(1, n + 1), 3)]
    ids += [CircleId(P4, q) for q in combinations(range(1, n + 1), 4)]
    return ids


def on_circle(chi: Character, cid: CircleId) -> bool:
    """Is the nonzero character on the circle ``cid``?  By the support
    lemma its support must be exactly the circle's, so a circle reaching
    past the strands 1..n holds no character on P_n."""
    g = build_kchi(chi)
    if not g.nbrs:
        raise ZeroCharacterError("circle membership is undefined for the zero character")
    if g.nbrs.keys() != set(cid.support):
        return False
    w = g.labels
    if cid.kind == P3:
        return sum(w.get(e, 0) for e in combinations(cid.support, 2)) == 0
    values = [(w.get(e1, 0), w.get(e2, 0)) for e1, e2 in matchings_of(cid.support)]
    return all(a == b for a, b in values) and sum(a for a, _ in values) == 0


def locate_circle(chi: Character) -> Optional[CircleId]:
    """The unique circle containing the character, or None.

    Every circle point has Delta = 0, and by the support lemma the only
    candidate is the circle over supp(chi), read off the cached K_chi: P3
    if it has 3 vertices, P4 if it has 4 (module docstring)."""
    if delta_value(chi) != 0:
        return None
    g = build_kchi(chi)
    if not g.nbrs:
        raise ZeroCharacterError("circle membership is undefined for the zero character")
    kind = {3: P3, 4: P4}.get(len(g.nbrs))
    if kind is None:
        return None
    cid = CircleId(kind, tuple(sorted(g.nbrs)))
    return cid if on_circle(chi, cid) else None


def sample_circle(
    cid: CircleId, t: tuple[Fraction | int, Fraction | int], n: int
) -> Character:
    """A point on the circle with parameters (t1, t2, -t1-t2) spread over the
    support edges (P3) or the three perfect matchings (P4)."""
    t1, t2 = Fraction(t[0]), Fraction(t[1])
    if t1 == 0 and t2 == 0:
        raise ZeroCharacterError("parameters (0, 0) give the zero character")
    if cid.support[-1] > n:
        raise ValueError(f"circle support {cid.support} out of range for n={n}")
    values = (t1, t2, -t1 - t2)
    if cid.kind == P3:
        i, j, k = cid.support
        return Character.sparse(n, {(i, j): values[0], (i, k): values[1], (j, k): values[2]})
    weights = {}
    for (e1, e2), v in zip(matchings_of(cid.support), values):
        weights[e1] = v
        weights[e2] = v
    return Character.sparse(n, weights)
