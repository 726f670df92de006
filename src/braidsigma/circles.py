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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .characters import Character, ZeroCharacterError, swing_value
from .chargraph import build_kchi, support_vertices

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


def _check_nonzero(chi: Character) -> None:
    if chi.is_zero():
        raise ZeroCharacterError("circle membership is undefined for the zero character")


def on_p3_circle(chi: Character, cid: CircleId) -> bool:
    _check_nonzero(chi)
    if cid.kind != P3:
        raise ValueError(f"expected a P3 circle, got {cid.kind}")
    support = set(cid.support)
    if not support_vertices(build_kchi(chi)) <= support:
        return False
    return swing_value(chi, cid.support) == 0


def on_p4_circle(chi: Character, cid: CircleId) -> bool:
    _check_nonzero(chi)
    if cid.kind != P4:
        raise ValueError(f"expected a P4 circle, got {cid.kind}")
    support = set(cid.support)
    if not support_vertices(build_kchi(chi)) <= support:
        return False
    total = Fraction(0)
    for e1, e2 in matchings_of(cid.support):
        if chi.weights[e1] != chi.weights[e2]:
            return False
        total += chi.weights[e1]
    return total == 0


def on_circle(chi: Character, cid: CircleId) -> bool:
    return on_p3_circle(chi, cid) if cid.kind == P3 else on_p4_circle(chi, cid)


def locate_circle(chi: Character) -> Optional[CircleId]:
    """The unique circle containing the character, or None.

    By the support lemma (module docstring) the only candidate is the
    circle over supp(chi): P3 if it has 3 vertices, P4 if it has 4.  One
    pass over the weights finds the support and stops past 4 vertices."""
    support: set[int] = set()
    for (i, j), v in chi.weights.items():
        if v != 0:
            support.update((i, j))
            if len(support) > 4:
                return None
    if not support:
        raise ZeroCharacterError("circle membership is undefined for the zero character")
    kind = {3: P3, 4: P4}.get(len(support))
    if kind is None:
        return None
    cid = CircleId(kind, tuple(sorted(support)))
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
