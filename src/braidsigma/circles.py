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

from .characters import Character, ZeroCharacterError, _delta, _int_strands
from .chargraph import build_kchi
from .record import Record

P3 = "P3"
P4 = "P4"


class CircleId(Record):
    """The circle over a 3-set (P3) or a 4-set (P4) of strands, given as
    strictly increasing ints >= 1 (bools refused)."""

    _fields = ("kind", "support")

    def __init__(self, kind: str, support: tuple[int, ...]) -> None:
        d = self.__dict__
        d["kind"] = kind
        d["support"] = support
        size = {P3: 3, P4: 4}.get(kind) if isinstance(kind, str) else None
        if size is None:
            raise ValueError(f"circle kind must be P3 or P4, got {kind!r}")
        s = support
        if not (_int_strands(s) and len(s) == size and tuple(sorted(set(s))) == s and s[0] >= 1):
            raise ValueError(f"{kind} circle needs {size} increasing int strands >= 1, got {s}")

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "support": list(self.support)}

    @staticmethod
    def from_json_dict(data: dict) -> "CircleId":
        """The id written by ``to_json_dict``; any other shape of JSON, like
        any bad kind or strands, is refused with ValueError."""
        if not isinstance(data, dict):
            raise ValueError(f"circle id must be a JSON object, got {type(data).__name__}")
        for key in ("kind", "support"):
            if key not in data:
                raise ValueError(f"circle id has no {key!r}")
        support = data["support"]
        if not isinstance(support, list):
            raise ValueError(f"circle support must be a JSON list, got {type(support).__name__}")
        return CircleId(data["kind"], tuple(support))


def matchings_of(support: tuple[int, ...]) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The three perfect matchings of K_4 on a sorted 4-set {i<j<k<l},
    in the fixed order ({ij},{kl}), ({ik},{jl}), ({il},{jk})."""
    i, j, k, l = support
    return [((i, j), (k, l)), ((i, k), (j, l)), ((i, l), (j, k))]


def on_circle(chi: Character, cid: CircleId) -> bool:
    """Is the nonzero character on the circle ``cid``?  By the support
    lemma its support must be exactly the circle's, so a circle reaching
    past the strands 1..n holds no character on P_n."""
    g = build_kchi(chi)
    if not g.nbrs:
        raise ZeroCharacterError("circle membership is undefined for the zero character")
    if g.nbrs.keys() != set(cid.support):
        return False
    # the support is the circle's, so Delta is the P3 triangle sum, and twice
    # the P4 matching sum when opposite weights agree (module docstring); an
    # int and a Fraction compare exactly, so equal weights are equal values
    w = chi.support
    return _delta(chi)[0] == 0 and (
        cid.kind == P3 or all(w.get(e1) == w.get(e2) for e1, e2 in matchings_of(cid.support))
    )


def locate_circle(chi: Character) -> CircleId | None:
    """The unique circle containing the character, or None.

    Every circle point has Delta = 0, and by the support lemma the only
    candidate is the circle over supp(chi), read off the cached K_chi: P3
    if it has 3 vertices, P4 if it has 4 (module docstring)."""
    if _delta(chi)[0] != 0:
        return None
    g = build_kchi(chi)
    if not g.nbrs:
        raise ZeroCharacterError("circle membership is undefined for the zero character")
    kind = {3: P3, 4: P4}.get(len(g.nbrs))
    if kind is None:
        return None
    cid = CircleId(kind, tuple(sorted(g.nbrs)))
    return cid if on_circle(chi, cid) else None
