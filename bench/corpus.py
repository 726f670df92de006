"""Seeded workload corpora for the benchmark, built with the standard library
only.

Nothing here imports ``braidsigma``: the program under test sees only the
JSON text of each character, and corpus generation stays outside the
measured set-up time.  Every generator draws from ``random.Random`` seeded
with a string (``"<workload>:<seed>"``), which Python hashes with SHA-512,
so the same seed gives a byte-identical corpus on every interpreter run.

Each item carries the certificate kind its generator built it to have
(``None`` where the generator draws at random and intends no kind), so the
correctness gate can check the classifier against the construction.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

Edge = tuple[int, int]
Weights = dict[Edge, Fraction]

KINDS = (
    "zero_sum",
    "disjoint_triple",
    "disjoint_pair",
    "star",
    "disjoint_leaves",
    "triangle",
    "circle",
)

STRATIFIED_NS = (4, 5, 6, 7, 8)
STRATIFIED_PER_CELL = 40
SCALING_NS = (16, 32)
SCALING_FAMILIES = ("two_star", "star", "dense", "single_edge", "p3_point", "p4_point")
# Members per family at each n.  With the same count in all twelve cells the
# median falls exactly between the sixth and seventh cheapest cells, where
# one character's noise moved latency_p50_ms by 20%; unequal counts put it
# inside a cell.
SCALING_PER_CELL = {16: 7, 32: 5}
CLI_NS = (4, 5, 6, 8, 16)
CLI_PER_N = 8
# The acceptance test pairs the 15,624-character n=4 grid with 10,000
# random characters each at n=5 and n=6.  A pass certifies a seeded
# twentieth of that corpus in the same proportion (15,624 : 10,000 :
# 10,000), small enough that every character is certified many times in
# one run.
ACCEPTANCE_GRID_SAMPLE = 781
ACCEPTANCE_RANDOM_PER_N = 500


@dataclass(frozen=True)
class Item:
    """One character as the program receives it, plus what the generator
    intended: ``kind`` is a certificate kind or ``None``; ``family`` names
    the generator that built it."""

    text: str
    n: int
    kind: Optional[str]
    family: str


def pairs(n: int) -> list[Edge]:
    return list(itertools.combinations(range(1, n + 1), 2))


def to_json(n: int, weights: Weights) -> str:
    """The character wire format: every pair present, exact rationals as
    strings, keys in lexicographic pair order."""
    table = {f"{i}-{j}": str(weights.get((i, j), Fraction(0))) for i, j in pairs(n)}
    return json.dumps({"n": n, "weights": table})


def _e(i: int, j: int) -> Edge:
    return (i, j) if i < j else (j, i)


def _nonzero(rng: random.Random, span: int = 5, max_den: int = 3) -> Fraction:
    num = rng.choice([v for v in range(-span, span + 1) if v])
    return Fraction(num, rng.randint(1, max_den))


def _balanced(edges: list[Edge], rng: random.Random) -> Weights:
    """Nonzero weights on ``edges`` (at least two) that sum to zero."""
    while True:
        w = {e: _nonzero(rng) for e in edges[:-1]}
        last = -sum(w.values(), Fraction(0))
        if last != 0:
            w[edges[-1]] = last
            return w


def _dilate(weights: Weights, rng: random.Random) -> Weights:
    q = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    return {e: q * v for e, v in weights.items()}


def _place(n: int, k: int, rng: random.Random) -> list[int]:
    """k distinct strands in random order: the random relabeling that puts an
    abstract k-vertex pattern into P_n."""
    return rng.sample(range(1, n + 1), k)


# -- one generator per certificate kind ------------------------------------


def gen_zero_sum(n: int, rng: random.Random) -> Weights:
    all_pairs = pairs(n)
    while True:
        edges = rng.sample(all_pairs, rng.randint(1, len(all_pairs)))
        w = {e: _nonzero(rng) for e in edges}
        if sum(w.values(), Fraction(0)) != 0:
            return w


def gen_disjoint_triple(n: int, rng: random.Random) -> Weights:
    v = _place(n, 6, rng)
    edges = {_e(v[0], v[1]), _e(v[2], v[3]), _e(v[4], v[5])}
    edges.update(rng.sample(pairs(n), rng.randint(0, 4)))
    edges = sorted(edges)
    rng.shuffle(edges)
    return _balanced(edges, rng)


def gen_disjoint_pair(n: int, rng: random.Random) -> Weights:
    # Every edge touches hub a or hub b, so no three edges are disjoint;
    # (a, x) is disjoint from (b, y) and (b, z).
    a, b, x, y, z = _place(n, 5, rng)
    touching = [e for e in pairs(n) if a in e or b in e]
    edges = {_e(a, x), _e(b, y), _e(b, z)}
    edges.update(rng.sample(touching, rng.randint(0, min(4, len(touching)))))
    edges = sorted(edges)
    rng.shuffle(edges)
    return _balanced(edges, rng)


def gen_star(n: int, rng: random.Random) -> Weights:
    center, *others = _place(n, n, rng)
    leaves = others[: rng.randint(3, n - 1)]
    return _balanced([_e(center, leaf) for leaf in leaves], rng)


def gen_disjoint_leaves(n: int, rng: random.Random) -> Weights:
    a, b, c, d = _place(n, 4, rng)
    edges = [_e(a, b), _e(c, d)]
    if rng.random() < 0.5:
        edges.append(_e(b, c))  # path a-b-c-d: leaves a and d
    return _balanced(edges, rng)


def _triangle_swings(w: Weights, support: list[int]) -> list[Fraction]:
    return [
        sum((w.get(_e(p, q), Fraction(0)) for p, q in itertools.combinations(t, 2)), Fraction(0))
        for t in itertools.combinations(support, 3)
    ]


def gen_triangle(n: int, rng: random.Random) -> Weights:
    # Four support vertices, at most one leaf, and a triangle with nonzero
    # swing value: paw, 4-cycle, diamond or K4.
    a, b, c, d = _place(n, 4, rng)
    shapes = [
        [_e(a, b), _e(b, c), _e(b, d), _e(c, d)],
        [_e(a, b), _e(b, c), _e(c, d), _e(a, d)],
        [_e(a, b), _e(b, c), _e(c, d), _e(a, d), _e(a, c)],
        [_e(p, q) for p, q in itertools.combinations((a, b, c, d), 2)],
    ]
    edges = rng.choice(shapes)
    while True:
        w = _balanced(edges, rng)
        if any(_triangle_swings(w, [a, b, c, d])):
            return w


def circle_point(n: int, size: int, rng: random.Random) -> Weights:
    """A point on a P3 (size 3) or P4 (size 4) complement circle: parameters
    (t1, t2, -t1-t2) on the triangle's edges or the three perfect matchings."""
    t1 = _nonzero(rng) if rng.random() < 0.8 else Fraction(0)
    t2 = _nonzero(rng)
    values = (t1, t2, -t1 - t2)
    s = sorted(_place(n, size, rng))
    if size == 3:
        i, j, k = s
        slots = [[(i, j)], [(i, k)], [(j, k)]]
    else:
        i, j, k, l = s
        slots = [[(i, j), (k, l)], [(i, k), (j, l)], [(i, l), (j, k)]]
    return {e: v for group, v in zip(slots, values) for e in group if v != 0}


def gen_circle(n: int, rng: random.Random) -> Weights:
    return circle_point(n, rng.choice((3, 4)), rng)


def gen_near_miss(n: int, rng: random.Random) -> Weights:
    """A circle point with one support edge moved by +-1: the total twist
    becomes nonzero, so the verdict is zero_sum next to a circle."""
    w = gen_circle(n, rng)
    e = rng.choice(sorted(w))
    w[e] += rng.choice((1, -1))
    return {k: v for k, v in w.items() if v != 0}


GENERATORS: dict[str, Callable[[int, random.Random], Weights]] = {
    "zero_sum": gen_zero_sum,
    "disjoint_triple": gen_disjoint_triple,
    "disjoint_pair": gen_disjoint_pair,
    "star": gen_star,
    "disjoint_leaves": gen_disjoint_leaves,
    "triangle": gen_triangle,
    "circle": gen_circle,
}
MIN_N = {"disjoint_triple": 6, "disjoint_pair": 5}


def kinds_at(n: int) -> list[str]:
    """Certificate kinds that can occur on n strands (n >= 4)."""
    return [k for k in KINDS if n >= MIN_N.get(k, 4)]


def _item(n: int, weights: Weights, kind: Optional[str], family: str) -> Item:
    return Item(to_json(n, weights), n, kind, family)


def _kind_item(n: int, kind: str, rng: random.Random) -> Item:
    return _item(n, _dilate(GENERATORS[kind](n, rng), rng), kind, kind)


# -- workloads -------------------------------------------------------------


def acceptance(seed: int) -> list[Item]:
    """The acceptance-test distribution: a sample of the nonzero n=4
    characters with weights in -2..2, plus random n=5 and n=6 characters
    (numerators in -3..3, denominators 1..3), shuffled."""
    rng = random.Random(f"acceptance:{seed}")
    p4 = pairs(4)
    grid = [values for values in itertools.product(range(-2, 3), repeat=len(p4)) if any(values)]
    items = [
        _item(4, {e: Fraction(v) for e, v in zip(p4, values) if v}, None, "grid")
        for values in rng.sample(grid, ACCEPTANCE_GRID_SAMPLE)
    ]
    for n in (5, 6):
        for _ in range(ACCEPTANCE_RANDOM_PER_N):
            while True:
                w = {e: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for e in pairs(n)}
                w = {e: v for e, v in w.items() if v}
                if w:
                    break
            items.append(_item(n, w, None, f"random_n{n}"))
    rng.shuffle(items)
    return items


def acceptance_warmup(seed: int) -> list[Item]:
    """One character of every kind that can occur at n = 4, 5, 6, so set-up
    fills each per-(n, lemma) cache that the acceptance corpus can reach."""
    rng = random.Random(f"acceptance-warmup:{seed}")
    return [_kind_item(n, kind, rng) for n in (4, 5, 6) for kind in kinds_at(n)]


def stratified(seed: int) -> list[Item]:
    """An equal share of every certificate kind at every n in 4..8 where it
    can occur, plus +-1 near misses next to circles; every item randomly
    relabeled and dilated."""
    rng = random.Random(f"stratified:{seed}")
    items = []
    for n in STRATIFIED_NS:
        for kind in kinds_at(n):
            items += [_kind_item(n, kind, rng) for _ in range(STRATIFIED_PER_CELL)]
        items += [
            _item(n, _dilate(gen_near_miss(n, rng), rng), "zero_sum", "near_miss")
            for _ in range(STRATIFIED_PER_CELL)
        ]
    rng.shuffle(items)
    return items


def _scaling_weights(family: str, n: int, rng: random.Random) -> Weights:
    if family == "two_star":
        v = _place(n, n, rng)
        w = {_e(v[0], k): Fraction(1) for k in v[2:]}
        w.update({_e(v[1], k): Fraction(-1) for k in v[2:]})
        return w
    if family == "star":
        center, *leaves = _place(n, n, rng)
        return _balanced([_e(center, leaf) for leaf in leaves], rng)
    if family == "dense":
        edges = pairs(n)
        rng.shuffle(edges)
        return _balanced(edges, rng)
    if family == "single_edge":
        i, j = _place(n, 2, rng)
        return {_e(i, j): _nonzero(rng)}
    if family == "p3_point":
        return circle_point(n, 3, rng)
    if family == "p4_point":
        return circle_point(n, 4, rng)
    raise ValueError(f"unknown scaling family {family!r}")


SCALING_KIND = {
    "two_star": "disjoint_pair",
    "star": "star",
    "dense": "disjoint_triple",
    "single_edge": "zero_sum",
    "p3_point": "circle",
    "p4_point": "circle",
}


def scaling(seed: int) -> list[Item]:
    """Families that grow with n: SCALING_PER_CELL[n] randomly relabeled,
    dilated members of each family at each n in SCALING_NS, shuffled."""
    rng = random.Random(f"scaling:{seed}")
    items = [
        _item(n, _dilate(_scaling_weights(f, n, rng), rng), SCALING_KIND[f], f)
        for n in SCALING_NS
        for f in SCALING_FAMILIES
        for _ in range(SCALING_PER_CELL[n])
    ]
    rng.shuffle(items)
    return items


def cli_oneshot(seed: int) -> list[Item]:
    """A small stratified set for one process per character: CLI_PER_N
    characters at each n in CLI_NS, cycling through the kinds that occur
    at that n."""
    rng = random.Random(f"cli_oneshot:{seed}")
    return [
        _kind_item(n, kinds_at(n)[k % len(kinds_at(n))], rng)
        for n in CLI_NS
        for k in range(CLI_PER_N)
    ]


def warmup_of(items: list[Item]) -> list[Item]:
    """The first item of each distinct (n, intended kind)."""
    seen: dict[tuple[int, Optional[str]], Item] = {}
    for item in items:
        seen.setdefault((item.n, item.kind), item)
    return list(seen.values())
