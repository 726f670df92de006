"""An oracle from the sphere picture, in plain Fraction arithmetic.

P_n is P_n/Z x Z, with Z the center, on whose generator (the full twist)
a character takes the value Delta; P_n/Z is the pure mapping class group
of the sphere with n + 1 marked points.  A character with Delta = 0
lifts to a *balanced* weight x on the pairs of {1..n+1}, whose weights
at each point sum to 0: x_ij = chi_ij for i, j <= n, and x_k,n+1 is
minus the row sum of chi at k.  The only balanced weight on 3 points is
0, and a balanced weight on 4 points has equal weights on opposite pairs
summing to 0, which is a P4 circle.  So chi is in the complement exactly
when Delta = 0 and its lift touches exactly 4 points; the circle is that
4-set, P3 on the other three points when it holds n + 1.

The oracle reads each character's JSON weights with ``Fraction`` itself
and calls nothing of ``classify``, ``chargraph`` or ``circles``; the
verdict, the certificate's circle and ``locate_circle`` must agree with
it on the benchmark's corpora and on the n = 4 grid of weights -1..1.
"""

import importlib.util
import itertools
import json
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from braidsigma.characters import character_from_json
from braidsigma.circles import CircleId, locate_circle
from braidsigma.classify import COMPLEMENT, SIGMA1, CircleMembership, classify


@lru_cache(maxsize=1)
def _bench_corpus():
    """``bench/corpus.py``, which imports nothing from the package."""
    name = "bench_corpus_for_oracle"
    path = Path(__file__).resolve().parent.parent / "bench" / "corpus.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def lift_oracle(n: int, weights: dict) -> tuple[str, tuple[str, tuple[int, ...]] | None]:
    """(verdict, (circle kind, circle support) or None) from the lift."""
    chi = {}
    for key, value in weights.items():
        i, j = map(int, key.split("-"))
        if Fraction(value):
            chi[(i, j)] = Fraction(value)
    if sum(chi.values(), Fraction(0)) != 0:
        return SIGMA1, None
    lift = dict(chi)
    for k in range(1, n + 1):
        row = sum((v for e, v in chi.items() if k in e), Fraction(0))
        if row:
            lift[(k, n + 1)] = -row
    points = sorted({p for e in lift for p in e})
    if len(points) != 4:
        return SIGMA1, None
    if points[-1] == n + 1:
        return COMPLEMENT, ("P3", tuple(points[:3]))
    return COMPLEMENT, ("P4", tuple(points))


def _check(text: str) -> str:
    data = json.loads(text)
    verdict, circle = lift_oracle(data["n"], data["weights"])
    chi = character_from_json(text)
    cls = classify(chi)
    assert cls.verdict == verdict, text
    located = locate_circle(chi)
    if circle is None:
        assert located is None, text
    else:
        cid = CircleId(*circle)
        assert cls.certificate == CircleMembership(cid) and located == cid, text
    return verdict


def _grid4():
    pairs = list(itertools.combinations(range(1, 5), 2))
    for values in itertools.product((-1, 0, 1), repeat=6):
        if any(values):
            weights = {f"{i}-{j}": str(v) for (i, j), v in zip(pairs, values)}
            yield json.dumps({"n": 4, "weights": weights})


@pytest.mark.parametrize(
    "workload, seed",
    [("stratified", 1), ("stratified", 2), ("acceptance", 1), ("scaling", 1)],
)
def test_oracle_agrees_on_bench_corpora(workload, seed):
    items = getattr(_bench_corpus(), workload)(seed)
    verdicts = [_check(item.text) for item in items]
    # every corpus reaches both sides, so neither answer passes by default
    assert {SIGMA1, COMPLEMENT} <= set(verdicts)


def test_oracle_agrees_on_the_n4_grid():
    verdicts = [_check(text) for text in _grid4()]
    assert len(verdicts) == 3**6 - 1
    # the grid's circle points: the P3 and P4 ones with weights in -1..1
    assert verdicts.count(COMPLEMENT) > 0


def test_oracle_sees_the_lift():
    # a P3 point and a P4 point, each as the lift reads it
    assert lift_oracle(3, {"1-2": "1", "1-3": "1", "2-3": "-2"}) == (COMPLEMENT, ("P3", (1, 2, 3)))
    p4 = {"1-2": "1", "3-4": "1", "1-3": "1", "2-4": "1", "1-4": "-2", "2-3": "-2"}
    assert lift_oracle(4, p4) == (COMPLEMENT, ("P4", (1, 2, 3, 4)))
    # Delta != 0, and a Delta = 0 lift on 5 points
    assert lift_oracle(3, {"1-2": "1", "1-3": "0", "2-3": "0"}) == (SIGMA1, None)
    star = {"1-2": "1", "1-3": "1", "1-4": "-2", "2-3": "0", "2-4": "0", "3-4": "0"}
    assert lift_oracle(4, star) == (SIGMA1, None)
