"""Tests for the benchmark's corpus generators and span bookkeeping.

Run from the repository root with ``python -m pytest bench/tests``.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import corpus  # noqa: E402
import tracing  # noqa: E402
from braidsigma import character_from_json, classify  # noqa: E402

WORKLOADS = ("acceptance", "stratified", "scaling", "cli_oneshot")


def kind_of(item: corpus.Item) -> str:
    return classify(character_from_json(item.text)).certificate.kind


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_corpus(workload):
    make = getattr(corpus, workload)
    assert make(7) == make(7)
    assert [i.text for i in make(7)] != [i.text for i in make(8)]


@pytest.mark.parametrize("seed", (1, 2))
def test_stratified_reaches_every_kind_at_every_n(seed):
    reached = {(item.n, kind_of(item)) for item in corpus.stratified(seed)}
    expected = {(n, kind) for n in corpus.STRATIFIED_NS for kind in corpus.kinds_at(n)}
    assert reached == expected
    assert corpus.kinds_at(4) == ["zero_sum", "star", "disjoint_leaves", "triangle", "circle"]
    assert "disjoint_pair" in corpus.kinds_at(5) and "disjoint_triple" not in corpus.kinds_at(5)
    assert corpus.kinds_at(6) == list(corpus.KINDS)


@pytest.mark.parametrize("seed", (1, 2))
def test_generators_build_the_kind_they_intend(seed):
    items = corpus.stratified(seed) + corpus.cli_oneshot(seed) + corpus.acceptance_warmup(seed)
    wrong = [(i.n, i.family, i.kind, kind_of(i)) for i in items if kind_of(i) != i.kind]
    assert wrong == []


@pytest.mark.parametrize("seed", (1, 2))
def test_scaling_families_get_their_kind(seed):
    expected = {
        "two_star": "disjoint_pair",
        "star": "star",
        "dense": "disjoint_triple",
        "single_edge": "zero_sum",
        "p3_point": "circle",
        "p4_point": "circle",
    }
    items = corpus.scaling(seed)
    assert sorted({(i.n, i.family) for i in items}) == sorted(
        (n, f) for n in corpus.SCALING_NS for f in expected
    )
    for item in items:
        assert kind_of(item) == expected[item.family], (item.n, item.family)


def test_two_star_and_dense_shapes():
    for item in corpus.scaling(3):
        weights = [v for v in json.loads(item.text)["weights"].values() if v != "0"]
        if item.family == "dense":
            assert len(weights) == item.n * (item.n - 1) // 2
        if item.family == "two_star":
            assert len(weights) == 2 * (item.n - 2)
            assert len(set(weights)) == 2


def test_acceptance_keeps_the_acceptance_test_proportions():
    items = corpus.acceptance(1)
    grid = [i for i in items if i.family == "grid"]
    assert len(grid) == corpus.ACCEPTANCE_GRID_SAMPLE
    assert len({i.text for i in grid}) == len(grid)
    assert all(i.n == 4 for i in grid)
    for n in (5, 6):
        assert sum(i.n == n for i in items) == corpus.ACCEPTANCE_RANDOM_PER_N
    # 15,624 grid characters to 10,000 random ones per n, within rounding
    assert abs(len(grid) / corpus.ACCEPTANCE_RANDOM_PER_N - 15624 / 10000) < 0.002


def test_self_time_subtracts_direct_children():
    spans = [
        ("outer", 0, 100, -1, 0),
        ("inner", 10, 40, 0, 0),
        ("leaf", 15, 25, 1, 0),
        ("inner", 50, 70, 0, 0),
    ]
    calls, own = tracing.self_times(spans)
    assert calls == {"outer": 1, "inner": 2, "leaf": 1}
    assert own == {"outer": 50, "inner": 40, "leaf": 10}
