"""End-to-end acceptance checks for the classifier.

Each test covers one acceptance criterion and prints a single pass/fail
line (visible even under pytest's output capture).  All arithmetic
checks are exact; the only tolerances are the stated runtime budgets.
"""

import itertools
import random
import time
from fractions import Fraction
from functools import lru_cache

from braidsigma.characters import permute, swing_value
from braidsigma.circles import CircleId, locate_circle, on_circle
from braidsigma.classify import COMPLEMENT, SIGMA1, ZeroSum, classify
from braidsigma.commands import enumerate_circles, oracle_star_or_small
from braidsigma.planar import (
    commute_wordlevel,
    planar_words,
    verify_p3_relation,
    verify_planar_presentation,
    verify_rho,
    verify_swing_factorizations,
)
from braidsigma.witness import build_witness_for, commutes_predicate, verify_witness
from braidsigma.words import BraidWord, braid_aut, standard_pure_word
from conftest import dense, random_nonzero_character, random_perm, scale

GRID_VALUES = range(-2, 3)
PAIRS4 = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


def report(capsys, label, ok):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def grid_characters():
    for values in itertools.product(GRID_VALUES, repeat=6):
        if any(values):
            yield dense(4, dict(zip(PAIRS4, values)))


@lru_cache(maxsize=1)
def agreement_corpus():
    """Shared corpus: the exhaustive n=4 grid plus seeded random
    characters for n = 5 and 6."""
    corpus = list(grid_characters())
    rng = random.Random(20260824)
    for n in (5, 6):
        for _ in range(10_000):
            corpus.append(random_nonzero_character(n, rng, span=3, max_denom=3))
    return corpus


def test_figure_character_swings_and_verdict(chi0, capsys):
    classify(chi0)  # warm caches before timing
    start = time.perf_counter()
    cls = classify(chi0)
    elapsed = time.perf_counter() - start
    ok = (
        swing_value(chi0, (1, 2, 4)) == -1
        and swing_value(chi0, (1, 2, 3)) == 0
        and swing_value(chi0, (1, 2, 3, 4)) == -3
        and cls.verdict == SIGMA1
        and isinstance(cls.certificate, ZeroSum)
        and elapsed < 0.001
    )
    report(capsys, f"figure character: exact swings, zero-sum verdict, {elapsed*1e6:.0f} us", ok)


def test_circle_counts(capsys):
    expected = {3: 1, 4: 5, 5: 15, 6: 35, 7: 70, 8: 126}
    counts = {n: len(enumerate_circles(n)) for n in expected}
    report(capsys, f"circle counts n=3..8: {sorted(counts.values())}", counts == expected)


def test_classifier_circle_agreement(capsys):
    start = time.perf_counter()
    mismatches = 0
    for chi in agreement_corpus():
        in_complement = classify(chi).verdict == COMPLEMENT
        if in_complement != (locate_circle(chi) is not None):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 60
    report(
        capsys,
        f"classifier vs circle geometry: {len(agreement_corpus())} characters, "
        f"{mismatches} mismatches, {elapsed:.1f} s",
        ok,
    )


def test_star_or_small_oracle(capsys):
    start = time.perf_counter()
    counterexamples = oracle_star_or_small()
    elapsed = time.perf_counter() - start
    ok = counterexamples == [] and elapsed < 300
    report(
        capsys,
        f"star-or-small at every n, from edge sets of size <= 5 on 7 vertices: "
        f"{len(counterexamples)} counterexamples, {elapsed:.2f} s",
        ok,
    )


def test_triple_sums(capsys):
    cid = CircleId("P4", (1, 2, 3, 4))
    triangles = ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
    rng = random.Random(5)
    ok = True
    built = 0
    while built < 1000:
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        y = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        z = -x - y
        if x == y == 0:
            continue
        chi = dense(
            4, {(1, 2): x, (3, 4): x, (1, 3): y, (2, 4): y, (1, 4): z, (2, 3): z}
        )
        ok = ok and all(swing_value(chi, t) == 0 for t in triangles)
        ok = ok and on_circle(chi, cid)
        built += 1
    converse = True
    for chi in grid_characters():
        if all(swing_value(chi, t) == 0 for t in triangles):
            converse = converse and (
                chi.weight(1, 2) == chi.weight(3, 4)
                and chi.weight(1, 3) == chi.weight(2, 4)
                and chi.weight(1, 4) == chi.weight(2, 3)
            )
    ok = ok and converse
    report(capsys, "triple sums: 1000 zero-sum reconstructions + grid converse", ok)


def test_witness_soundness(capsys):
    failures = 0
    checked = 0
    for chi in agreement_corpus():
        cls = classify(chi)
        if cls.verdict != SIGMA1:
            continue
        checked += 1
        if not verify_witness(build_witness_for(cls, chi), chi).ok:
            failures += 1
    ok = failures == 0 and checked > 0
    report(capsys, f"witness soundness: {checked} packages, {failures} failures", ok)


def test_word_engine_identities(capsys):
    start = time.perf_counter()
    ok = True
    for n in range(2, 7):
        for i in range(1, n - 1):
            ok = ok and braid_aut(BraidWord(n, (i, i + 1, i))) == braid_aut(
                BraidWord(n, (i + 1, i, i + 1))
            )
        for i, j in itertools.combinations(range(1, n), 2):
            if j - i >= 2:
                ok = ok and braid_aut(BraidWord(n, (i, j))) == braid_aut(BraidWord(n, (j, i)))
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for p, q in itertools.combinations(pairs, 2):
            ok = ok and commute_wordlevel(
                standard_pure_word(*p, n), standard_pure_word(*q, n)
            ) == commutes_predicate(p, q)
    ok = ok and verify_swing_factorizations()
    ok = ok and verify_p3_relation()
    ok = ok and verify_rho()
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30
    report(capsys, f"word-engine identities up to 6 strands, {elapsed:.1f} s", ok)


def test_planar_word_list(capsys):
    results = verify_planar_presentation(planar_words())
    ok = len(results) == 9 and all(results.values())
    report(capsys, "planar generating words: all nine relations hold", ok)


def test_dilation_permutation_invariance(capsys):
    rng = random.Random(11)
    violations = 0
    for n in (4, 5, 6):
        for _ in range(100):
            chi = random_nonzero_character(n, rng, span=3, max_denom=2)
            dilation = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            perm = random_perm(n, rng)
            moved = permute(scale(chi, dilation), perm)
            if classify(chi).verdict != classify(moved).verdict:
                violations += 1
    report(
        capsys,
        f"verdict invariance under 300 dilation/permutation pairs: "
        f"{violations} violations",
        violations == 0,
    )
