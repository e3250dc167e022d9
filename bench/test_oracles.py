"""Checks of the benchmark's oracles against enumeration and frozen anchors.

    python3 -m pytest bench -q
"""
import importlib.util
import itertools
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest

import oracles

ANCHORS = Path(__file__).resolve().parent.parent / "tests" / "anchors.py"


def exact_cdf(x, n, p):
    p = Fraction(p)
    return sum(comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(x + 1))


def enumerated_rejection(minima, p):
    """Sum of p^ones (1-p)^zeros over the 2^k flag patterns that miss a minimum."""
    k = len(minima)
    total = 0.0
    for flags in itertools.product((0, 1), repeat=k):
        if (np.cumsum(flags) < minima).any():
            ones = sum(flags)
            total += p**ones * (1 - p) ** (k - ones)
    return total


def test_minimum_counts_match_anchor_grid():
    if not ANCHORS.is_file():
        pytest.skip("tests/anchors.py is not in this checkout")
    spec = importlib.util.spec_from_file_location("anchors", ANCHORS)
    anchors = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(anchors)
    for p, row in anchors.MTABLE_GRID_ALPHA01.items():
        assert oracles.minimum_counts(12, p, 0.1).tolist() == row, p


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7, 0.9])
@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1, 0.2])
def test_minimum_counts_follow_the_strict_rule_exactly(p, alpha):
    got = oracles.minimum_counts(30, p, alpha)
    for n, m in enumerate(got, start=1):
        assert exact_cdf(m, n, p) > Fraction(alpha)
        assert m == 0 or exact_cdf(m - 1, n, p) <= Fraction(alpha)


@pytest.mark.parametrize("k", [1, 2, 5, 9, 12])
@pytest.mark.parametrize("p", [0.2, 0.5, 0.7])
@pytest.mark.parametrize("alpha", [0.02, 0.1, 0.3])
def test_rejection_probability_matches_enumeration(k, p, alpha):
    minima = oracles.minimum_counts(k, p, alpha)
    assert oracles.rejection_probability(minima, p) == pytest.approx(
        enumerated_rejection(minima, p), abs=1e-14
    )


def test_rejection_probability_of_hand_tables():
    assert oracles.rejection_probability([0, 0, 0], 0.5) == 0.0
    assert oracles.rejection_probability([1], 0.3) == pytest.approx(0.7)
    # fail at position 1 (0.5), or pass it and fail at 2 (0.5 * 0.5)
    assert oracles.rejection_probability([1, 2], 0.5) == pytest.approx(0.75)
    assert oracles.rejection_probability([0, 1, 1], 0.5) == pytest.approx(0.25)


def test_fairness_measure_is_the_largest_passing_significance():
    rng = np.random.default_rng(0)
    for _ in range(30):
        p = float(rng.uniform(0.1, 0.9))
        flags = rng.random(25) < p
        measure = oracles.fairness_measure(flags, p)
        counts = np.cumsum(flags)
        assert measure == pytest.approx(
            min(float(exact_cdf(int(c), n, p)) for n, c in enumerate(counts, start=1)),
            rel=1e-12,
        )
        for alpha in (measure * 0.999, min(measure * 1.001, 0.9999)):
            passes = (counts >= oracles.minimum_counts(25, p, alpha)).all()
            assert passes == (alpha < measure)


def brute_force_merge(ids, scores, protected, minima):
    """Among interleavings of the two best-first group streams that meet every
    prefix minimum, the one whose (score, protected) sequence is largest."""
    streams = {}
    for flag in (True, False):
        rows = [r for r in range(len(ids)) if protected[r] == flag]
        streams[flag] = sorted(rows, key=lambda r: (-scores[r], ids[r]))
    best_key, best_rows = None, None
    for pattern in itertools.product((True, False), repeat=len(minima)):
        if sum(pattern) > len(streams[True]) or len(pattern) - sum(pattern) > len(streams[False]):
            continue
        if (np.cumsum(pattern) < minima).any():
            continue
        taken = {True: 0, False: 0}
        rows = []
        for flag in pattern:
            rows.append(streams[flag][taken[flag]])
            taken[flag] += 1
        key = [(scores[r], protected[r]) for r in rows]
        if best_key is None or key > best_key:
            best_key, best_rows = key, rows
    return best_rows


def test_merge_matches_brute_force_with_ties():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, n + 1))
        ids = rng.permutation(n) * 3 + 1
        scores = rng.integers(0, 4, n).astype(float)  # few values: many ties
        protected = rng.random(n) < 0.4
        minima = oracles.minimum_counts(k, float(rng.uniform(0.2, 0.8)), 0.1)
        if protected.sum() < minima[-1]:
            continue  # too few protected to meet the table
        want = brute_force_merge(ids, scores, protected, minima)
        assert oracles.merge_topk(ids, scores, protected, minima).tolist() == want


def test_merge_tie_rules_by_hand():
    ids = np.array([5, 3, 9, 1])
    scores = np.array([1.0, 1.0, 1.0, 0.5])
    protected = np.array([False, False, True, True])
    # an exact tie goes to the protected head; within a group, smaller id first
    assert oracles.merge_topk(ids, scores, protected, [0, 0, 0]).tolist() == [2, 1, 0]
    # a minimum forces the weaker protected candidate up
    assert oracles.merge_topk(ids, scores, protected, [0, 0, 2]).tolist() == [2, 1, 3]


def test_color_blind_positions_count_the_sorted_order():
    rng = np.random.default_rng(2)
    ids = rng.permutation(500) + 10
    scores = rng.integers(0, 40, 500).astype(float)
    order = np.lexsort((ids, -scores))
    place = np.empty(500, dtype=int)
    place[order] = np.arange(1, 501)
    rows = rng.choice(500, 60, replace=False)
    assert oracles.color_blind_positions(ids, scores, rows).tolist() == place[rows].tolist()
    assert oracles.topk_rows(ids, scores, 7).tolist() == order[:7].tolist()


def test_quantile_repair_by_hand():
    ids = np.array([1, 2, 3, 4, 5, 6])
    scores = np.array([0.1, 0.3, 0.2, 0.5, 0.9, 0.7])
    protected = np.array([True, True, True, False, False, False])
    # protected ranks 1..3 take the open scores at ascending ranks ceil(r*3/3)
    assert oracles.quantile_repair(ids, scores, protected).tolist() == [
        0.5, 0.9, 0.7, 0.5, 0.9, 0.7
    ]
    protected = np.array([True, True, False, False, False, False])
    # ranks 1 and 2 of 2 take ascending open ranks ceil(4/2)=2 and ceil(8/2)=4
    assert oracles.quantile_repair(ids, scores, protected).tolist() == [
        0.5, 0.9, 0.2, 0.5, 0.9, 0.7
    ]


def test_utility_report_by_hand():
    ids = np.array([10, 20, 30, 40, 50])
    scores = np.array([10.0, 8.0, 6.0, 4.0, 0.0])  # normalised: 1, .8, .6, .4, 0
    protected = np.array([False, False, False, True, True])
    report = oracles.utility_report(ids, scores, protected, [10, 40, 20])
    assert report["protected_share"] == pytest.approx(1 / 3)
    # 20 sits below 40: utility .4 - .8; color-blind place 2, ranked 3rd
    assert report["ordering_utility_loss"] == pytest.approx(0.4)
    assert report["worst_ordering_candidate"] == 20
    assert report["max_rank_drop"] == 1
    # 30 is left out although better than 40
    assert report["selection_utility_loss"] == pytest.approx(0.2)
    assert report["worst_selection_candidate"] == 30
    weights = 1 / np.log2(np.arange(2, 5))
    assert report["ndcg"] == pytest.approx(
        np.dot(weights, [1.0, 0.4, 0.8]) / np.dot(weights, [1.0, 0.8, 0.6])
    )
    ideal = oracles.utility_report(ids, scores, protected, [10, 20, 30])
    assert ideal["ndcg"] == 1.0
    assert ideal["ordering_utility_loss"] == 0.0 and ideal["max_rank_drop"] == 0
    assert ideal["selection_utility_loss"] == 0.0
    assert ideal["worst_selection_candidate"] is None
