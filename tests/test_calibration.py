"""Calibration names a table: plateaus, and alpha_adj values that round-trip.

The regression sweep feeds every alpha_adj printed by ``fair-topk adjust``
back through ``float()`` and checks that it rebuilds the calibrated table,
that the table meets the target, and that the next larger table does not.
"""
import math

import numpy as np
import pytest

from fair_topk import binomial, cli
from fair_topk.adjustment import (
    SEARCH_FLOOR,
    _shortest_inside,
    adjust_significance,
    rejection_probability,
)
from fair_topk.binomial import cdf, minimum_counts, table_plateau
from fair_topk.fairness import compute_mtable

P_GRID = [round(0.05 * i, 2) for i in range(1, 20)]
# the k <= 200 part of the k x p x alpha sweep in full, k=500 at alpha=0.1
SWEEP = [(k, p, a) for k in (20, 40, 60, 100, 200) for p in P_GRID for a in (0.05, 0.1, 0.2)]
SWEEP += [(500, p, 0.1) for p in P_GRID]
# large-k cells whose plateaus are narrower than the old 1e-6 search bracket
LARGE = [(1000, 0.1, 0.1), (1000, 0.4, 0.1), (1000, 0.6, 0.1), (1500, 0.7, 0.1)]


def naive_plateau(minima, p):
    lower = max(
        cdf(int(m) - 1, i, p) if m > 0 else 0.0
        for i, m in enumerate(minima, 1)
    )
    upper = min(cdf(int(m), i, p) for i, m in enumerate(minima, 1))
    return lower, upper


@pytest.mark.parametrize(
    "k,p,alpha",
    [(1, 0.5, 0.3), (12, 0.5, 0.1), (257, 0.3, 0.1), (300, 0.02, 0.2),
     (700, 0.9, 0.004), (1000, 0.6, 0.0093475)],
)
def test_plateau_matches_per_position_cdf(k, p, alpha):
    minima = minimum_counts(k, p, alpha)
    lower, upper = table_plateau(minima, p)
    assert (lower, upper) == naive_plateau(minima, p)
    assert lower <= alpha < upper
    assert np.array_equal(minimum_counts(k, p, math.nextafter(upper, 0.0)), minima)
    if upper < 1.0:
        assert not np.array_equal(minimum_counts(k, p, upper), minima)
    if lower > 0.0:
        assert np.array_equal(minimum_counts(k, p, lower), minima)
        assert not np.array_equal(minimum_counts(k, p, math.nextafter(lower, 0.0)), minima)
    # the walk that builds the table reads the same plateau off its own carried values
    walked, cdfs, pmfs = binomial._walked(k, p, alpha)
    assert np.array_equal(walked, minima)
    assert binomial._plateau(walked, p, cdfs, pmfs) == (lower, upper)


# targets low enough that derived tables re-decide counts within _BOUNDARY_EPS
SMALL_TARGETS = [(100, 0.5, 1e-7), (300, 0.3, 1e-6), (1000, 0.1, 1e-4), (1000, 0.9, 1e-5),
                 (100, 0.5, 5e-9), (1000, 0.5, 1e-11)]
# the cells the benchmark calibrates: audit, experiment, rank-csv-1m and library-1m
BENCHMARK_CELLS = ([(1000, p, 0.1) for p in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)]
                   + [(100, p, 0.1) for p in (0.1, 0.15, 0.2, 0.3, 0.4, 0.5)]
                   + [(1000, p, 0.1) for p in (0.3, 0.4, 0.5, 0.6)] + [(1500, 0.5, 0.1)])


def test_every_evaluated_table_is_the_walked_table(monkeypatch):
    # each evaluation after the first derives its table from the previous one;
    # its counts and plateau must be those of a fresh walk, checked as they
    # are made, since a wrong table can stall the search
    at, evaluations = binomial._Tables.at, []

    def checked(self, alpha):
        minima, plateau = at(self, alpha)
        evaluations.append(alpha)
        cell = (self.k, self.p, alpha)
        assert np.array_equal(minima, minimum_counts(*cell)), cell
        assert plateau == table_plateau(minima, self.p), cell
        return minima, plateau

    monkeypatch.setattr(binomial._Tables, "at", checked)
    for k, p, alpha in SWEEP + LARGE + SMALL_TARGETS:
        evaluations.clear()
        assert adjust_significance(k, p, alpha).search_iterations == len(evaluations)


def counted_walks(monkeypatch) -> list:
    """One entry per binomial._walked call made from now on."""
    walks, walked = [], binomial._walked

    def counted(k, p, alpha):
        walks.append(p)
        return walked(k, p, alpha)

    monkeypatch.setattr(binomial, "_walked", counted)
    return walks


def test_one_walk_per_calibration(monkeypatch):
    walks = counted_walks(monkeypatch)
    for cell in BENCHMARK_CELLS:
        compute_mtable.cache_clear()
        walks.clear()
        result = adjust_significance(*cell)
        # the search's first table, then the rebuild check's compute_mtable
        assert len(walks) <= 2 < result.search_iterations, cell


def test_a_count_past_the_step_budget_is_re_walked(monkeypatch):
    cells = [(1000, 0.5, 0.1), (300, 0.3, 1e-6), (100, 0.9, 0.05)]
    expected = [adjust_significance(*cell) for cell in cells]
    walks = counted_walks(monkeypatch)
    monkeypatch.setattr(binomial, "_REFRESH_EVERY", 4)
    for cell, result in zip(cells, expected):
        compute_mtable.cache_clear()
        walks.clear()
        assert adjust_significance(*cell) == result, cell
        assert len(walks) > 2, cell


@pytest.mark.parametrize("k,evaluations", [(100, 7), (1000, 13), (1500, 11)])
def test_search_evaluation_counts(k, evaluations):
    # pinned so that a slower search fails here rather than hiding in timing
    # noise; bisection on plateaus needed 10, 17 and 19 evaluations
    assert adjust_significance(k, 0.5, 0.1).search_iterations == evaluations


def test_shortest_decimal_inside_a_range():
    assert _shortest_inside(0.03125, 0.031784) == 0.0315
    assert _shortest_inside(0.0196, 0.0205) == 0.02
    assert _shortest_inside(0.0201, 0.0205) == 0.0203
    assert _shortest_inside(0.0083152492, 0.0083152977) == 0.00831527
    assert _shortest_inside(0.25, 0.26) == 0.25  # the lower end is inside
    tiny = math.nextafter(0.1, 1.0)
    assert _shortest_inside(tiny, math.nextafter(tiny, 1.0)) == tiny


def calibrate_through_cli(capsys, monkeypatch, cells):
    """(cell, printed alpha_adj, calibrated result) for each feasible cell."""
    calibrated = {}

    def spy(k, p, alpha):
        calibrated[k, p, alpha] = adjust_significance(k, p, alpha)
        return calibrated[k, p, alpha]

    monkeypatch.setattr(cli, "adjust_significance", spy)
    for k, p, alpha in cells:
        code = cli.main(["adjust", "--k", str(k), "--p", str(p), "--alpha", str(alpha)])
        row = capsys.readouterr().out.splitlines()[1].split(",")
        if code == 0:
            assert row[5] == "true"
            yield (k, p, alpha), float(row[3]), calibrated[k, p, alpha]


def assert_largest_feasible_table(cell, printed, calibrated):
    k, p, alpha = cell
    table = compute_mtable(k, p, printed).minima
    assert np.array_equal(table, minimum_counts(k, p, calibrated.alpha_adj)), cell
    assert rejection_probability(k, p, printed) <= alpha, cell
    if printed != alpha:
        upper = table_plateau(table, p)[1]
        assert rejection_probability(k, p, upper) > alpha, cell


def test_printed_alpha_adj_rebuilds_the_largest_feasible_table(capsys, monkeypatch):
    feasible = 0
    for cell, printed, calibrated in calibrate_through_cli(capsys, monkeypatch, SWEEP):
        assert_largest_feasible_table(cell, printed, calibrated)
        feasible += 1
    assert feasible > len(SWEEP) // 2


def test_printed_alpha_adj_round_trips_at_large_k(capsys, monkeypatch):
    checked = list(calibrate_through_cli(capsys, monkeypatch, LARGE))
    assert len(checked) == len(LARGE)
    for cell, printed, calibrated in checked:
        assert printed == calibrated.alpha_adj
        assert_largest_feasible_table(cell, printed, calibrated)


def test_mtable_at_the_printed_alpha_adj_rejects_within_alpha(capsys):
    assert cli.main(["adjust", "--k", "100", "--p", "0.5", "--alpha", "0.1"]) == 0
    alpha_adj = capsys.readouterr().out.splitlines()[1].split(",")[3]
    code = cli.main(["mtable", "--k", "100", "--p", "0.5", "--alpha", alpha_adj])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    printed = np.array([int(line.split(",")[1]) for line in lines[1:]])
    assert np.array_equal(printed, minimum_counts(100, 0.5, float(alpha_adj)))
    assert rejection_probability(100, 0.5, float(alpha_adj)) <= 0.1


def test_target_below_what_the_search_floor_meets_is_infeasible(capsys):
    # k * SEARCH_FLOOR > alpha: even the floor's table rejects more than alpha
    result = adjust_significance(1000, 0.5, 1e-11)
    assert result.achieved_rejection_prob > 1e-11
    assert not result.feasible
    code = cli.main(["adjust", "--k", "1000", "--p", "0.5", "--alpha", "1e-11"])
    assert code == 1
    assert capsys.readouterr().out.splitlines()[1].endswith(",false")
    code = cli.main(["rank", "--k", "1000", "--p", "0.5", "--alpha", "1e-11"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == "" and err.startswith("error: no feasible alpha_adj")


def test_target_below_the_union_bound_that_the_search_floor_meets_is_usable():
    # k * SEARCH_FLOOR > alpha, yet the floor's table meets alpha: the search
    # goes on above the floor's plateau
    assert 100 * SEARCH_FLOOR > 5e-9
    result = adjust_significance(100, 0.5, 5e-9)
    assert result.feasible and result.alpha_adj > SEARCH_FLOOR
    alpha_adj = result.usable()
    assert alpha_adj == result.alpha_adj
    # compute_mtable(100, 0.5, alpha_adj) rebuilds the table calibration evaluated
    assert rejection_probability(100, 0.5, alpha_adj) == result.achieved_rejection_prob <= 5e-9
