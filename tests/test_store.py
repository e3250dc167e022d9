"""Cache-layer tests: read-through, exact keys, repair."""
import pytest

from fair_topk.adjustment import adjust_significance
from fair_topk.store import ADJUSTMENTS_FILE, cached_adjustment

HEADER = "k,p,alpha,alpha_adj,table_rejection,feasible"


def test_cached_adjustment_without_cache_just_computes():
    result = cached_adjustment(30, 0.5, 0.1, cache_dir=None)
    assert result.search_iterations > 0
    assert result.alpha_adj == adjust_significance(30, 0.5, 0.1).alpha_adj


def test_cached_adjustment_read_through(tmp_path):
    first = cached_adjustment(100, 0.5, 0.1, tmp_path)
    assert first.search_iterations > 0
    again = cached_adjustment(100, 0.5, 0.1, tmp_path)
    assert again.search_iterations == 0  # served from disk
    assert again.alpha_adj == pytest.approx(first.alpha_adj, abs=1e-9)
    assert again.achieved_rejection_prob == pytest.approx(
        first.achieved_rejection_prob, abs=1e-9
    )
    assert again.feasible is first.feasible

    lines = (tmp_path / ADJUSTMENTS_FILE).read_text().splitlines()
    assert lines[0] == HEADER
    assert len(lines) == 2


def test_cached_adjustment_appends_distinct_keys(tmp_path):
    cached_adjustment(10, 0.5, 0.1, tmp_path)
    cached_adjustment(10, 0.4, 0.1, tmp_path)
    cached_adjustment(20, 0.5, 0.1, tmp_path)
    lines = (tmp_path / ADJUSTMENTS_FILE).read_text().splitlines()
    assert len(lines) == 4


def test_cached_adjustment_persists_infeasible_flag(tmp_path):
    first = cached_adjustment(1, 0.5, 0.1, tmp_path)
    assert not first.feasible
    again = cached_adjustment(1, 0.5, 0.1, tmp_path)
    assert not again.feasible
    assert again.search_iterations == 0


def test_cached_adjustment_round_trips_exactly(tmp_path):
    first = cached_adjustment(100, 0.5, 0.1, tmp_path)
    again = cached_adjustment(100, 0.5, 0.1, tmp_path)
    assert again.alpha_adj == first.alpha_adj
    assert again.achieved_rejection_prob == first.achieved_rejection_prob
    row = (tmp_path / ADJUSTMENTS_FILE).read_text().splitlines()[1].split(",")
    assert row[:3] == ["100", "0.5", "0.1"]
    assert float(row[3]) == first.alpha_adj


def test_cached_adjustment_keys_on_exact_values(tmp_path):
    cached_adjustment(40, 0.5, 0.1, tmp_path)
    near = cached_adjustment(40, 0.5 + 1e-9, 0.1, tmp_path)
    assert near.search_iterations > 0  # not served from the 0.5 row
    assert len((tmp_path / ADJUSTMENTS_FILE).read_text().splitlines()) == 3


def test_cached_adjustment_reads_six_decimal_rows(tmp_path):
    exact = adjust_significance(40, 0.15, 0.05)
    (tmp_path / ADJUSTMENTS_FILE).write_text(
        f"{HEADER}\n40,0.15,0.05,{exact.alpha_adj!r},0.0480000000,true\n"
    )
    hit = cached_adjustment(40, 0.15, 0.05, tmp_path)
    assert hit.search_iterations == 0
    assert hit.alpha_adj == exact.alpha_adj


@pytest.mark.parametrize(
    "bad_row",
    [
        "100,0.5",
        "100,0.5,0.1,abc,0.09,true",
        "100,0.5,0.1,0.02,0.09,maybe",
        "x,0.5,0.1,0.02,0.09,true",
    ],
)
def test_malformed_row_is_a_miss_and_is_repaired(tmp_path, bad_row):
    path = tmp_path / ADJUSTMENTS_FILE
    path.write_text(f"{HEADER}\n10,0.5,0.1,0.1,0.0,false\n{bad_row}\n")
    result = cached_adjustment(100, 0.5, 0.1, tmp_path)
    assert result.search_iterations > 0  # recomputed
    assert result.alpha_adj == adjust_significance(100, 0.5, 0.1).alpha_adj
    lines = path.read_text().splitlines()
    assert lines[0] == HEADER
    assert lines[1] == "10,0.5,0.1,0.1,0.0,false"  # the good row is kept
    assert len(lines) == 3  # and the malformed one is gone
    assert not path.with_suffix(".tmp").exists()
    assert cached_adjustment(100, 0.5, 0.1, tmp_path).search_iterations == 0


def test_file_in_the_older_format_is_a_miss_and_is_rewritten(tmp_path):
    # rows whose alpha_adj came from the float bisection, not from a plateau
    path = tmp_path / ADJUSTMENTS_FILE
    path.write_text(
        "k,p,alpha,alpha_adj,achieved_rejection,feasible\n"
        "100,0.500000,0.100000,0.0204797958,0.0999507889,true\n"
    )
    result = cached_adjustment(100, 0.5, 0.1, tmp_path)
    assert result.search_iterations > 0
    assert result.alpha_adj == 0.0203
    lines = path.read_text().splitlines()
    assert lines[0] == HEADER
    assert len(lines) == 2 and lines[1].startswith("100,0.5,0.1,0.0203,")
