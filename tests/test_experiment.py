"""I/O and experiment-protocol tests on temp files and the seeded tables."""
import io

import numpy as np
import pytest

from fair_topk.datasets import write_german_credit_like
from fair_topk.experiment import (
    REPORT_COLUMNS,
    DataLoadError,
    DatasetSpec,
    emit_curve_data,
    load_candidates,
    load_ranking,
    load_spec,
    run_experiment,
    save_candidates,
)
from fair_topk.candidates import CandidatePool


def write(path, text):
    path.write_text(text)
    return path


BASIC = "id,score,protected\na,3.5,1\nb,1.25,0\nc,2.0,1\n"


def basic_spec(path, **overrides):
    defaults = dict(name="basic", path=path, k=2)
    defaults.update(overrides)
    return DatasetSpec(**defaults)


# ---------------------------------------------------------------------------
# candidate loading

def test_load_candidates_basic(tmp_path):
    pool = load_candidates(basic_spec(write(tmp_path / "d.csv", BASIC)))
    assert pool.ids.tolist() == ["a", "b", "c"]
    assert pool.scores.tolist() == [3.5, 1.25, 2.0]
    assert pool.protected.tolist() == [True, False, True]


def test_load_candidates_negates_when_lower_is_better(tmp_path):
    spec = basic_spec(write(tmp_path / "d.csv", BASIC), higher_is_better=False)
    pool = load_candidates(spec)
    assert pool.scores.tolist() == [-3.5, -1.25, -2.0]


def test_load_candidates_custom_columns_and_value(tmp_path):
    text = "pk,quality,race\n1,10,X\n2,20,Y\n"
    spec = basic_spec(
        write(tmp_path / "d.csv", text),
        id_column="pk",
        score_column="quality",
        protected_column="race",
        protected_value="X",
    )
    pool = load_candidates(spec)
    assert pool.protected.tolist() == [True, False]


def test_load_candidates_missing_file(tmp_path):
    with pytest.raises(DataLoadError, match="no such file"):
        load_candidates(basic_spec(tmp_path / "absent.csv"))


def test_load_candidates_missing_column(tmp_path):
    path = write(tmp_path / "d.csv", "id,quality\n1,2\n")
    with pytest.raises(DataLoadError, match="'score'"):
        load_candidates(basic_spec(path))


def test_load_candidates_bad_score_reports_row(tmp_path):
    path = write(tmp_path / "d.csv", "id,score,protected\na,1,0\nb,oops,1\n")
    with pytest.raises(DataLoadError, match="row 3"):
        load_candidates(basic_spec(path))


def test_load_candidates_duplicate_ids(tmp_path):
    path = write(tmp_path / "d.csv", "id,score,protected\na,1,0\na,2,1\n")
    with pytest.raises(DataLoadError, match="unique"):
        load_candidates(basic_spec(path))


def test_load_candidates_empty_table(tmp_path):
    path = write(tmp_path / "d.csv", "id,score,protected\n")
    with pytest.raises(DataLoadError, match="no candidate rows"):
        load_candidates(basic_spec(path))


def test_save_load_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(12)
    pool = CandidatePool(np.arange(50), rng.random(50), rng.random(50) < 0.4)
    out = tmp_path / "out.csv"
    save_candidates(pool, out)
    again = load_candidates(DatasetSpec(name="x", path=out, k=1))
    assert again.scores.tolist() == pool.scores.tolist()  # repr() round-trips
    assert again.protected.tolist() == pool.protected.tolist()
    assert again.ids.tolist() == pool.ids.tolist()  # numeric ids coerce back to ints


# ---------------------------------------------------------------------------
# ranking loading

def test_load_ranking_with_scores(tmp_path):
    path = write(tmp_path / "r.csv", "id,protected,score\nx,1,0.9\ny,0,0.7\n")
    ranking = load_ranking(path)
    assert ranking.ids.tolist() == ["x", "y"]
    assert ranking.protected.tolist() == [True, False]
    assert ranking.scores.tolist() == [0.9, 0.7]


def test_load_ranking_without_scores_defaults_zero():
    ranking = load_ranking(io.StringIO("id,protected\nx,yes\ny,no\n"))
    assert ranking.protected.tolist() == [True, False]
    assert ranking.scores.tolist() == [0.0, 0.0]


def test_load_ranking_rejects_non_boolean(tmp_path):
    path = write(tmp_path / "r.csv", "id,protected\nx,maybe\n")
    with pytest.raises(DataLoadError, match="row 2"):
        load_ranking(path)


def test_load_ranking_requires_columns():
    with pytest.raises(DataLoadError, match="'protected'"):
        load_ranking(io.StringIO("id,flag\nx,1\n"))


# ---------------------------------------------------------------------------
# config loading

def test_load_spec_yaml_resolves_relative_path(tmp_path):
    sub = tmp_path / "configs"
    sub.mkdir()
    write(sub / "data.csv", BASIC)
    config = write(
        sub / "exp.yaml",
        "name: demo\npath: data.csv\nk: 2\np_grid: [0.3, 0.5]\nalpha: 0.1\n",
    )
    spec = load_spec(config)
    assert spec.p_grid == (0.3, 0.5)
    assert spec.path == sub / "data.csv"
    assert len(load_candidates(spec)) == 3


def test_load_spec_json(tmp_path):
    config = write(
        tmp_path / "exp.json", '{"name": "j", "path": "/tmp/x.csv", "k": 5}'
    )
    spec = load_spec(config)
    assert spec.name == "j"
    assert spec.k == 5
    assert str(spec.path) == "/tmp/x.csv"  # absolute paths pass through


def test_load_spec_unknown_key(tmp_path):
    config = write(tmp_path / "exp.yaml", "name: x\npath: d.csv\nk: 2\nbogus: 1\n")
    with pytest.raises(DataLoadError, match="bogus"):
        load_spec(config)


def test_load_spec_missing_required_key(tmp_path):
    config = write(tmp_path / "exp.yaml", "name: x\npath: d.csv\n")
    with pytest.raises(DataLoadError, match="'k'"):
        load_spec(config)


def test_load_spec_rejects_non_mapping(tmp_path):
    config = write(tmp_path / "exp.yaml", "- 1\n- 2\n")
    with pytest.raises(DataLoadError, match="mapping"):
        load_spec(config)


def test_dataset_spec_validation():
    with pytest.raises(ValueError):
        DatasetSpec(name="x", path="d.csv", k=0)
    with pytest.raises(ValueError):
        DatasetSpec(name="x", path="d.csv", k=1, alpha=1.0)
    with pytest.raises(ValueError):
        DatasetSpec(name="x", path="d.csv", k=1, p_grid=(0.5, 1.5))
    spec = DatasetSpec(name="x", path="d.csv", k=1, p_grid=["0.3", 0.5])
    assert spec.p_grid == (0.3, 0.5)


# ---------------------------------------------------------------------------
# the experiment protocol

@pytest.fixture()
def small_dataset(tmp_path):
    rng = np.random.default_rng(77)
    pool = CandidatePool(np.arange(1, 41), rng.random(40), rng.random(40) < 0.5)
    path = tmp_path / "pool.csv"
    save_candidates(pool, path)
    return DatasetSpec(name="small", path=path, k=10, p_grid=(0.3, 0.5))


def test_run_experiment_row_structure(small_dataset):
    report = run_experiment(small_dataset)
    assert len(report.rows) == 6  # three methods x two grid points
    assert [row.method for row in report.rows] == [
        "color-blind", "fair", "feldman", "color-blind", "fair", "feldman",
    ]
    assert [row.p for row in report.rows[:3]] == [0.3, 0.3, 0.3]
    # the reference rows do not depend on p
    assert report.rows[0].report == report.rows[3].report
    assert report.rows[2].report == report.rows[5].report
    # color-blind is the utility reference
    assert report.rows[0].report.ndcg == pytest.approx(1.0)
    assert report.rows[0].report.selection_utility_loss == 0.0


def test_run_experiment_csv_shape(small_dataset):
    stream = io.StringIO()
    run_experiment(small_dataset).to_csv(stream)
    lines = stream.getvalue().splitlines()
    assert lines[0] == ",".join(REPORT_COLUMNS)
    assert len(lines) == 7
    first = lines[1].split(",")
    assert first[0] == "small"
    assert first[2] == "0.300000"
    assert first[6] == "0"  # rank drop column is an integer


def test_run_experiment_rejects_oversized_k(small_dataset, tmp_path):
    spec = DatasetSpec(name="big-k", path=small_dataset.path, k=100)
    with pytest.raises(DataLoadError, match="exceeds pool size"):
        run_experiment(spec)


def test_run_experiment_uses_cache_dir(small_dataset, tmp_path):
    from fair_topk.store import cached_adjustment

    cache = tmp_path / "cache"
    run_experiment(small_dataset, cache_dir=cache)
    lines = (cache / "adjustments.csv").read_text().splitlines()
    assert len(lines) == 3  # header + one row per grid point
    # a repeat query is served from the file, not recomputed
    hit = cached_adjustment(10, 0.3, 0.1, cache)
    assert hit.search_iterations == 0


def test_german_credit_trend(tmp_path):
    """Directional behavior on the seeded credit table: the constrained share
    climbs with p while ndcg decays from the color-blind 1.0."""
    path = tmp_path / "german.csv"
    write_german_credit_like(path, n=1000)
    spec = DatasetSpec(
        name="german-credit",
        path=path,
        k=100,
        score_column="credit_score",
        protected_column="under_25",
        protected_value="yes",
        p_grid=(0.15, 0.3, 0.4),
    )
    report = run_experiment(spec)
    fair_rows = [row for row in report.rows if row.method == "fair"]
    shares = [row.report.protected_share for row in fair_rows]
    ndcgs = [row.report.ndcg for row in fair_rows]
    blind = report.rows[0].report

    assert blind.protected_share == pytest.approx(0.09)  # seeded anchor
    assert blind.ndcg == pytest.approx(1.0)
    assert shares == sorted(shares)
    assert shares[0] >= blind.protected_share
    assert shares[-1] == pytest.approx(0.30, abs=0.03)
    assert ndcgs == sorted(ndcgs, reverse=True)
    assert ndcgs[-1] >= 0.97


def test_emit_curve_data_shape():
    stream = io.StringIO()
    emit_curve_data(20, [0.4, 0.5], [0.1], stream, trials=400, seed=3)
    lines = stream.getvalue().splitlines()
    assert lines[0].startswith("k,p,alpha_adj")
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[0] == "20"
        analytic, simulated = float(cells[3]), float(cells[4])
        stderr = float(cells[5])
        assert 0.0 <= analytic <= 1.0
        assert abs(simulated - analytic) <= 5 * max(stderr, 1e-6) + 0.01


def test_emit_curve_data_label_rebuilds_the_calibrated_value():
    # six decimals would print 0.012155, a different (over-alpha) table
    stream = io.StringIO()
    emit_curve_data(1500, [0.1], [0.0121547], stream, trials=2, seed=3)
    assert float(stream.getvalue().splitlines()[1].split(",")[2]) == 0.0121547
