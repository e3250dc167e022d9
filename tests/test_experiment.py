"""I/O and experiment-protocol tests on temp files and the seeded tables."""
import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import fair_topk
from fair_topk.datasets import write_compas_like, write_german_credit_like
from fair_topk.experiment import (
    REPORT_FIELDS,
    DataLoadError,
    DatasetSpec,
    ExperimentRow,
    _file_faults,
    _is_plain,
    _parse_plain_pool,
    _stream_pool,
    emit_curve_data,
    load_candidates,
    load_ranking,
    load_spec,
    run_experiment,
)
from fair_topk.candidates import CandidatePool
from fair_topk.output import write as write_rows
from pools import write_pool

REPORT_HEADER = (
    "dataset,method,p,pct_protected_output,ndcg,ordering_utility_loss,rank_drop,"
    "selection_utility_loss"
)


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
    write_pool(pool, out)
    again = load_candidates(DatasetSpec(name="x", path=out, k=1))
    assert again.scores.tolist() == pool.scores.tolist()  # repr() round-trips
    assert again.protected.tolist() == pool.protected.tolist()
    assert again.ids.tolist() == pool.ids.tolist()  # numeric ids coerce back to ints


# Field values on which csv plus Python's int/float and numpy's C reader
# could disagree; a plain pool must either be declined or read identically.
ORDINARY = {
    "id": st.integers(-3, 30).map(str),
    "score": st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.integers(-3, 3).map(str),
    ),
}
OTHER_FLAG = {"1": "0", "yes": "no"}
TRAPS = {
    "id": st.sampled_from([
        "1_000", "\u0661\u0662", " 12 ", "+5", "007", "1.0", "12345678901234567890",
        "#7", "x", "\x1c7", '"8"',
    ]),
    "score": st.sampled_from(["nan", "1e500", " 0.5 ", "-0", "1_0.5", "0.5\r"]),
    "protected": st.sampled_from([" 1 ", "", " yes", "10", "\t1", "1\x00"]),
}
SHAPES = ["row"] * 6 + ["blank", "spaces", "short", "extra"]


@st.composite
def pool_files(draw):
    """(file text, spec overrides) for a small pool; each field is a trap
    with a per-file chance of 0, 5 or 30 in 100."""
    order = draw(st.permutations(["id", "score", "protected"]))
    value = draw(st.sampled_from(sorted(OTHER_FLAG)))
    ordinary = dict(ORDINARY, protected=st.sampled_from([value, OTHER_FLAG[value]]))
    chance = draw(st.sampled_from([0, 5, 30]))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        values = [
            draw(TRAPS[name] if draw(st.integers(0, 99)) < chance else ordinary[name])
            for name in order
        ]
        shape = draw(st.sampled_from(SHAPES)) if chance else "row"
        rows.append({
            "row": ",".join(values),
            "blank": "",
            "spaces": "   ",
            "short": ",".join(values[:2]),
            "extra": ",".join(values) + ",more",
        }[shape])
    overrides = dict(higher_is_better=draw(st.booleans()), protected_value=value)
    return "\n".join([",".join(order)] + rows) + "\n", overrides


def _pool_or_error(label, columns):
    try:
        with _file_faults(label):
            return CandidatePool(*columns)
    except DataLoadError as exc:
        return str(exc)


ONE = {"higher_is_better": True, "protected_value": "1"}


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pool_files())
# each byte the C parser must decline, where both readers would parse the row
@example(("id,score,protected\n1,0.5,1\x00\n", ONE))
@example(("id,score,protected\n\x1c7,0.5,1\n", ONE))
@example(('note,id,score,protected\n"x,1,0.5,1\ny",2,0.25,0\n', ONE))
@example(('note,id,score,protected\n"x,1,0.5,1,y",2,0.25,0\n', ONE))
# a flag value that is not its own strip matches no field, and NUL ends none
@example(("id,score,protected\n1,0.5, 1\n2,0.25,1\n", dict(ONE, protected_value=" 1")))
@example(("id,score,protected\n1,0.5,1\n", dict(ONE, protected_value="1\x00")))
def test_c_parser_declines_or_matches_the_streaming_reader(tmp_path, drawn):
    text, overrides = drawn
    path = tmp_path / "pool.csv"
    path.write_bytes(text.encode())
    spec = basic_spec(path, **overrides)
    plain = _parse_plain_pool(spec)
    if plain is None:
        return
    # the C parser read every row, so the streaming reader must read them too
    fast = _pool_or_error(str(path), plain)
    slow = _pool_or_error(str(path), _stream_pool(spec, str(path)))
    if isinstance(slow, str):
        assert fast == slow
        return
    assert fast.ids.dtype == slow.ids.dtype
    assert fast.ids.tolist() == slow.ids.tolist()
    assert fast.scores.tobytes() == slow.scores.tobytes()  # -0.0 included
    assert fast.protected.tolist() == slow.protected.tolist()


def _spy_on_loadtxt(monkeypatch):
    sources = []
    loadtxt = np.loadtxt

    def spy(source, *args, **kwargs):
        sources.append(source)
        return loadtxt(source, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    return sources


def test_c_parser_is_given_the_file_name_not_a_handle(tmp_path, monkeypatch):
    # numpy reads a named file in large pieces, but a handle line by line
    sources = _spy_on_loadtxt(monkeypatch)
    path = write(tmp_path / "pool.csv", "id,score,protected\n1,0.5,1\n2,0.25,0\n")
    assert _parse_plain_pool(basic_spec(path)) is not None
    assert len(sources) == 1 and type(sources[0]) is str
    assert os.path.samefile(sources[0], path)


def _loaded(spec):
    try:
        pool = load_candidates(spec)
    except DataLoadError as exc:
        return str(exc).replace(str(spec.path), "<pool>")
    return pool.ids.tolist(), pool.scores.tolist(), pool.protected.tolist()


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
@pytest.mark.parametrize("text", [
    "id,score,protected\n1,0.5,1\n2,0.25,0\n",
    "id,score,protected\n1,0.5,1\n2,high,0\n",
])
def test_names_numpy_would_decompress_go_to_the_row_reader(tmp_path, monkeypatch, suffix, text):
    sources = _spy_on_loadtxt(monkeypatch)
    spec = basic_spec(write(tmp_path / f"pool.csv{suffix}", text), k=1)
    assert _parse_plain_pool(spec) is None and sources == []
    # the same pool, or the same error, as a plain name gets
    assert _loaded(spec) == _loaded(basic_spec(write(tmp_path / "pool.csv", text), k=1))


def test_c_parser_reads_the_file_the_os_resolves(tmp_path, monkeypatch):
    # "link/.." is the symlink target's parent, not the working directory
    (tmp_path / "data" / "sub").mkdir(parents=True)
    (tmp_path / "link").symlink_to(tmp_path / "data" / "sub")
    write(tmp_path / "data" / "pool.csv", "id,score,protected\n1,0.5,1\n")
    write(tmp_path / "pool.csv", "id,score,protected\n2,0.25,0\n")
    monkeypatch.chdir(tmp_path)
    ids, _, protected = _parse_plain_pool(basic_spec(os.path.join("link", "..", "pool.csv")))
    assert ids.tolist() == [1] and protected.tolist() == [True]


def test_an_absolute_name_reads_from_a_removed_working_directory(tmp_path, monkeypatch):
    path = write(tmp_path / "pool.csv", "id,score,protected\n1,0.5,1\n")
    (tmp_path / "gone").mkdir()
    monkeypatch.chdir(tmp_path / "gone")
    (tmp_path / "gone").rmdir()
    assert load_candidates(basic_spec(path, k=1)).ids.tolist() == [1]


def test_plain_check_finds_lines_longer_than_the_field_limit(monkeypatch):
    monkeypatch.setattr(csv, "field_size_limit", lambda: 10)  # pieces of 10 bytes
    ten = b"x" * 10
    assert _is_plain(io.BytesIO(b"a\n" + ten + b"\n" + ten + b"\n" + ten))
    assert not _is_plain(io.BytesIO(b"a\n" + ten + b"x\nb\n"))  # crosses a piece end
    assert not _is_plain(io.BytesIO(b"a\n" + ten * 3 + b"\n"))
    assert not _is_plain(io.BytesIO(b"a\n" + ten + b"x"))  # the last line has no newline


def test_experiment_pools_take_the_c_parser(tmp_path):
    write_german_credit_like(tmp_path / "credit.csv")
    write_compas_like(tmp_path / "compas.csv", n=2000)
    specs = [
        basic_spec(tmp_path / "credit.csv", score_column="credit_score",
                   protected_column="under_25", protected_value="yes"),
        basic_spec(tmp_path / "compas.csv", score_column="risk_score",
                   protected_column="race", protected_value="African-American",
                   higher_is_better=False),
    ]
    for spec in specs:
        plain = _parse_plain_pool(spec)
        assert plain is not None
        with _file_faults("pool"):
            fast = CandidatePool(*plain)
            slow = CandidatePool(*_stream_pool(spec, "pool"))
        assert fast.ids.tolist() == slow.ids.tolist()
        assert fast.scores.tolist() == slow.scores.tolist()
        assert fast.protected.tolist() == slow.protected.tolist()
        assert 0 < int(fast.protected.sum()) < len(fast)


def test_c_parser_declines_string_ids_and_cut_flags(tmp_path):
    assert _parse_plain_pool(basic_spec(write(tmp_path / "d.csv", BASIC))) is None
    cut = write(tmp_path / "e.csv", "id,score,protected\n1,0.5,10\n")
    assert _parse_plain_pool(basic_spec(cut)) is None
    assert load_candidates(basic_spec(cut)).protected.tolist() == [False]


def test_writers_and_readers_name_their_encoding(tmp_path):
    # every text file the package writes or reads is UTF-8 whatever the locale
    script = """
import sys
from pathlib import Path
from fair_topk.candidates import CandidatePool
from fair_topk.datasets import write_german_credit_like
from fair_topk.experiment import DatasetSpec, load_candidates
from fair_topk.store import cached_adjustment

out = Path(sys.argv[1])
(out / "pool.csv").write_text("id,score,protected\\n\u00e91,1.0,1\\n\u00fc2,2.0,0\\n", encoding="utf-8")
pool = load_candidates(DatasetSpec(name="pool", path=out / "pool.csv", k=1))
assert pool.ids.tolist() == ["\u00e91", "\u00fc2"], pool.ids
write_german_credit_like(out / "credit.csv", n=50)
load_candidates(DatasetSpec(name="credit", path=out / "credit.csv", k=1,
                            score_column="credit_score", protected_column="under_25"))
computed = cached_adjustment(10, 0.5, 0.1, out)
assert cached_adjustment(10, 0.5, 0.1, out).alpha_adj == computed.alpha_adj
"""
    source = str(Path(fair_topk.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-c", script, str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": source},
    )
    assert result.returncode == 0, result.stderr


def test_run_experiments_script_names_its_encoding(tmp_path):
    # the report file is UTF-8 whatever the locale
    data, out = tmp_path / "data", tmp_path / "out"
    data.mkdir()
    write(data / "pool.csv", "id,score,protected\né1,0.9,0\n2,0.8,1\n3,0.7,0\n4,0.6,1\n")
    write(data / "demo.yaml", "name: démo\npath: pool.csv\nk: 2\np_grid: [0.5]\n")
    root = Path(fair_topk.__file__).resolve().parents[2]
    result = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         str(root / "scripts" / "run_experiments.py"), "--data", str(data), "--out", str(out)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(fair_topk.__file__).resolve().parents[1])},
    )
    assert result.returncode == 0, result.stderr
    lines = (out / "démo.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == REPORT_HEADER
    assert [line.split(",")[:2] for line in lines[1:]] == [
        ["démo", "color-blind"], ["démo", "fair"], ["démo", "feldman"],
    ]


def test_make_datasets_script_names_its_encoding(tmp_path):
    # the YAML configs are written as UTF-8 whatever the locale
    root = Path(fair_topk.__file__).resolve().parents[2]
    result = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         str(root / "scripts" / "make_datasets.py"), "--out", str(tmp_path), "--sat-n", "200"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(fair_topk.__file__).resolve().parents[1])},
    )
    assert result.returncode == 0, result.stderr
    for config in sorted(tmp_path.glob("*.yaml")):
        assert load_spec(config).path.exists()
    assert len(list(tmp_path.glob("*.yaml"))) == 6


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
    spec = DatasetSpec(name="x", path="d.csv", k=1, p_grid=[0.3, 0.5])
    assert spec.p_grid == (0.3, 0.5)
    with pytest.raises(TypeError, match=r"^p_grid must be a list of numbers, not \['0.3', 0.5\]$"):
        DatasetSpec(name="x", path="d.csv", k=1, p_grid=["0.3", 0.5])


@pytest.mark.parametrize("line, message", [
    ("path: 5", "path must be a string or path, not 5"),
    ("path: [pool.csv]", "path must be a string or path, not ['pool.csv']"),
    # YAML reads a float without a dot in its mantissa as a string
    ("alpha: 1e-11", "alpha must be a number, not '1e-11'"),
    ("alpha: true", "alpha must be a number, not True"),
])
def test_load_spec_names_a_path_or_alpha_of_the_wrong_type(tmp_path, line, message):
    fields = {"name": "name: demo", "path": "path: pool.csv", "k": "k: 4"}
    fields[line.split(":")[0]] = line
    config = write(tmp_path / "exp.yaml", "\n".join(fields.values()) + "\n")
    with pytest.raises(DataLoadError) as caught:
        load_spec(config)
    assert str(caught.value) == f"{config}: {message}"


# ---------------------------------------------------------------------------
# the experiment protocol

@pytest.fixture()
def small_dataset(tmp_path):
    rng = np.random.default_rng(77)
    pool = CandidatePool(np.arange(1, 41), rng.random(40), rng.random(40) < 0.5)
    path = tmp_path / "pool.csv"
    write_pool(pool, path)
    return DatasetSpec(name="small", path=path, k=10, p_grid=(0.3, 0.5))


def test_run_experiment_row_structure(small_dataset):
    rows = run_experiment(small_dataset)
    assert type(rows) is tuple
    assert all(type(row) is ExperimentRow for row in rows)
    assert len(rows) == 6  # three methods x two grid points
    assert [row.method for row in rows] == [
        "color-blind", "fair", "feldman", "color-blind", "fair", "feldman",
    ]
    assert [row.p for row in rows[:3]] == [0.3, 0.3, 0.3]
    # the reference rows do not depend on p
    assert rows[0].report == rows[3].report
    assert rows[2].report == rows[5].report
    # color-blind is the utility reference
    assert rows[0].report.ndcg == pytest.approx(1.0)
    assert rows[0].report.selection_utility_loss == 0.0


def test_run_experiment_csv_shape(small_dataset):
    stream = io.StringIO()
    rows = run_experiment(small_dataset)
    write_rows(stream, REPORT_FIELDS, [row.values() for row in rows], False)
    lines = stream.getvalue().splitlines()
    assert lines[0] == REPORT_HEADER
    assert len(lines) == 7
    first = lines[1].split(",")
    assert first[0] == "small"
    assert first[2] == "0.300000"
    assert first[6] == "0"  # rank drop column is an integer


def test_run_experiment_rejects_oversized_k(small_dataset, tmp_path):
    spec = DatasetSpec(name="big-k", path=small_dataset.path, k=100)
    with pytest.raises(DataLoadError, match="exceeds pool size"):
        run_experiment(spec)


def test_run_experiment_refuses_an_over_rejecting_table(tmp_path):
    # k * SEARCH_FLOOR > alpha: the floor's table rejects 3.3e-10 > 1e-11
    rows = "".join(f"{i},{60 - i},{i % 2}\n" for i in range(60))
    spec = basic_spec(write(tmp_path / "d.csv", "id,score,protected\n" + rows), k=60, alpha=1e-11)
    with pytest.raises(fair_topk.InfeasibleAdjustmentError, match="^no feasible alpha_adj"):
        run_experiment(spec)


def test_run_experiment_refuses_before_it_reads_the_pool(tmp_path, monkeypatch):
    def unread(spec):
        raise AssertionError("the pool was read")

    monkeypatch.setattr(fair_topk.experiment, "load_candidates", unread)
    spec = basic_spec(tmp_path / "absent.csv", k=1000, alpha=1e-11)
    with pytest.raises(fair_topk.InfeasibleAdjustmentError, match="^no feasible alpha_adj"):
        run_experiment(spec)


def test_run_experiment_caches_every_p_before_it_reads_the_pool(tmp_path):
    spec = basic_spec(tmp_path / "absent.csv", k=10, p_grid=(0.3, 0.5))
    cache = tmp_path / "cache"
    with pytest.raises(DataLoadError, match="no such file"):
        run_experiment(spec, cache_dir=cache)
    assert len((cache / "adjustments.csv").read_text().splitlines()) == 3


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
    rows = run_experiment(spec)
    fair_rows = [row for row in rows if row.method == "fair"]
    shares = [row.report.protected_share for row in fair_rows]
    ndcgs = [row.report.ndcg for row in fair_rows]
    blind = rows[0].report

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
