"""CLI tests: subcommand output, exit codes, determinism.  Everything runs
in-process through cli.main so stdout/stderr land in capsys."""
import csv
import io
import json
import sys

import numpy as np
import pytest

from fair_topk import cli, experiment
from fair_topk.candidates import CandidatePool
from fair_topk.experiment import save_candidates
from fair_topk.fairness import compute_mtable
from fair_topk.ranker import color_blind_topk


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# mtable

def test_mtable_known_row(capsys):
    code, out, err = run(capsys, "mtable", "--k", "12", "--p", "0.5", "--alpha", "0.1")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "position,minimum"
    assert lines[1] == "1,0"
    assert lines[-1] == "12,4"
    assert len(lines) == 13


def test_mtable_low_p_all_zero(capsys):
    code, out, _ = run(capsys, "mtable", "--k", "12", "--p", "0.1", "--alpha", "0.1")
    assert code == 0
    minima = [line.split(",")[1] for line in out.splitlines()[1:]]
    assert minima == ["0"] * 12


def test_mtable_tiny_k_forced(capsys):
    code, out, _ = run(capsys, "mtable", "--k", "1", "--p", "0.5", "--alpha", "0.6")
    assert code == 0
    assert out.splitlines()[1] == "1,1"


def test_adjust_then_mtable_prints_the_calibrated_table(capsys):
    code, out, _ = run(capsys, "adjust", "--k", "100", "--p", "0.5", "--alpha", "0.1")
    assert code == 0
    assert out.splitlines()[1] == "100,0.500000,0.100000,0.020300,0.099951,true"
    code, out, _ = run(capsys, "mtable", "--k", "100", "--p", "0.5", "--alpha", "0.020300")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "position,minimum"
    assert len(lines) == 101


def test_adjust_then_mtable_on_an_infeasible_cell(capsys):
    # the step structure leaves the target unreachable: adjust exits 1 but
    # prints the conservative alpha_adj, whose table rank uses
    code, out, _ = run(capsys, "adjust", "--k", "40", "--p", "0.1", "--alpha", "0.1")
    assert code == 1
    assert out.splitlines()[1] == "40,0.100000,0.100000,0.080000,0.079766,false"
    code, out, _ = run(capsys, "mtable", "--k", "40", "--p", "0.1", "--alpha", "0.080000")
    assert code == 0
    minima = [int(line.split(",")[1]) for line in out.splitlines()[1:]]
    assert minima == compute_mtable(40, 0.1, 0.08).minima.tolist()


def test_mtable_json(capsys):
    code, out, _ = run(
        capsys, "mtable", "--k", "4", "--p", "0.5", "--alpha", "0.1", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["minima"] == [0, 0, 0, 1]


# ---------------------------------------------------------------------------
# adjust

def test_adjust_feasible_row(capsys):
    code, out, _ = run(capsys, "adjust", "--k", "100", "--p", "0.5", "--alpha", "0.1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,p,alpha,alpha_adj,achieved_rejection,feasible"
    cells = lines[1].split(",")
    assert cells[0] == "100"
    assert cells[3] == "0.020300"
    assert cells[5] == "true"


def test_adjust_large_k_anchor(capsys):
    code, out, _ = run(capsys, "adjust", "--k", "1500", "--p", "0.1", "--alpha", "0.1")
    assert code == 0
    alpha_adj = float(out.splitlines()[1].split(",")[3])
    assert alpha_adj == pytest.approx(0.0122, abs=5e-4)


def test_adjust_regression_k40(capsys):
    # the k=40, p=0.5 rejection curve crosses 0.1 near 0.0318; the printed
    # row must be feasible and carry that calibrated value
    code, out, _ = run(capsys, "adjust", "--k", "40", "--p", "0.5", "--alpha", "0.1")
    assert code == 0
    cells = out.splitlines()[1].split(",")
    assert float(cells[3]) == pytest.approx(0.03178, abs=1e-3)
    assert cells[5] == "true"


def test_adjust_infeasible_still_prints_conservative_value(capsys):
    code, out, _ = run(capsys, "adjust", "--k", "40", "--p", "0.1", "--alpha", "0.1")
    assert code == 1
    cells = out.splitlines()[1].split(",")
    assert cells[5] == "false"
    assert float(cells[4]) < 0.1  # conservative: under-rejects, never over


# ---------------------------------------------------------------------------
# verify: the three worked ranking prefixes

def flags_csv(flags):
    lines = ["id,protected"] + [f"{i+1},{int(f)}" for i, f in enumerate(flags)]
    return "\n".join(lines) + "\n"

ECONOMIST = flags_csv([1, 0, 0, 0, 0, 0, 0, 0, 0, 0])   # protected: female
ANALYST = flags_csv([0, 1, 0, 0, 0, 0, 0, 1, 0, 0])      # protected: male
COPYWRITER = flags_csv([0, 0, 0, 0, 0, 0, 1, 0, 0, 0])   # protected: female


def verify_stdin(capsys, monkeypatch, text, *extra):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    return run(capsys, "verify", "-", *extra)


def test_verify_economist_unfair_at_nine(capsys, monkeypatch):
    code, out, _ = verify_stdin(capsys, monkeypatch, ECONOMIST, "--p", "0.4")
    assert code == 0  # verdict only changes the exit code under --strict
    assert out.splitlines()[1] == "false,10,0.100000,9,2,1"


def test_verify_analyst_fair_at_p04(capsys, monkeypatch):
    code, out, _ = verify_stdin(capsys, monkeypatch, ANALYST, "--p", "0.4")
    assert code == 0
    assert out.splitlines()[1] == "true,10,0.100000,,,"


def test_verify_analyst_unfair_at_p05(capsys, monkeypatch):
    code, out, _ = verify_stdin(
        capsys, monkeypatch, ANALYST, "--p", "0.5", "--strict"
    )
    assert code == 1
    assert out.splitlines()[1] == "false,10,0.100000,7,2,1"


def test_verify_copywriter_unfair_at_five(capsys, monkeypatch):
    code, out, _ = verify_stdin(capsys, monkeypatch, COPYWRITER, "--p", "0.4")
    assert out.splitlines()[1] == "false,10,0.100000,5,1,0"


def test_verify_strict_passes_fair_ranking(capsys, monkeypatch):
    code, _, _ = verify_stdin(
        capsys, monkeypatch, ANALYST, "--p", "0.4", "--strict"
    )
    assert code == 0


def test_verify_adjusted_uses_corrected_alpha(capsys, monkeypatch):
    code, out, _ = verify_stdin(
        capsys, monkeypatch, ANALYST, "--p", "0.5", "--adjusted"
    )
    assert code == 0
    cells = out.splitlines()[1].split(",")
    assert float(cells[2]) < 0.1   # corrected per-test level is smaller
    # the milder table tolerates the early prefixes (raw flags position 7)
    # but this sequence still falls short at the very end
    assert cells[0] == "false"
    assert cells[3] == "10"


def test_verify_adjusted_refuses_an_over_rejecting_table(capsys, tmp_path):
    # k * SEARCH_FLOOR > alpha: the floor's table rejects 3.3e-10 > 1e-11
    path = tmp_path / "r.csv"
    path.write_text(flags_csv([i % 2 for i in range(60)]))
    code, out, err = run(
        capsys, "verify", str(path), "--p", "0.5", "--alpha", "1e-11", "--adjusted"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: no feasible alpha_adj for k=60 p=0.500000 ")
    assert err.rstrip().endswith("at alpha_adj=1e-10")


def test_verify_file_input_and_json(capsys, tmp_path):
    path = tmp_path / "r.csv"
    path.write_text(ECONOMIST)
    code, out, _ = run(capsys, "verify", str(path), "--p", "0.4", "--json")
    payload = json.loads(out)
    assert payload["fair"] is False
    assert payload["first_violation"] == 9
    assert payload["required"] == 2
    assert payload["observed"] == 1


def test_verify_missing_file_is_data_error(capsys, tmp_path):
    code, _, err = run(capsys, "verify", str(tmp_path / "nope.csv"), "--p", "0.4")
    assert code == 3
    assert "no such file" in err


def test_verify_header_only_ranking_is_data_error(capsys, tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("id,protected\n")
    assert run(capsys, "verify", str(path), "--p", "0.4") == (3, "", f"error: {path}: no rows\n")


# ---------------------------------------------------------------------------
# rank

POOL = (
    "id,score,protected\n"
    "1,0.9,0\n2,0.8,0\n3,0.7,0\n4,0.6,0\n5,0.5,1\n6,0.4,1\n"
)


def test_rank_worked_example(capsys, tmp_path):
    path = tmp_path / "pool.csv"
    path.write_text(POOL)
    code, out, _ = run(
        capsys, "rank", str(path), "--k", "4", "--p", "0.5", "--alpha", "0.1", "--raw"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "position,id,score,protected,color_blind_position"
    assert lines[1] == "1,1,0.9,0,1"
    assert lines[4] == "4,5,0.5,1,5"  # the forced protected candidate rose from 5


def test_rank_tie_prefers_protected(capsys, tmp_path):
    path = tmp_path / "pool.csv"
    path.write_text("id,score,protected\n1,0.7,0\n2,0.7,1\n3,0.1,0\n")
    code, out, _ = run(
        capsys, "rank", str(path), "--k", "2", "--p", "0.5", "--alpha", "0.1", "--raw"
    )
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [r[1] for r in rows] == ["2", "1"]


def test_rank_colorblind_and_feldman_methods(capsys, tmp_path):
    path = tmp_path / "pool.csv"
    path.write_text(POOL)
    code, out, _ = run(capsys, "rank", str(path), "--k", "2", "--method", "colorblind")
    assert code == 0
    assert [line.split(",")[1] for line in out.splitlines()[1:]] == ["1", "2"]

    code, out, _ = run(capsys, "rank", str(path), "--k", "6", "--method", "feldman")
    assert code == 0
    assert len(out.splitlines()) == 7


def test_rank_fair_requires_p(capsys, tmp_path):
    path = tmp_path / "pool.csv"
    path.write_text(POOL)
    code, _, err = run(capsys, "rank", str(path), "--k", "2")
    assert code == 2
    assert "--p is required" in err
    # the usage error comes before the pool is read: a missing file is not reached
    code, _, err = run(capsys, "rank", str(tmp_path / "missing.csv"), "--k", "2")
    assert code == 2
    assert err == "error: --p is required for --method fair\n"


def test_rank_strict_exhaustion_exits_one(capsys, tmp_path):
    path = tmp_path / "pool.csv"
    path.write_text("id,score,protected\n1,0.9,0\n2,0.8,0\n3,0.7,0\n4,0.1,1\n")
    code, _, err = run(
        capsys,
        "rank", str(path), "--k", "4", "--p", "0.7", "--alpha", "0.1",
        "--raw", "--strict",
    )
    assert code == 1
    assert "position" in err


def test_rank_nonstrict_exhaustion_warns(capsys, tmp_path):
    path = tmp_path / "pool.csv"
    path.write_text("id,score,protected\n1,0.9,0\n2,0.8,0\n3,0.7,0\n4,0.1,1\n")
    code, out, err = run(
        capsys, "rank", str(path), "--k", "4", "--p", "0.7", "--alpha", "0.1", "--raw"
    )
    assert code == 0
    assert "warning" in err
    assert len(out.splitlines()) == 5  # full ranking still emitted


def test_rank_refuses_an_over_rejecting_table(capsys, tmp_path):
    code, out, err = run(capsys, "rank", "--k", "1000", "--p", "0.5", "--alpha", "1e-11")
    assert code == 1
    assert out == ""
    assert err.startswith("error: no feasible alpha_adj for k=1000 p=0.500000 ")
    # the same message as verify --adjusted on a ranking of the same length
    path = tmp_path / "r.csv"
    path.write_text(flags_csv([i % 2 for i in range(1000)]))
    assert run(capsys, "verify", str(path), "--p", "0.5", "--alpha", "1e-11",
               "--adjusted") == (1, "", err)
    # tiny values print as themselves, not as 0.000000
    assert "alpha=1e-11: best achievable rejection 3.6209e-09 at alpha_adj=1e-10" in err


def test_rank_uses_an_under_rejecting_table(capsys):
    # adjust reports (40, 0.7, 0.1) infeasible: its table rejects 0.097 < 0.1
    assert run(capsys, "adjust", "--k", "40", "--p", "0.7", "--alpha", "0.1")[0] == 1
    code, out, _ = run(capsys, "rank", "--k", "40", "--p", "0.7", "--alpha", "0.1")
    assert code == 0
    assert len(out.splitlines()) == 41


def _unread(spec):
    raise AssertionError("the pool was read")


def test_rank_settles_the_table_before_it_reads_the_pool(capsys, tmp_path, monkeypatch):
    refusal = run(capsys, "rank", "--k", "1000", "--p", "0.5", "--alpha", "1e-11")[2]
    monkeypatch.setattr(experiment, "load_candidates", _unread)
    missing = str(tmp_path / "missing.csv")
    code, out, err = run(capsys, "rank", missing, "--k", "1000", "--p", "0.5", "--alpha", "1e-11")
    assert (code, out, err) == (1, "", refusal)
    code, out, err = run(capsys, "rank", missing, "--k", "5", "--p", "0.5", "--raw", "--alpha", "2")
    assert (code, out, err) == (2, "", "error: alpha_adj must lie in the open interval (0, 1)\n")


def test_rank_synthetic_pool_is_seeded(capsys):
    code, first, _ = run(
        capsys, "rank", "--k", "12", "--p", "0.5", "--seed", "3", "--raw"
    )
    assert code == 0
    _, second, _ = run(
        capsys, "rank", "--k", "12", "--p", "0.5", "--seed", "3", "--raw"
    )
    assert first == second
    _, third, _ = run(
        capsys, "rank", "--k", "12", "--p", "0.5", "--seed", "4", "--raw"
    )
    assert first != third


@pytest.mark.parametrize("method", ["fair", "colorblind", "feldman"])
def test_rank_k_above_pool_size_is_data_error(capsys, tmp_path, method):
    path = tmp_path / "p3.csv"
    path.write_text("id,score,protected\n1,0.9,0\n2,0.5,1\n3,0.1,0\n")
    code, out, err = run(capsys, "rank", str(path), "--k", "5", "--p", "0.5", "--method", method)
    assert code == 3
    assert out == ""
    assert err == f"error: {path}: k=5 exceeds pool size 3\n"


def test_rank_synthetic_pool_rejects_p_out_of_range(capsys):
    # --p 0 is out of range, not a request for the default 0.5
    code, out, err = run(capsys, "rank", "--k", "3", "--p", "0", "--method", "colorblind")
    assert code == 2
    assert out == ""
    assert "p must lie in the open interval" in err


def test_rank_json_structure(capsys, tmp_path):
    path = tmp_path / "pool.csv"
    path.write_text(POOL)
    code, out, _ = run(
        capsys,
        "rank", str(path), "--k", "2", "--method", "colorblind", "--json",
    )
    payload = json.loads(out)
    assert payload[0] == {
        "position": 1,
        "id": 1,
        "score": 0.9,
        "protected": False,
        "color_blind_position": 1,
    }


def test_rank_color_blind_position_with_ties_and_string_ids(capsys, tmp_path):
    rng = np.random.default_rng(5)
    ids = [f"c{i}" for i in rng.choice(1000, size=40, replace=False)]
    pool = CandidatePool(ids, rng.integers(0, 3, 40) / 2.0, rng.random(40) < 0.3)
    path = tmp_path / "pool.csv"
    save_candidates(pool, path)
    full = color_blind_topk(pool, len(pool)).ids.tolist()
    code, out, _ = run(
        capsys, "rank", str(path), "--k", "15", "--p", "0.6", "--alpha", "0.1", "--raw"
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [int(r[4]) for r in rows] == [full.index(r[1]) + 1 for r in rows]
    assert any(int(r[4]) != int(r[0]) for r in rows)  # the table moved someone


@pytest.mark.parametrize("string_ids", [False, True], ids=["int-ids", "string-ids"])
@pytest.mark.parametrize("method", ["colorblind", "feldman"])
def test_rank_baseline_color_blind_position_is_in_the_original_pool(
    capsys, tmp_path, method, string_ids
):
    rng = np.random.default_rng(8)
    raw = rng.choice(1000, size=60, replace=False)
    ids = [f"c{i}" for i in raw] if string_ids else raw
    # few distinct scores, so ties decide places; a weak protected group, so
    # the repair lifts protected candidates from deep in the original order
    protected = rng.random(60) < 0.3
    pool = CandidatePool(ids, rng.integers(0, 4, 60) / 2.0 - protected, protected)
    path = tmp_path / "pool.csv"
    save_candidates(pool, path)
    full = [str(i) for i in color_blind_topk(pool, len(pool)).ids.tolist()]
    code, out, _ = run(capsys, "rank", str(path), "--k", "20", "--method", method)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [int(r[4]) for r in rows] == [full.index(r[1]) + 1 for r in rows]
    if method == "feldman":
        assert max(int(r[4]) for r in rows) > 30  # the repair moved someone up


# ---------------------------------------------------------------------------
# simulate

def test_simulate_deterministic(capsys):
    args = ("simulate", "--k", "50", "--p", "0.5", "--alpha-adj", "0.01",
            "--trials", "300", "--seed", "9")
    code, first, _ = run(capsys, *args)
    assert code == 0
    _, second, _ = run(capsys, *args)
    assert first == second
    cells = first.splitlines()[1].split(",")
    assert cells[3] == "300"
    assert 0.0 <= float(cells[5]) <= 1.0


def test_simulate_readme_example(capsys):
    code, out, _ = run(
        capsys, "simulate", "--k", "100", "--p", "0.5", "--alpha-adj", "0.0207",
        "--trials", "2000", "--seed", "7",
    )
    assert code == 0
    assert out.splitlines()[1] == "100,0.500000,0.020700,2000,235,0.117500,0.007200"


def test_simulate_negative_seed_is_usage_error(capsys):
    code, out, err = run(
        capsys, "simulate", "--k", "5", "--p", "0.5", "--alpha-adj", "0.1",
        "--trials", "3", "--seed", "-1",
    )
    assert code == 2
    assert out == ""
    assert "seed must be a non-negative integer" in err


def test_rank_negative_seed_is_usage_error(capsys):
    code, out, err = run(capsys, "rank", "--k", "3", "--p", "0.5", "--seed", "-2")
    assert code == 2
    assert out == ""
    assert "seed must be a non-negative integer" in err


# ---------------------------------------------------------------------------
# experiment

def test_experiment_csv(capsys, tmp_path):
    data = tmp_path / "pool.csv"
    data.write_text(POOL)
    config = tmp_path / "exp.yaml"
    config.write_text(
        "name: demo\npath: pool.csv\nk: 4\np_grid: [0.5]\nalpha: 0.1\n"
    )
    code, out, _ = run(capsys, "experiment", str(config))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("dataset,method,p,")
    assert len(lines) == 4
    assert [line.split(",")[1] for line in lines[1:]] == [
        "color-blind", "fair", "feldman",
    ]


@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache-dir"])
def test_experiment_refuses_what_rank_refuses(capsys, tmp_path, cached):
    # k * SEARCH_FLOOR > alpha: the floor's table rejects 3.6e-9 > 1e-11
    (tmp_path / "pool.csv").write_text(
        "id,score,protected\n" + "".join(f"{i},{1000 - i},{i % 2}\n" for i in range(1000))
    )
    config = tmp_path / "exp.yaml"
    config.write_text("name: demo\npath: pool.csv\nk: 1000\np_grid: [0.5]\nalpha: 1.0e-11\n")
    refusal = run(capsys, "rank", "--k", "1000", "--p", "0.5", "--alpha", "1e-11")[2]
    cache = tmp_path / "c"
    argv = ["experiment", str(config)] + (["--cache-dir", str(cache)] if cached else [])
    for _ in range(2 if cached else 1):  # with a cache: a miss, then a hit on its row
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.splitlines()[0] == refusal.splitlines()[0]
    if cached:
        assert len((cache / "adjustments.csv").read_text().splitlines()) == 2


@pytest.mark.parametrize("pool", ["missing", "smaller-than-k"])
def test_experiment_refuses_before_it_reads_the_pool(capsys, tmp_path, monkeypatch, pool):
    if pool != "missing":
        (tmp_path / "pool.csv").write_text(POOL)
    config = tmp_path / "exp.yaml"
    config.write_text("name: demo\npath: pool.csv\nk: 1000\np_grid: [0.5]\nalpha: 1.0e-11\n")
    refusal = run(capsys, "rank", "--k", "1000", "--p", "0.5", "--alpha", "1e-11")[2]
    monkeypatch.setattr(experiment, "load_candidates", _unread)
    assert run(capsys, "experiment", str(config)) == (1, "", refusal)


def test_experiment_on_a_pool_whose_score_range_overflows(capsys, recwarn, tmp_path):
    (tmp_path / "pool.csv").write_text(
        "id,score,protected\n1,1e308,0\n2,5e307,1\n3,0,0\n4,-1e308,1\n"
    )
    config = tmp_path / "exp.yaml"
    config.write_text("name: demo\npath: pool.csv\nk: 2\np_grid: [0.5]\n")
    code, out, err = run(capsys, "experiment", str(config))
    assert (code, err) == (0, "")
    assert [line.split(",")[1:5] for line in out.splitlines()[1:]] == [
        ["color-blind", "0.500000", "0.500000", "1.000000"],
        ["fair", "0.500000", "0.500000", "1.000000"],
        ["feldman", "0.500000", "0.500000", "1.000000"],
    ]
    assert [str(warning.message) for warning in recwarn] == []


def test_experiment_missing_config(capsys, tmp_path):
    code, _, err = run(capsys, "experiment", str(tmp_path / "absent.yaml"))
    assert code == 3


@pytest.mark.parametrize(
    "line, field",
    [
        ("protected_value: 1", "protected_value"),  # an unquoted YAML integer
        ("k: 2.5", "k"),
        ('higher_is_better: "no"', "higher_is_better"),  # a string, not false
        ("path: 5", "path"),
        ("path: [pool.csv]", "path"),
        ("alpha: 1e-11", "alpha"),  # YAML reads it as a string
        ("p_grid: 0.5", "p_grid"),
        ('p_grid: "0.35"', "p_grid"),
        ('p_grid: "05"', "p_grid"),  # not the grid (0.0, 5.0)
        ("p_grid: [true]", "p_grid"),
    ],
)
def test_experiment_config_field_of_wrong_type_exits_three(capsys, tmp_path, line, field):
    (tmp_path / "pool.csv").write_text(POOL)
    config = tmp_path / "exp.yaml"
    fields = {"name": "name: demo", "path": "path: pool.csv", "k": "k: 4"}
    fields[line.split(":")[0]] = line
    config.write_text("\n".join(fields.values()) + "\n")
    code, out, err = run(capsys, "experiment", str(config))
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: {config}: {field} must be ") and err.count("\n") == 1


ONE_GROUP = "id,score,protected\n1,0.9,0\n2,0.8,0\n3,0.7,0\n"


@pytest.mark.parametrize("argv", [
    ("experiment", "{config}"),
    ("rank", "{pool}", "--k", "2", "--method", "feldman"),
])
def test_repair_of_a_one_group_pool_names_the_file(capsys, tmp_path, argv):
    pool = tmp_path / "pool.csv"
    pool.write_text(ONE_GROUP)
    config = tmp_path / "exp.yaml"
    config.write_text("name: demo\npath: pool.csv\nk: 2\n")
    code, out, err = run(capsys, *(arg.format(config=config, pool=pool) for arg in argv))
    assert code == 3
    assert out == ""
    assert err == f"error: {pool}: both groups must be non-empty to repair\n"


# ---------------------------------------------------------------------------
# prep-xing

XING = (
    "query,id,gender,work_months,edu_months,views\n"
    "economist,1,female,10,20,3\n"
    "economist,2,male,5,5,10\n"
    "copywriter,3,female,1,2,3\n"
)


def test_prep_xing_scores_and_filter(capsys, tmp_path):
    path = tmp_path / "profiles.csv"
    path.write_text(XING)
    code, out, _ = run(capsys, "prep-xing", str(path), "--query", "economist")
    assert code == 0
    assert out.splitlines() == ["id,score,protected", "1,90,1", "2,100,0"]


def test_prep_xing_protected_gender_flag(capsys, tmp_path):
    path = tmp_path / "profiles.csv"
    path.write_text(XING)
    code, out, _ = run(
        capsys,
        "prep-xing", str(path), "--query", "economist",
        "--protected-gender", "male",
    )
    assert out.splitlines()[1:] == ["1,90,0", "2,100,1"]


def test_prep_xing_multiple_queries_need_choice(capsys, tmp_path):
    path = tmp_path / "profiles.csv"
    path.write_text(XING)
    code, _, err = run(capsys, "prep-xing", str(path))
    assert code == 3
    assert "--query" in err


def test_prep_xing_query_without_rows_is_data_error(capsys, tmp_path):
    path = tmp_path / "profiles.csv"
    path.write_text(XING)
    code, out, err = run(capsys, "prep-xing", str(path), "--query", "nobody")
    assert (code, out, err) == (3, "", f"error: {path}: no rows for query 'nobody'\n")


def test_prep_xing_pipes_into_rank(capsys, tmp_path):
    # the emitted schema is exactly what rank consumes
    path = tmp_path / "profiles.csv"
    path.write_text(XING)
    code, out, _ = run(capsys, "prep-xing", str(path), "--query", "economist")
    pool = tmp_path / "pool.csv"
    pool.write_text(out)
    code, out, _ = run(capsys, "rank", str(pool), "--k", "1", "--method", "colorblind")
    assert code == 0
    assert out.splitlines()[1].startswith("1,2,")  # id 2 scored 100


# ---------------------------------------------------------------------------
# malformed input

VERIFY = ("verify", "-", "--p", "0.5")
RANK = ("rank", "{input}", "--k", "1", "--method", "colorblind")


@pytest.mark.parametrize(
    "argv, data, expected",
    [
        (VERIFY, b"id,protected,score\n1,1\n", "row 2: no 'score' field"),
        (VERIFY, b"id,protected,score\n1,1,0.5\n2,0,high\n", "row 3: unparseable score 'high'"),
        (VERIFY, b"id,protected\n1,1\n1,0\n", "unique"),
        (VERIFY, b"id,protected,score\n1,1,nan\n", "finite"),
        (RANK, b"id,score,protected\n1,0.5," + b"1" * 200_000 + b"\n", "row 2: field larger"),
        (RANK, b"id,score,protected\n1,0.5,1\n2,\xff,0\n", "row 3: not valid UTF-8"),
        (("experiment", "{input}"), b"name: \xff\npath: pool.csv\nk: 1\n", "utf-8"),
        (RANK, b"id,score,protected\n1,0.5\n", "row 2: no 'protected' field"),
        (RANK, b"id,score,protected\n\n1,0.5,1\n2,oops,0\n", "row 4: unparseable score"),
        (
            ("prep-xing", "{input}", "--query", "economist"),
            XING.encode() + b"economist,4,male,3,x,1\n",
            "row 5: unparseable edu_months 'x'",
        ),
        # numpy's reader alone would accept this score
        (RANK, b"id,score,protected\n1,0." + b"5" * 200_000 + b",1\n", "row 2: field larger"),
        (RANK, b"id,score,protected\n", "no candidate rows"),
    ],
    ids=[
        "verify-short-row", "verify-bad-score", "verify-duplicate-ids", "verify-nan-score",
        "rank-oversized-field", "rank-invalid-utf8", "experiment-invalid-utf8",
        "rank-short-row", "rank-row-counts-blank-lines", "prep-xing-row-is-file-line",
        "rank-oversized-score", "rank-header-only",
    ],
)
def test_malformed_input_exits_three_with_one_line(
    capsys, monkeypatch, recwarn, tmp_path, argv, data, expected
):
    path = tmp_path / "input"
    path.write_bytes(data)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    code, out, err = run(capsys, *(arg.format(input=path) for arg in argv))
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert expected in err
    assert [str(warning.message) for warning in recwarn] == []  # none would reach stderr


def test_stdin_is_read_as_strict_utf8(capsys, monkeypatch):
    # a C/POSIX locale opens stdin with surrogateescape, which hands the byte
    # to the parsers as text (and would accept it as an id)
    data = b"id,protected\n1,1\n2,\xff\n"
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, err = run(capsys, "verify", "-", "--p", "0.5")
    assert code == 3
    assert out == ""
    assert "row 3: not valid UTF-8" in err


def test_blank_lines_are_skipped(capsys, monkeypatch, tmp_path):
    path = tmp_path / "pool.csv"
    path.write_text(POOL.replace("\n", "\n\n", 3) + "\n")
    code, out, _ = run(capsys, "rank", str(path), "--k", "4", "--p", "0.5", "--raw")
    assert code == 0
    path.write_text(POOL)
    assert out == run(capsys, "rank", str(path), "--k", "4", "--p", "0.5", "--raw")[1]
    monkeypatch.setattr(sys, "stdin", io.StringIO("id,protected\n\n1,1\n\n2,0\n"))
    code, out, _ = run(capsys, "verify", "-", "--p", "0.5")
    assert code == 0
    assert out.splitlines()[1].startswith("true,2,")


# ---------------------------------------------------------------------------
# plumbing

def test_usage_errors_exit_two(capsys):
    assert run(capsys, "mtable", "--p", "0.5", "--alpha", "0.1")[0] == 2  # no --k
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "adjust", "--k", "0", "--p", "0.5", "--alpha", "0.1")[0] == 2


@pytest.mark.parametrize("argv", [
    ("mtable", "--k", "10", "--p", "0.5", "--alpha", "0.1", "--cache-dir", "DIR"),
    ("mtable", "--k", "10", "--p", "0.5", "--alpha", "0.1", "--adjust"),
    ("adjust", "--k", "10", "--p", "0.5", "--alpha", "0.1", "--cache-dir", "DIR"),
    ("verify", "-", "--p", "0.5", "--adjusted", "--cache-dir", "DIR"),
    ("rank", "--k", "10", "--p", "0.5", "--cache-dir", "DIR"),
    ("verify", "-", "--p", "0.5", "--raw"),
    ("verify", "-", "--p", "0.5", "--adjusted", "--raw"),
], ids=["mtable-cache-dir", "mtable-adjust", "adjust-cache-dir", "verify-cache-dir",
        "rank-cache-dir", "verify-raw", "verify-adjusted-raw"])
def test_removed_flags_are_unrecognized(capsys, tmp_path, monkeypatch, argv):
    # one-shot commands calibrate in-process; only experiment keeps a cache
    monkeypatch.setattr(sys, "stdin", io.StringIO(ANALYST))
    cache = tmp_path / "cache"
    code, out, err = run(capsys, *(str(cache) if arg == "DIR" else arg for arg in argv))
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err
    assert not cache.exists()


def test_cache_dir_env_variable_is_ignored(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("FAIR_TOPK_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "adjust", "--k", "10", "--p", "0.5", "--alpha", "0.1")[0] == 0
    assert run(capsys, "rank", "--k", "10", "--p", "0.5")[0] == 0
    assert list(tmp_path.iterdir()) == []  # no file, here or in the named directory


def test_truncated_cache_row_is_recomputed(capsys, tmp_path):
    (tmp_path / "pool.csv").write_text(POOL)
    config = tmp_path / "exp.yaml"
    config.write_text("name: demo\npath: pool.csv\nk: 4\np_grid: [0.5]\nalpha: 0.1\n")
    cache = tmp_path / "c"
    cache.mkdir()
    header = "k,p,alpha,alpha_adj,table_rejection,feasible"
    (cache / "adjustments.csv").write_text(f"{header}\n4,0.5\n")
    code, out, err = run(capsys, "experiment", str(config), "--cache-dir", str(cache))
    assert code == 0
    assert err == ""  # no traceback
    assert out == run(capsys, "experiment", str(config))[1]  # same rows as without a cache
    lines = (cache / "adjustments.csv").read_text().splitlines()
    assert lines[0] == header
    assert lines[1:] == ["4,0.5,0.1,0.1,0.0625,false"]  # k=4 rejects 1/16 at best


def test_experiment_empty_cache_dir_means_no_cache(capsys, tmp_path, monkeypatch):
    (tmp_path / "pool.csv").write_text(POOL)
    (tmp_path / "exp.yaml").write_text("name: demo\npath: pool.csv\nk: 4\np_grid: [0.5]\n")
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "experiment", "exp.yaml", "--cache-dir", "")[0] == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == ["exp.yaml", "pool.csv"]


def test_stdout_uses_plain_newlines(capsys):
    _, out, _ = run(capsys, "mtable", "--k", "3", "--p", "0.5", "--alpha", "0.1")
    assert "\r" not in out


# ---------------------------------------------------------------------------
# CSV and JSON agree

STRING_POOL = "id,score,protected\nb,0.7,0\na,0.7,1\nc,0.9,0\nd,0.1,1\ne,0.33333333333,0\n"
INPUTS = {
    "fair": ANALYST,
    "unfair": ECONOMIST,
    "pool": POOL,
    "strings": STRING_POOL,
    "xing": XING,
    "config": "name: demo\npath: pool.csv\nk: 4\np_grid: [0.3, 0.5]\n",
}


@pytest.mark.parametrize("argv", [
    ("adjust", "--k", "1500", "--p", "0.1", "--alpha", "0.1"),
    ("verify", "{fair}", "--p", "0.4"),
    ("verify", "{unfair}", "--p", "0.4"),
    ("rank", "{pool}", "--k", "4", "--p", "0.5"),
    ("rank", "{strings}", "--k", "4", "--p", "0.5"),
    ("rank", "{pool}", "--k", "4", "--method", "colorblind"),
    ("rank", "{strings}", "--k", "4", "--method", "feldman"),
    ("simulate", "--k", "1500", "--p", "0.1", "--alpha-adj", "0.0121547", "--trials", "20"),
    ("experiment", "{config}"),
    ("prep-xing", "{xing}", "--query", "economist"),
])
def test_csv_and_json_print_the_same_values(capsys, tmp_path, argv):
    paths = {}
    for name, text in INPUTS.items():
        paths[name] = tmp_path / ("exp.yaml" if name == "config" else f"{name}.csv")
        paths[name].write_text(text)
    argv = [arg.format(**paths) for arg in argv]
    _, out, _ = run(capsys, *argv)
    _, doc, _ = run(capsys, *argv, "--json")
    header, *rows = csv.reader(io.StringIO(out))
    records = json.loads(doc)
    records = [records] if isinstance(records, dict) else records
    names = [{"alpha": "alpha_target"}.get(name, name) for name in header]
    assert len(rows) == len(records) > 0
    for row, record in zip(rows, records):
        assert sorted(names) == sorted(record)
        for name, cell in zip(names, row):
            value = record[name]
            assert isinstance(value, bool) == (name in ("fair", "feasible", "protected"))
            if value is None:
                assert cell == ""
            elif isinstance(value, bool):
                assert cell in (("true", "1") if value else ("false", "0"))
            elif name in ("alpha_adj", "alpha_used", "score") and isinstance(value, float):
                assert float(cell) == value  # text that parses back to the same float
            elif isinstance(value, float):
                assert cell == f"{value:.6f}"
            else:
                assert cell == str(value)
