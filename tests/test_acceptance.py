"""Acceptance gate: one test per release criterion, pass/fail per line.

Run with ``pytest -v tests/test_acceptance.py``; the verbose line for each
test is the verdict for that criterion.  Each test also prints a one-line
summary (visible with ``-s`` or in the failure report).

Two criteria are knowingly red and kept red on purpose:

* criterion 3 — two cells of the reference adjusted-significance grid,
  (k=40, p=0.5) and (k=40, p=0.7), cannot be reproduced by a calibration
  that is verified two independent ways (exact enumeration and Monte
  Carlo); the assert message and tests/anchors.py carry the per-cell
  analysis, and tests/test_adjustment.py pins our derived values.
* criterion 8 — on the credit-scoring table, p=0.30 lifts the protected
  share of the top 100 to 21%, not the ≈30% the directional target names;
  the full trend (share reaches 30% by p=0.40 at NDCG ≥ 0.97) is pinned in
  tests/test_experiment.py.

Everything here asserts the stated targets faithfully; nothing is widened
to make a red criterion pass.
"""
import csv
import math
import time
from pathlib import Path

import numpy as np
import pytest

from anchors import ADJUSTED_ALPHA_GRID, MTABLE_GRID_ALPHA01
from exact import best_feasible, enumerated_rejection_probability, evaluate_ranking_raw
from fair_topk import (
    CandidatePool,
    adjust_significance,
    color_blind_topk,
    compute_mtable,
    evaluate_ranking,
    fair_topk,
    rejection_probability,
    simulate_rejection_rate,
    verify_ranked_group_fairness,
)
from fair_topk.binomial import minimum_counts, percent_point
from fair_topk.datasets import (
    write_compas_like,
    write_german_credit_like,
    write_sat_like,
    write_xing_like,
)
from fair_topk.experiment import DatasetSpec, load_candidates
from fair_topk.ranker import InfeasibleRankingError


def _report(criterion: str, failures, extra: str = "") -> None:
    verdict = "PASS" if not failures else f"FAIL ({len(failures)} problem(s))"
    print(f"ACCEPTANCE {criterion}: {verdict}{'  ' + extra if extra else ''}")
    assert not failures, f"{criterion}:\n" + "\n".join(str(f) for f in failures)


def _pool(rng, n: int, n_protected: int) -> CandidatePool:
    flags = np.zeros(n, dtype=bool)
    flags[:n_protected] = True
    return CandidatePool(np.arange(1, n + 1), rng.random(n), rng.permutation(flags))


# --------------------------------------------------------------------------
# criterion 1: the alpha=0.1 minimum-count grid, all 84 cells, under 1 second


def test_criterion_01_minimum_count_grid():
    failures = []
    t0 = time.perf_counter()
    rows = {p: minimum_counts(12, p, 0.1) for p in MTABLE_GRID_ALPHA01}
    elapsed = time.perf_counter() - t0
    for p, expected in MTABLE_GRID_ALPHA01.items():
        got = rows[p].tolist()
        for k, (g, e) in enumerate(zip(got, expected), start=1):
            if g != e:
                failures.append(f"(p={p}, k={k}): computed {g}, reference {e}")
    # cross-check every cell against the direct quantile, cell by cell
    for p, expected in MTABLE_GRID_ALPHA01.items():
        for k, e in enumerate(expected, start=1):
            direct = percent_point(0.1, k, p)
            if direct != e:
                failures.append(f"percent_point(p={p}, k={k}) = {direct} != {e}")
    if elapsed >= 1.0:
        failures.append(f"grid took {elapsed:.3f} s (budget 1 s)")
    _report("criterion 1 (84-cell minimum-count grid)", failures, f"[{elapsed * 1e3:.1f} ms]")


# --------------------------------------------------------------------------
# criterion 2: block decomposition of the k=12, p=0.5, alpha=0.1 table


def test_criterion_02_block_decomposition():
    failures = []
    inverse = compute_mtable(12, 0.5, 0.1).inverse
    blocks = np.diff(inverse, prepend=0)
    if inverse.tolist() != [4, 7, 9, 12]:
        failures.append(f"inverse positions {inverse.tolist()} != [4, 7, 9, 12]")
    if blocks.tolist() != [4, 3, 2, 3]:
        failures.append(f"block sizes {blocks.tolist()} != [4, 3, 2, 3]")
    _report("criterion 2 (block decomposition)", failures)


# --------------------------------------------------------------------------
# criterion 3: the adjusted-significance reference grid at alpha=0.1
#
# Printed cells must be reproduced within +/-0.005 and be feasible; dash
# cells must come back infeasible.  KNOWN RED on (40, 0.5) and (40, 0.7):
# our calibration is verified against exact enumeration and simulation
# (tests/test_adjustment.py), and both disagree with those two reference
# values — see the commentary in tests/anchors.py.


def test_criterion_03_adjusted_significance_grid():
    failures = []
    t0 = time.perf_counter()
    for (k, p), printed in sorted(ADJUSTED_ALPHA_GRID.items()):
        result = adjust_significance(k, p, 0.1)
        if printed is None:
            if result.feasible:
                failures.append(
                    f"(k={k}, p={p}): expected infeasible, got alpha_adj="
                    f"{result.alpha_adj:.6f} achieving {result.achieved_rejection_prob:.4f}"
                )
        else:
            if abs(result.alpha_adj - printed) > 0.005:
                failures.append(
                    f"(k={k}, p={p}): alpha_adj {result.alpha_adj:.6f} vs reference "
                    f"{printed:.4f} (|diff| {abs(result.alpha_adj - printed):.4f} > 0.005); "
                    f"achieved rejection {result.achieved_rejection_prob:.4f}"
                )
            if not result.feasible:
                failures.append(
                    f"(k={k}, p={p}): reference prints a value but the best "
                    f"under-rejecting alpha_adj leaves rejection at "
                    f"{result.achieved_rejection_prob:.4f}, short of the 0.1 target "
                    f"beyond the feasibility tolerance"
                )
    elapsed = time.perf_counter() - t0
    if elapsed >= 300.0:
        failures.append(f"grid took {elapsed:.1f} s (budget 300 s)")
    _report("criterion 3 (adjusted-significance grid)", failures, f"[{elapsed:.2f} s]")


# --------------------------------------------------------------------------
# criterion 4: the rejection-probability recursion equals exhaustive
# enumeration over all 2^k sequences for every k <= 15


def test_criterion_04_rejection_probability_enumeration():
    failures = []
    worst = 0.0
    for k in range(1, 16):
        for p in (0.2, 0.5, 0.8):
            for alpha_adj in (0.05, 0.1, 0.2):
                got = rejection_probability(k, p, alpha_adj)
                want = enumerated_rejection_probability(k, p, alpha_adj)
                diff = abs(got - want)
                worst = max(worst, diff)
                if diff > 1e-9:
                    failures.append(
                        f"(k={k}, p={p}, alpha_adj={alpha_adj}): "
                        f"recursion {got!r} vs enumeration {want!r}"
                    )
    # the one hand-checkable point: only the full prefix of four needs a
    # protected candidate, so rejection is exactly 0.5^4
    if not math.isclose(rejection_probability(4, 0.5, 0.1), 0.0625, abs_tol=1e-12):
        failures.append("rejection_probability(4, 0.5, 0.1) != 0.0625")
    _report(
        "criterion 4 (recursion vs 2^k enumeration, 135 cells)",
        failures,
        f"[max |diff| {worst:.2e}]",
    )


# --------------------------------------------------------------------------
# criterion 5: calibration closes the loop at k=1000 — generated-fair
# rankings are rejected at the target overall rate


def test_criterion_05_calibration_closure():
    failures = []
    t0 = time.perf_counter()
    adjusted = adjust_significance(1000, 0.5, 0.1)
    sim = simulate_rejection_rate(1000, 0.5, 0.5, adjusted.alpha_adj, 10_000, seed=2718)
    if abs(sim.estimate - 0.10) > 0.01:
        failures.append(
            f"rate at calibrated alpha_adj={adjusted.alpha_adj:.6f}: "
            f"{sim.estimate:.4f} not within 0.10 +/- 0.01"
        )
    reference = simulate_rejection_rate(1000, 0.5, 0.5, 0.01, 10_000, seed=3141)
    if abs(reference.estimate - 0.1037) > 0.009:
        failures.append(
            f"rate at alpha_adj=0.01: {reference.estimate:.4f} "
            f"not within 0.1037 +/- 0.009"
        )
    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        failures.append(f"simulations took {elapsed:.1f} s (budget 120 s)")
    _report(
        "criterion 5 (10k-trial calibration closure)",
        failures,
        f"[{sim.estimate:.4f} @ calibrated, {reference.estimate:.4f} @ 0.01, {elapsed:.1f} s]",
    )


# --------------------------------------------------------------------------
# criterion 6: on small pools the ranker matches the exhaustive optimum —
# protected count, selection utility, and ordering utility — every time


def test_criterion_06_matches_exhaustive_optima():
    failures = []
    rng = np.random.default_rng(60606)
    checked = 0
    attempts = 0
    while checked < 1000 and attempts < 20_000 and len(failures) < 5:
        attempts += 1
        n = int(rng.integers(2, 11))
        k = int(rng.integers(1, min(n, 6) + 1))
        p = float(rng.choice([0.3, 0.5, 0.7]))
        pool = _pool(rng, n, int(rng.integers(0, n + 1)))
        best = best_feasible(pool.scores, pool.protected, k, p, 0.1)
        if best is None:
            with pytest.raises(InfeasibleRankingError):
                fair_topk(pool, k, p, 0.1, strict=True)
            continue
        result = fair_topk(pool, k, p, 0.1, strict=True)
        entries = result.entries
        excluded = pool.scores[~np.isin(pool.ids, entries.ids)]
        sel, order = evaluate_ranking_raw(entries.scores.tolist(), excluded.tolist())
        count = int(entries.protected.sum())
        best_count, best_sel, best_ord = best
        if count != best_count or abs(sel - best_sel) > 1e-12 or abs(order - best_ord) > 1e-12:
            failures.append(
                f"pool #{attempts} (n={n}, k={k}, p={p}): ranker "
                f"(count={count}, sel={sel:.6f}, ord={order:.6f}) vs optimum "
                f"(count={best_count}, sel={best_sel:.6f}, ord={best_ord:.6f})"
            )
        checked += 1
    if checked < 1000:
        failures.append(f"only {checked} feasible pools checked (need 1000)")
    _report("criterion 6 (exhaustive optimality, 1000 pools)", failures, f"[{checked} pools]")


# --------------------------------------------------------------------------
# criterion 7: at scale, with sufficient protected supply, every output
# passes the fairness verifier and in-group monotonicity; with an all-zero
# table the output is byte-identical to the color-blind ranking


def _in_group_monotone(entries) -> bool:
    for group in (entries.protected, ~entries.protected):
        if np.any(np.diff(entries.scores[group]) > 0):
            return False
    return True


def test_criterion_07_feasibility_property_at_scale():
    failures = []
    rng = np.random.default_rng(70707)
    general = 8000
    zero_table = 2000

    for trial in range(general):
        if len(failures) >= 5:
            break
        if trial < 3:  # pin the stated extremes, then sample below them
            n, k = 10_000, 500
        else:
            n = int(10 ** rng.uniform(math.log10(2), 4))
            k = min(n, int(10 ** rng.uniform(0, math.log10(500))))
        p = round(float(rng.uniform(0.05, 0.75)), 3)
        alpha = float(rng.choice([0.01, 0.05, 0.1, 0.15]))
        m_k = int(minimum_counts(k, p, alpha)[-1])
        n_protected = int(rng.integers(m_k, n + 1))
        pool = _pool(rng, n, n_protected)
        result = fair_topk(pool, k, p, alpha)
        tag = f"general #{trial} (n={n}, k={k}, p={p}, alpha={alpha}, n1={n_protected})"
        if result.satisfied_up_to != k:
            failures.append(f"{tag}: satisfied_up_to {result.satisfied_up_to} != k")
            continue
        if not verify_ranked_group_fairness(result.entries, p, alpha).fair:
            failures.append(f"{tag}: verifier rejects the output")
        if not _in_group_monotone(result.entries):
            failures.append(f"{tag}: in-group monotonicity violated")

    for trial in range(zero_table):
        if len(failures) >= 5:
            break
        n = int(10 ** rng.uniform(math.log10(2), 4))
        k = min(n, int(10 ** rng.uniform(0, math.log10(500))))
        p = round(float(rng.uniform(0.001, 0.008)), 6)
        alpha = 0.01
        minima = minimum_counts(k, p, alpha)
        assert minima.max() == 0, "batch construction must yield an all-zero table"
        pool = CandidatePool(
            np.arange(1, n + 1), rng.random(n), rng.random(n) < p
        )
        fair = fair_topk(pool, k, p, alpha)
        blind = color_blind_topk(pool, k)
        tag = f"zero-table #{trial} (n={n}, k={k}, p={p})"
        if not (
            np.array_equal(fair.entries.ids, blind.ids)
            and np.array_equal(fair.entries.scores, blind.scores)
            and np.array_equal(fair.entries.protected, blind.protected)
        ):
            failures.append(f"{tag}: output differs from the color-blind ranking")
        if fair.satisfied_up_to != k:
            failures.append(f"{tag}: satisfied_up_to {fair.satisfied_up_to} != k")

    _report(
        "criterion 7 (feasibility property, 10000 pools)",
        failures,
        f"[{general} supplied + {zero_table} zero-table]",
    )


# --------------------------------------------------------------------------
# criterion 8: metric anchors on the bundled datasets
#
# Color-blind rankings must score perfectly on every dataset.  On the
# credit-scoring table the directional claim is: p=0.15 keeps the protected
# share at the color-blind 9-15%, p=0.30 lifts it to ≈30%, both at
# NDCG >= 0.99.  Fair runs use the corrected per-test significance for
# (k, p), exactly as the experiment pipeline does.  KNOWN RED: p=0.30
# reaches 21%, not ≈30% — on this table the share reaches 30% at p=0.40
# (pinned with NDCG >= 0.97 in tests/test_experiment.py); the lower-p band
# and both NDCG floors hold.


def test_criterion_08_dataset_metric_anchors(tmp_path):
    failures = []
    write_german_credit_like(tmp_path / "german.csv")
    write_compas_like(tmp_path / "compas.csv", n=18_000)
    write_sat_like(tmp_path / "sat.csv", n=150_000)
    write_xing_like(tmp_path / "xing.csv")

    german = load_candidates(DatasetSpec(
        name="german", path=tmp_path / "german.csv", k=100,
        score_column="credit_score", protected_column="under_25",
        protected_value="yes",
    ))
    pools = {
        ("german", 100): german,
        ("compas", 1000): load_candidates(DatasetSpec(
            name="compas", path=tmp_path / "compas.csv", k=1000,
            score_column="risk_score", protected_column="race",
            protected_value="African-American", higher_is_better=False,
        )),
        ("sat", 1500): load_candidates(DatasetSpec(
            name="sat", path=tmp_path / "sat.csv", k=1500,
            score_column="sat_score", protected_column="gender",
            protected_value="female",
        )),
    }
    with open(tmp_path / "xing.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for query, protected_gender in (
        ("economist", "female"),
        ("market research analyst", "male"),
        ("copywriter", "female"),
    ):
        subset = [r for r in rows if r["query"] == query]
        pools[(f"xing:{query}", 10)] = CandidatePool(
            np.array([int(r["id"]) for r in subset]),
            np.array([
                (int(r["work_months"]) + int(r["edu_months"])) * int(r["views"])
                for r in subset
            ], dtype=float),
            np.array([r["gender"] == protected_gender for r in subset]),
        )

    for (name, k), pool in pools.items():
        report = evaluate_ranking(pool, color_blind_topk(pool, k))
        checks = (
            ("ndcg", abs(report.ndcg - 1.0) <= 1e-12),
            ("ordering loss", report.ordering_utility_loss == 0.0),
            ("selection loss", report.selection_utility_loss == 0.0),
            ("rank drop", report.max_rank_drop == 0),
        )
        for label, ok in checks:
            if not ok:
                failures.append(f"{name} (k={k}): color-blind {label} not at the ideal")

    blind_share = float(color_blind_topk(german, 100).protected.mean())
    if not 0.09 <= blind_share <= 0.15:
        failures.append(f"credit table: color-blind share {blind_share:.2f} not in 9-15%")
    def corrected_run(p):
        alpha_adj = adjust_significance(100, p, 0.1).alpha_adj
        return evaluate_ranking(german, fair_topk(german, 100, p, alpha_adj).entries)

    low = corrected_run(0.15)
    if not 0.09 <= low.protected_share <= 0.15:
        failures.append(
            f"credit table p=0.15: share {low.protected_share:.2f} not in 9-15%"
        )
    if low.ndcg < 0.99:
        failures.append(f"credit table p=0.15: ndcg {low.ndcg:.4f} < 0.99")
    high = corrected_run(0.30)
    if not 0.27 <= high.protected_share <= 0.33:
        failures.append(
            f"credit table p=0.30: share {high.protected_share:.2f} not ≈30% "
            f"(on this table the ≈30% share is reached at p=0.40, see "
            f"tests/test_experiment.py::test_german_credit_trend)"
        )
    if high.ndcg < 0.99:
        failures.append(f"credit table p=0.30: ndcg {high.ndcg:.4f} < 0.99")

    _report(
        "criterion 8 (dataset metric anchors)",
        failures,
        f"[shares: blind {blind_share:.2f}, p=0.15 {low.protected_share:.2f}, "
        f"p=0.30 {high.protected_share:.2f}; ndcg {high.ndcg:.4f}]",
    )


# --------------------------------------------------------------------------
# criterion 9: a million-candidate pool ranks in under two seconds, and
# runtime grows near-linearly in the pool size


def _best_of(pool, k, runs=3):
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        result = fair_topk(pool, k, 0.5, 0.1)
        times.append(time.perf_counter() - t0)
        assert len(result.entries) == k
    return min(times)


def test_criterion_09_performance():
    failures = []
    rng = np.random.default_rng(90909)
    timings = {}
    for n in (100_000, 1_000_000, 4_000_000):
        pool = CandidatePool(np.arange(n), rng.random(n), rng.random(n) < 0.3)
        timings[n] = _best_of(pool, 1500)
    if timings[1_000_000] >= 2.0:
        failures.append(f"n=1e6, k=1500 took {timings[1_000_000]:.3f} s (budget 2 s)")
    # near-linear: allow double the linear factor of 4/10 plus timer noise
    if timings[4_000_000] > 8 * timings[1_000_000] + 0.05:
        failures.append(
            f"4e6/1e6 scaling {timings[4_000_000]:.3f}/{timings[1_000_000]:.3f} "
            "exceeds near-linear growth"
        )
    if timings[1_000_000] > 20 * timings[100_000] + 0.05:
        failures.append(
            f"1e6/1e5 scaling {timings[1_000_000]:.3f}/{timings[100_000]:.3f} "
            "exceeds near-linear growth"
        )
    _report(
        "criterion 9 (performance)",
        failures,
        "[" + ", ".join(f"n={n:.0e}: {t * 1e3:.1f} ms" for n, t in timings.items()) + "]",
    )
