"""Seeded synthetic candidate tables for experiments and benchmarks.

These are stand-ins shaped like the benchmark datasets commonly used for
fair-ranking evaluation (credit scoring, recidivism risk, standardized test
scores, job-platform search results): group proportions match the published
populations, but the score columns are generated, so absolute metric values
on them are NOT authoritative — only directional behavior is.
"""
from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

__all__ = [
    "write_german_credit_like",
    "write_compas_like",
    "write_sat_like",
    "write_xing_like",
    "GERMAN_CREDIT_SEED",
]

# Frozen after a small search so the color-blind top-100 holds exactly 9
# under-25 candidates (the anchor the directional experiments assume).
GERMAN_CREDIT_SEED = 49

# Profile columns of a job-platform search export, as prep-xing reads them.
XING_COLUMNS = ("query", "id", "gender", "work_months", "edu_months", "views")


def _write(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _spread(rng, flags_true: int, n: int) -> np.ndarray:
    """Boolean column with exactly flags_true True entries, randomly placed."""
    col = np.zeros(n, dtype=bool)
    col[:flags_true] = True
    return rng.permutation(col)


def write_german_credit_like(path, n: int = 1000, seed: int = GERMAN_CREDIT_SEED) -> None:
    """Credit-scoring table: integer score, gender, and two age-group columns.

    Population shares: 14.9% under 25, 54.8% under 35, 69.0% female.  Younger
    applicants receive systematically lower scores (the under-25 group has a
    wider spread, so its best members sit close to the selection boundary),
    women very slightly higher ones.
    """
    rng = np.random.default_rng(seed)
    young = _spread(rng, round(0.149 * n), n)
    mid = np.zeros(n, dtype=bool)
    mid_needed = round(0.548 * n) - int(young.sum())
    mid_rows = rng.permutation(np.flatnonzero(~young))[:mid_needed]
    mid[mid_rows] = True
    female = _spread(rng, round(0.690 * n), n)

    score = rng.normal(640.0, 110.0, n)
    score[young] = rng.normal(523.0, 150.0, int(young.sum()))
    score[mid] -= 45.0
    score[female] += 12.0
    score = np.rint(score).astype(int)

    rows = [
        (
            i + 1,
            int(score[i]),
            "female" if female[i] else "male",
            "yes" if young[i] else "no",
            "yes" if (young[i] or mid[i]) else "no",
        )
        for i in range(n)
    ]
    _write(path, ("id", "credit_score", "gender", "under_25", "under_35"), rows)


def write_compas_like(path, n: int = 18000, seed: int = 4) -> None:
    """Recidivism-risk table where higher risk means a worse candidate.

    Population shares: 51.2% of one race group, 80.7% male.  Risk is a decile
    plus a fractional refinement; the first group and men skew toward higher
    deciles, so a quality ranking (negated risk) under-represents both.
    """
    rng = np.random.default_rng(seed)
    group_a = _spread(rng, round(0.512 * n), n)
    male = _spread(rng, round(0.807 * n), n)
    latent = rng.normal(0.0, 1.0, n) + 0.62 * group_a + 0.15 * male
    edges = np.quantile(latent, np.linspace(0.1, 0.9, 9))
    decile = 1 + np.searchsorted(edges, latent)
    risk = decile + np.round(rng.random(n), 3)  # refinement breaks decile ties
    rows = [
        (
            i + 1,
            float(risk[i]),
            "African-American" if group_a[i] else "Other",
            "male" if male[i] else "female",
        )
        for i in range(n)
    ]
    _write(path, ("id", "risk_score", "race", "gender"), rows)


def write_sat_like(path, n: int = 1_600_000, seed: int = 9) -> None:
    """Standardized-test table: scores in 10-point buckets, 53.1% female."""
    rng = np.random.default_rng(seed)
    female = _spread(rng, round(0.531 * n), n)
    score = rng.normal(1500.0, 290.0, n)
    score[~female] += 28.0
    score = np.clip(np.rint(score / 10.0) * 10.0, 600, 2400).astype(int)
    rows = [
        (i + 1, int(score[i]), "female" if female[i] else "male") for i in range(n)
    ]
    _write(path, ("id", "sat_score", "gender"), rows)


def write_xing_like(path, seed: int = 21) -> None:
    """Job-platform search results: three queries with per-profile columns.

    Row counts and gender mixes per query: economist 40 (11 female), market
    research analyst 40 (17 male), copywriter 37 (11 female).  A candidate's
    score is derived downstream as (work months + education months) * views.
    """
    rng = np.random.default_rng(seed)
    rows = []
    next_id = 1
    for query, count, females in (
        ("economist", 40, 11),
        ("market research analyst", 40, 23),  # 17 of 40 male
        ("copywriter", 37, 11),
    ):
        female = _spread(rng, females, count)
        work = rng.integers(6, 240, count)
        edu = rng.integers(12, 90, count)
        views = rng.integers(3, 400, count)
        for j in range(count):
            rows.append(
                (
                    query,
                    next_id,
                    "female" if female[j] else "male",
                    int(work[j]),
                    int(edu[j]),
                    int(views[j]),
                )
            )
            next_id += 1
    _write(path, XING_COLUMNS, rows)
