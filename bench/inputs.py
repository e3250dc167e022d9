"""Seeded inputs for the workloads.

Every generator draws from numpy's default_rng([seed, workload tag]), so one
--seed gives the same files and arrays on every machine.  The program under
test sees only what is written or built here.
"""
from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

POOL_SIZE = 1_000_000
PROTECTED_SHARE = 0.4
# Scores are u / 10^5 for whole u, drawn alike in both groups: five decimals,
# so about ten candidates share each score and the tie rules decide many
# places, also across groups.  A 40% protected share leaves the color-blind
# top 1500 short of what the table asks at p = 0.5, so the ranker also forces.
SCORE_UNITS = 100_000

CREDIT_ROWS = 1000
COMPAS_ROWS = 18000

# The configs scripts/make_datasets.py writes for these two tables.
EXPERIMENT_CONFIGS = {
    "german-credit": dict(
        name="german-credit",
        path="german_credit.csv",
        k=100,
        score_column="credit_score",
        protected_column="under_25",
        protected_value="yes",
        p_grid=[0.1, 0.15, 0.2, 0.3, 0.4, 0.5],
        alpha=0.1,
    ),
    "compas-race": dict(
        name="compas-race",
        path="compas.csv",
        k=1000,
        score_column="risk_score",
        protected_column="race",
        protected_value="African-American",
        higher_is_better=False,
        p_grid=[0.3, 0.4, 0.5, 0.6],
        alpha=0.1,
    ),
}


class Pool:
    """Candidate columns as the program will read them: int ids, float
    scores (already negated where lower is better) and protected flags."""

    def __init__(self, ids, scores, protected):
        self.ids = np.asarray(ids, dtype=np.int64)
        self.scores = np.asarray(scores, dtype=np.float64)
        self.protected = np.asarray(protected, dtype=bool)


def rng_for(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def million_pool(seed: int, tag: int):
    """(Pool, score units): 10^6 candidates in shuffled id order, 40% protected."""
    rng = rng_for(seed, tag)
    ids = rng.permutation(POOL_SIZE).astype(np.int64) + 1
    protected = rng.random(POOL_SIZE) < PROTECTED_SHARE
    units = rng.integers(0, SCORE_UNITS, POOL_SIZE)
    # u / 1e5 is the double nearest to the decimal "0.uuuuu" the CSV holds.
    return Pool(ids, units / SCORE_UNITS, protected), units


def write_million_csv(path: Path, pool: Pool, units) -> None:
    """id,score,protected CSV of million_pool, scores written as 0.uuuuu."""
    body = "\n".join(
        f"{i},0.{u:05d},{int(f)}"
        for i, u, f in zip(pool.ids.tolist(), units.tolist(), pool.protected.tolist())
    )
    Path(path).write_text("id,score,protected\n" + body + "\n")


def _exact_share(rng, share: float, n: int) -> np.ndarray:
    flags = np.zeros(n, dtype=bool)
    flags[: round(share * n)] = True
    return rng.permutation(flags)


def write_experiment_inputs(directory: Path, seed: int, tag: int) -> dict:
    """Write the credit and recidivism tables and their YAML configs.

    The tables have the shapes of scripts/make_datasets.py: 1000 credit rows
    (14.9% under 25, 54.8% under 35, 69% female; younger applicants score
    lower) and 18000 risk rows (51.2% of one race group, 80.7% male; that
    group and men skew to higher risk deciles).  Returns {config name:
    (config path, Pool)}.
    """
    import yaml

    rng = rng_for(seed, tag)
    directory = Path(directory)

    n = CREDIT_ROWS
    young = _exact_share(rng, 0.149, n)
    mid = np.zeros(n, dtype=bool)
    mid[rng.permutation(np.flatnonzero(~young))[: round(0.548 * n) - young.sum()]] = True
    female = _exact_share(rng, 0.690, n)
    credit = rng.normal(640.0, 110.0, n)
    credit[young] = rng.normal(523.0, 150.0, int(young.sum()))
    credit = np.rint(credit - 45.0 * mid + 12.0 * female).astype(np.int64)
    _write_table(
        directory / "german_credit.csv",
        ("id", "credit_score", "gender", "under_25", "under_35"),
        (
            (i + 1, int(credit[i]), "female" if female[i] else "male",
             "yes" if young[i] else "no", "yes" if young[i] or mid[i] else "no")
            for i in range(n)
        ),
    )

    n = COMPAS_ROWS
    group = _exact_share(rng, 0.512, n)
    male = _exact_share(rng, 0.807, n)
    latent = rng.normal(0.0, 1.0, n) + 0.62 * group + 0.15 * male
    decile = 1 + np.searchsorted(np.quantile(latent, np.linspace(0.1, 0.9, 9)), latent)
    thousandths = rng.integers(0, 1000, n)
    risk = [f"{d}.{t:03d}" for d, t in zip(decile.tolist(), thousandths.tolist())]
    _write_table(
        directory / "compas.csv",
        ("id", "risk_score", "race", "gender"),
        (
            (i + 1, risk[i], "African-American" if group[i] else "Other",
             "male" if male[i] else "female")
            for i in range(n)
        ),
    )

    pools = {
        "german-credit": Pool(np.arange(1, CREDIT_ROWS + 1), credit.astype(float), young),
        "compas-race": Pool(
            np.arange(1, COMPAS_ROWS + 1), [-float(r) for r in risk], group
        ),
    }
    out = {}
    for name, config in EXPERIMENT_CONFIGS.items():
        path = directory / f"{name}.yaml"
        path.write_text(yaml.safe_dump(config, sort_keys=False))
        out[name] = (path, pools[name])
    return out


def _write_table(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
