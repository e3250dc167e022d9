#!/usr/bin/env python3
"""Generate the synthetic benchmark datasets and their experiment configs."""
import argparse
from pathlib import Path

import yaml

from fair_topk.datasets import (
    write_compas_like,
    write_german_credit_like,
    write_sat_like,
    write_xing_like,
)

CONFIGS = {
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
    "german-credit-age35": dict(
        name="german-credit-age35",
        path="german_credit.csv",
        k=100,
        score_column="credit_score",
        protected_column="under_35",
        protected_value="yes",
        p_grid=[0.3, 0.4, 0.5, 0.6],
        alpha=0.1,
    ),
    "german-credit-gender": dict(
        name="german-credit-gender",
        path="german_credit.csv",
        k=100,
        score_column="credit_score",
        protected_column="gender",
        protected_value="female",
        p_grid=[0.3, 0.4, 0.5, 0.6],
        alpha=0.1,
    ),
    "compas-race": dict(
        name="compas-race",
        path="compas.csv",
        k=1000,
        score_column="risk_score",
        protected_column="race",
        protected_value="African-American",
        higher_is_better=False,  # risk: lower is better
        p_grid=[0.3, 0.4, 0.5, 0.6],
        alpha=0.1,
    ),
    "compas-gender": dict(
        name="compas-gender",
        path="compas.csv",
        k=1000,
        score_column="risk_score",
        protected_column="gender",
        protected_value="male",
        higher_is_better=False,
        p_grid=[0.6, 0.7, 0.8],
        alpha=0.1,
    ),
    "sat-gender": dict(
        name="sat-gender",
        path="sat.csv",
        k=1500,
        score_column="sat_score",
        protected_column="gender",
        protected_value="female",
        p_grid=[0.4, 0.5, 0.6],
        alpha=0.1,
    ),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="data", help="output directory (default data/)")
    parser.add_argument(
        "--sat-n", type=int, default=1_600_000, help="rows in the test-score table"
    )
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    print("writing german_credit.csv ...")
    write_german_credit_like(out / "german_credit.csv")
    print("writing compas.csv ...")
    write_compas_like(out / "compas.csv")
    print(f"writing sat.csv (n={args.sat_n}) ...")
    write_sat_like(out / "sat.csv", n=args.sat_n)
    print("writing xing.csv ...")
    write_xing_like(out / "xing.csv")

    for name, config in CONFIGS.items():
        with open(out / f"{name}.yaml", "w", encoding="utf-8") as fh:
            yaml.safe_dump(config, fh, sort_keys=False)
    print(f"wrote {len(CONFIGS)} configs to {out}/")
    print("xing.csv needs score prep, e.g.:")
    print(f"  fair-topk prep-xing {out}/xing.csv --query economist > economist.csv")


if __name__ == "__main__":
    main()
