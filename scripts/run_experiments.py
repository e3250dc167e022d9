#!/usr/bin/env python3
"""Run the full method comparison over every generated dataset config."""
import argparse
import subprocess
import sys
import time
from pathlib import Path

from fair_topk import load_spec, run_experiment
from fair_topk.experiment import REPORT_FIELDS
from fair_topk.output import write


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data", default="data", help="directory from make_datasets.py")
    parser.add_argument("--out", default="results", help="where to write report CSVs")
    args = parser.parse_args()

    data = Path(args.data)
    if not data.is_dir():
        print(f"{data} missing; generating it first", file=sys.stderr)
        subprocess.run(
            [sys.executable, Path(__file__).with_name("make_datasets.py"), "--out", str(data)],
            check=True,
        )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    for config in sorted(data.glob("*.yaml")):
        spec = load_spec(config)
        started = time.perf_counter()
        rows = run_experiment(spec)
        elapsed = time.perf_counter() - started
        target = out / f"{spec.name}.csv"
        with open(target, "w", newline="", encoding="utf-8") as fh:
            write(fh, REPORT_FIELDS, [row.values() for row in rows], False)
        print(f"{spec.name}: {len(rows)} rows in {elapsed:.1f}s -> {target}")


if __name__ == "__main__":
    main()
