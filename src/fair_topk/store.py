"""On-disk cache for significance adjustments.

An adjustment depends only on (k, p, alpha) — never on a dataset — so it is
computed once and reused.  There is a cache only where a caller names its
directory.
"""
from __future__ import annotations

import csv
from pathlib import Path
from typing import Optional

from .adjustment import AdjustmentResult, adjust_significance

__all__ = ["cached_adjustment"]

ADJUSTMENTS_FILE = "adjustments.csv"
# The header names the format.  Older files say "achieved_rejection"; their
# alpha_adj was never checked to build the largest feasible table: none is read.
_ADJUSTMENT_COLUMNS = ("k", "p", "alpha", "alpha_adj", "table_rejection", "feasible")
_FEASIBLE = {"true": True, "false": False}


def _parse(row: dict) -> Optional[AdjustmentResult]:
    """The adjustment a well-formed row records, else None."""
    try:
        return AdjustmentResult(
            k=int(row["k"]),
            p=float(row["p"]),
            alpha_target=float(row["alpha"]),
            alpha_adj=float(row["alpha_adj"]),
            achieved_rejection_prob=float(row["table_rejection"]),
            feasible=_FEASIBLE[row["feasible"]],
            search_iterations=0,
        )
    except (KeyError, TypeError, ValueError):
        return None


def _read_rows(path: Path) -> list:
    """Adjustments in the file; bad rows and files in another format are left out."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if tuple(reader.fieldnames or ()) != _ADJUSTMENT_COLUMNS:
                return []
            return [result for result in map(_parse, reader) if result]
    except (FileNotFoundError, csv.Error, UnicodeDecodeError):
        return []


def cached_adjustment(
    k: int, p: float, alpha: float, cache_dir: Optional[Path] = None
) -> AdjustmentResult:
    """adjust_significance with a read-through CSV cache keyed on exact (k, p, alpha).

    Values are written as round-trip text (repr).  A miss recomputes and
    rewrites the whole file atomically, dropping rows that do not parse and
    every row of a file in another format.
    """
    if not cache_dir:
        return adjust_significance(k, p, alpha)
    path = Path(cache_dir) / ADJUSTMENTS_FILE
    rows = _read_rows(path)
    for row in rows:
        if (row.k, row.p, row.alpha_target) == (k, p, alpha):
            return row
    result = adjust_significance(k, p, alpha)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_ADJUSTMENT_COLUMNS)
        for row in rows + [result]:
            values = (row.p, row.alpha_target, row.alpha_adj, row.achieved_rejection_prob)
            writer.writerow(
                (row.k, *(repr(float(v)) for v in values), "true" if row.feasible else "false")
            )
    tmp.replace(path)
    return result
