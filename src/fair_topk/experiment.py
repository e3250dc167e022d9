"""Dataset loading, the comparative experiment protocol, and curve data.

A dataset is a headered CSV read through a DatasetSpec that names the id,
score, and protected columns.  The experiment ranks each candidate pool three
ways — color-blind, fairness-constrained, and quantile-repaired — across a
grid of target proportions and reports the utility metrics for each cell.
"""
from __future__ import annotations

import csv
import json
import numbers
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import IO, Optional, Sequence, Tuple, Union

import numpy as np

from .adjustment import rejection_probability, simulate_rejection_rate
from .baselines import feldman_repair
from .binomial import _check_prob
from .candidates import CandidatePool, RankedSequence
from .metrics import UtilityReport, evaluate_ranking
from .output import write
from .ranker import color_blind_topk, fair_topk
from .store import cached_adjustment

__all__ = [
    "DatasetSpec",
    "DataLoadError",
    "ExperimentRow",
    "load_candidates",
    "load_ranking",
    "load_spec",
    "run_experiment",
    "emit_curve_data",
]

REPORT_FIELDS = (
    ("dataset", "text"), ("method", "text"), ("p", "prob"), ("pct_protected_output", "prob"),
    ("ndcg", "prob"), ("ordering_utility_loss", "prob"), ("rank_drop", "count"),
    ("selection_utility_loss", "prob"),
)

TRUTHY = {"1", "true", "yes", "y"}
FALSY = {"0", "false", "no", "n", ""}


class DataLoadError(Exception):
    """A dataset file could not be interpreted."""


@dataclass(frozen=True)
class DatasetSpec:
    """Where a candidate table lives and how to read it."""

    name: str
    path: Union[str, Path]
    k: int
    score_column: str = "score"
    protected_column: str = "protected"
    protected_value: str = "1"
    higher_is_better: bool = True
    id_column: str = "id"
    p_grid: Tuple[float, ...] = (0.5,)
    alpha: float = 0.1

    def __post_init__(self):
        grid = self.p_grid
        if not isinstance(grid, (list, tuple)) or not all(
            isinstance(p, numbers.Real) and not isinstance(p, bool) for p in grid
        ):
            raise TypeError(f"p_grid must be a list of numbers, not {grid!r}")
        object.__setattr__(self, "p_grid", tuple(float(p) for p in grid))
        if isinstance(self.k, bool) or not isinstance(self.k, (int, np.integer)):
            raise TypeError(f"k must be an integer, not {self.k!r}")
        if not isinstance(self.higher_is_better, bool):
            raise TypeError(f"higher_is_better must be a boolean, not {self.higher_is_better!r}")
        for name in ("name", "score_column", "protected_column", "protected_value", "id_column"):
            if not isinstance(getattr(self, name), str):
                raise TypeError(f"{name} must be a string, not {getattr(self, name)!r}")
        if not isinstance(self.path, (str, Path)):
            raise TypeError(f"path must be a string or path, not {self.path!r}")
        if isinstance(self.alpha, bool) or not isinstance(self.alpha, numbers.Real):
            raise TypeError(f"alpha must be a number, not {self.alpha!r}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        _check_prob(self.alpha, "alpha")
        if not all(0.0 < p < 1.0 for p in self.p_grid):
            raise ValueError("every p in p_grid must lie in the open interval (0, 1)")


def _read_columns(source, label: str, parsers: dict, optional=()) -> dict:
    """Stream a headered CSV (a path or an open text file) into one list per
    column, converting each field with ``parsers[column]`` as it is read.  A
    column in ``optional`` may be absent.  Blank lines and extra fields are
    ignored; malformed input raises DataLoadError naming the file line."""
    if not hasattr(source, "read"):
        if not Path(source).exists():
            raise DataLoadError(f"{source}: no such file")
        with open(source, newline="", encoding="utf-8") as fh:
            return _read_columns(fh, label, parsers, optional)
    reader = csv.reader(source)
    try:
        header = next(reader, [])
        for name in parsers:
            if name not in header and name not in optional:
                raise DataLoadError(f"{label}: missing column {name!r} (have {header})")
        columns = {name: [] for name in parsers if name in header}
        plan = [(name, header.index(name), parsers[name], columns[name].append) for name in columns]
        for row in filter(None, reader):
            for name, i, parse, append in plan:
                append(parse(row[i]))
    # the loop variables still hold the failing row and column
    except IndexError:
        raise DataLoadError(f"{label}: row {reader.line_num}: no {name!r} field") from None
    except UnicodeDecodeError as exc:  # raised for a chunk read ahead of the rows parsed
        line = reader.line_num + 1 + exc.object[: exc.start].count(b"\n")
        raise DataLoadError(f"{label}: row {line}: not valid UTF-8") from None
    except ValueError:
        raise DataLoadError(
            f"{label}: row {reader.line_num}: unparseable {name} {row[i]!r}"
        ) from None
    except csv.Error as exc:
        raise DataLoadError(f"{label}: row {reader.line_num}: {exc}") from None
    return columns


@contextmanager
def _file_faults(label):
    """Report a bad value or type raised inside, while building from a file's
    contents, as a DataLoadError that names the file."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise DataLoadError(f"{label}: {exc}") from None


# Bytes on which csv and numpy's C reader can disagree: quoting; a carriage
# return, a line end to csv only; NUL, which numpy drops from the end of a
# string; and \x1c-\x1f, blanks to numpy's number parser but not to Python's.
_NOT_PLAIN = b'"\r\x00\x1c\x1d\x1e\x1f'
# Suffixes for which numpy's loader, given a name, opens a decompressor.
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _is_plain(fh) -> bool:
    """Whether a binary file holds none of _NOT_PLAIN and no line longer than
    csv's field limit, read in pieces no longer than that limit (so only a
    line that crosses a piece boundary can be longer).

    Each refused byte is one ``in`` test per piece, a memchr over the piece:
    a few times faster than deleting them all with ``bytes.translate``.
    """
    limit = csv.field_size_limit()
    line = 0  # bytes of the current line read so far
    while chunk := fh.read(min(limit, 1 << 16)):
        if any(byte in chunk for byte in _NOT_PLAIN):
            return False
        end = chunk.find(b"\n")
        if end < 0:
            line += len(chunk)
        elif line + end > limit:
            return False
        else:
            line = len(chunk) - chunk.rfind(b"\n") - 1
    return line <= limit


def _parse_plain_pool(spec: DatasetSpec) -> Optional[tuple]:
    """(ids, scores, protected) read by numpy's C parser, or None when the
    file is not one it reads exactly as _read_columns does: ids must all be
    integers, and a flag must be shorter than its field width, so that none
    was cut.  Anything loadtxt raises or warns about declines too.

    loadtxt is given the file's name, not an open handle: it reads a named
    file in large pieces in C, but iterates a handle line by line in Python,
    which takes half again as long on 10^6 rows.  numpy's opener reads two
    kinds of name differently from open(), so neither reaches it.  A name
    with a _COMPRESSED suffix would be decompressed; it declines.  A name of
    the form scheme://host would be fetched as a URL; the name is joined to
    the working directory, which makes it absolute and leaves the rest to
    the OS, as open() does (os.path.abspath would fold "link/.." lexically,
    which names another file when link is a symlink).

    A flag is protected when it strips to protected_value, as in the row
    reader.  No field kept is longer than the value, so that holds exactly
    when the field equals the value and the value is its own strip.  A value
    holding NUL matches no field, though numpy would drop a NUL at its end.
    """
    value = spec.protected_value
    width = len(value) + 1
    names = (spec.id_column, spec.score_column, spec.protected_column)
    try:
        path = os.path.join(os.getcwd(), spec.path)
        if os.path.splitext(path)[1] in _COMPRESSED:
            return None
        with open(path, newline="", encoding="utf-8") as fh:
            if not _is_plain(fh.buffer):
                return None
            fh.seek(0)
            header = next(csv.reader([fh.readline()]), [])
        if not set(names) <= set(header):
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(
                path,
                dtype=[("id", np.int64), ("score", np.float64), ("flag", f"U{width}")],
                delimiter=",",
                comments=None,
                skiprows=1,
                usecols=[header.index(name) for name in names],
                ndmin=1,
                encoding="utf-8",
            )
    except (OSError, ValueError, Warning):
        return None
    flags = rows["flag"]
    if (np.char.str_len(flags) >= width).any():
        return None
    scores = rows["score"] if spec.higher_is_better else -rows["score"]
    matchable = value == value.strip() and "\x00" not in value
    return rows["id"], scores, (flags == value) & matchable


def _stream_pool(spec: DatasetSpec, label: str) -> tuple:
    """(ids, scores, protected) of the spec's pool by the streaming reader."""
    columns = _read_columns(spec.path, label, {
        spec.id_column: str,
        spec.score_column: float if spec.higher_is_better else lambda text: -float(text),
        spec.protected_column: lambda text: text.strip() == spec.protected_value,
    })
    ids = columns[spec.id_column]
    if not ids:
        raise DataLoadError(f"{label}: no candidate rows")
    return np.array(ids, dtype=object), columns[spec.score_column], columns[spec.protected_column]


def load_candidates(spec: DatasetSpec) -> CandidatePool:
    """Read the pool named by the spec; row numbers appear in error messages.

    Plain files go through numpy's C parser; any other file, and every
    error message, comes from the streaming reader.  Scores are negated when
    higher_is_better is false, so a larger stored quality is always better
    downstream.
    """
    label = str(spec.path)
    columns = _parse_plain_pool(spec)
    if columns is None:
        columns = _stream_pool(spec, label)
    with _file_faults(label):
        return CandidatePool(*columns)


def _pool_for_k(spec: DatasetSpec) -> CandidatePool:
    """The spec's pool, which must hold at least k candidates."""
    pool = load_candidates(spec)
    if spec.k > len(pool):
        raise DataLoadError(f"{spec.path}: k={spec.k} exceeds pool size {len(pool)}")
    return pool


def _check_room(spec: DatasetSpec) -> None:
    """Read the spec's pool now if its file is too short to hold k rows, so
    that _pool_for_k's error comes before any calibration for k.

    A header and k rows are k + 1 lines of at least a byte each, joined by k
    line ends, so a file of at most 2k bytes holds fewer than k rows.  That
    takes one stat; a file that cannot be stat'ed is left to the reader.
    """
    try:
        size = Path(spec.path).stat().st_size
    except OSError:
        return
    if size <= 2 * spec.k:
        _pool_for_k(spec)


def _boolean(text: str) -> bool:
    value = text.strip().lower()
    if value not in TRUTHY | FALSY:
        raise ValueError(value)
    return value in TRUTHY


def load_ranking(source: Union[str, Path, IO]) -> RankedSequence:
    """Read an ordered ranking CSV: columns id,protected and optional score."""
    label = "ranking input" if hasattr(source, "read") else str(source)
    parsers = {"id": str, "protected": _boolean, "score": float}
    columns = _read_columns(source, label, parsers, optional=("score",))
    ids = columns["id"]
    if not ids:
        raise DataLoadError(f"{label}: no rows")
    scores = columns.get("score", [0.0] * len(ids))
    with _file_faults(label):
        return RankedSequence(np.array(ids, dtype=object), scores, columns["protected"])


def load_spec(path) -> DatasetSpec:
    """Parse a YAML or JSON mapping of DatasetSpec fields into a spec.

    A relative dataset path is resolved against the config file's directory.
    """
    path = Path(path)
    if not path.exists():
        raise DataLoadError(f"{path}: no such file")
    parse, malformed = json.loads, json.JSONDecodeError
    if path.suffix != ".json":
        import yaml  # here, not at the top: only a YAML config pays for importing it

        parse, malformed = yaml.safe_load, yaml.YAMLError
    try:
        mapping = parse(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, malformed) as exc:
        raise DataLoadError(f"{path}: unparseable config: {exc}") from None
    if not isinstance(mapping, dict):
        raise DataLoadError(f"{path}: config must be a mapping")
    known = {f.name for f in fields(DatasetSpec)}
    unknown = set(mapping) - known
    if unknown:
        raise DataLoadError(f"{path}: unknown config keys {sorted(unknown)}")
    missing = {"name", "path", "k"} - set(mapping)
    if missing:
        raise DataLoadError(f"{path}: missing config keys {sorted(missing)}")
    with _file_faults(path):
        spec = DatasetSpec(**mapping)
    data_path = Path(spec.path)
    if not data_path.is_absolute():
        spec = replace(spec, path=path.parent / data_path)
    return spec


@dataclass(frozen=True)
class ExperimentRow:
    dataset: str
    method: str
    p: float
    report: UtilityReport

    def values(self) -> tuple:
        """The row's values in REPORT_FIELDS order."""
        r = self.report
        return (self.dataset, self.method, self.p, r.protected_share, r.ndcg,
                r.ordering_utility_loss, r.max_rank_drop, r.selection_utility_loss)


def run_experiment(
    spec: DatasetSpec,
    cache_dir: Optional[Path] = None,
    strict: bool = False,
) -> Tuple[ExperimentRow, ...]:
    """Rank the spec's pool with every method across its p grid and score them.

    One row per (method, p) cell; the color-blind and repaired rankings do
    not depend on p, so their rows repeat across the grid.  Every p is
    calibrated, and a refused one stops the run, before the pool is read,
    unless the pool's file is too short to hold k rows.
    """
    _check_room(spec)
    alphas = [cached_adjustment(spec.k, p, spec.alpha, cache_dir).usable() for p in spec.p_grid]
    pool = _pool_for_k(spec)
    reference = color_blind_topk(pool, spec.k)
    reference_report = evaluate_ranking(pool, reference)
    with _file_faults(spec.path):  # a pool with an empty group cannot be repaired
        repaired = color_blind_topk(feldman_repair(pool).pool, spec.k)
    repaired_report = evaluate_ranking(pool, repaired)
    rows = []
    for p, alpha_adj in zip(spec.p_grid, alphas):
        constrained = fair_topk(pool, spec.k, p, alpha_adj, strict=strict)
        rows.append(ExperimentRow(spec.name, "color-blind", p, reference_report))
        rows.append(
            ExperimentRow(
                spec.name, "fair", p, evaluate_ranking(pool, constrained.entries)
            )
        )
        rows.append(ExperimentRow(spec.name, "feldman", p, repaired_report))
    return tuple(rows)


CURVE_FIELDS = (
    ("k", "count"), ("p", "prob"), ("alpha_adj", "alpha"), ("analytic_rejection", "prob"),
    ("simulated_rejection", "prob"), ("stderr", "prob"),
)


def emit_curve_data(
    k: int,
    p_grid: Sequence[float],
    alpha_adj_grid: Sequence[float],
    stream: IO,
    trials: int = 10000,
    seed: int = 7,
) -> None:
    """Analytic vs simulated rejection rate per (p, alpha_adj), as plot-ready CSV."""

    def row(p: float, alpha_adj: float) -> tuple:
        analytic = rejection_probability(k, p, alpha_adj)
        simulated = simulate_rejection_rate(k, p, p, alpha_adj, trials, seed)
        return k, p, alpha_adj, analytic, simulated.estimate, simulated.stderr

    write(stream, CURVE_FIELDS, (row(p, a) for a in alpha_adj_grid for p in p_grid), False)
