"""Candidate pools and ranked sequences as parallel column arrays."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np


class Candidate(NamedTuple):
    id: object
    score: float
    protected: bool


def _id_array(ids) -> np.ndarray:
    """Coerce ids to a homogeneous array: integers when possible, else strings."""
    arr = np.asarray(ids)
    if arr.dtype == object or arr.dtype.kind not in "iuUS":
        try:
            arr = arr.astype(np.int64)
        except (TypeError, ValueError, OverflowError):
            arr = arr.astype(str)
    return arr


def _check_scores(scores, n):
    if scores.shape != (n,):
        raise ValueError("ids, scores and protected must have equal length")
    if n and not np.isfinite(scores).all():
        raise ValueError("scores must be finite")


def _validate_columns(ids, scores, protected):
    n = ids.shape[0]
    if protected.shape != (n,):
        raise ValueError("ids, scores and protected must have equal length")
    _check_scores(scores, n)
    ordered = np.sort(ids)  # far cheaper than a hash-based unique count at 10^6 ids
    if (ordered[1:] == ordered[:-1]).any():
        raise ValueError("candidate ids must be unique")


class _Columns:
    """Shared coercion/iteration for the two columnar containers."""

    ids: np.ndarray
    scores: np.ndarray
    protected: np.ndarray

    def _coerce(self):
        object.__setattr__(self, "ids", _id_array(self.ids))
        object.__setattr__(self, "scores", np.asarray(self.scores, dtype=np.float64))
        object.__setattr__(self, "protected", np.asarray(self.protected, dtype=bool))
        _validate_columns(self.ids, self.scores, self.protected)
        for col in (self.ids, self.scores, self.protected):
            col.setflags(write=False)

    @classmethod
    def from_candidates(cls, candidates: Iterable[tuple]):
        rows = [Candidate(c[0], float(c[1]), bool(c[2])) for c in candidates]
        return cls(
            np.array([r.id for r in rows], dtype=object),
            np.array([r.score for r in rows], dtype=np.float64),
            np.array([r.protected for r in rows], dtype=bool),
        )

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    def __iter__(self) -> Iterator[Candidate]:
        for i in range(len(self)):
            yield Candidate(self.ids[i].item(), float(self.scores[i]), bool(self.protected[i]))

    @property
    def protected_count(self) -> int:
        return int(self.protected.sum())

    @property
    def protected_share(self) -> float:
        return float(self.protected.mean()) if len(self) else 0.0


@dataclass(frozen=True)
class CandidatePool(_Columns):
    """Unordered pool of candidates (order of rows carries no meaning)."""

    ids: np.ndarray
    scores: np.ndarray
    protected: np.ndarray

    def __post_init__(self):
        self._coerce()

    def take(self, indices) -> "RankedSequence":
        """Materialize the given pool row indices, in order, as a ranking."""
        idx = np.asarray(indices)
        return RankedSequence(self.ids[idx], self.scores[idx], self.protected[idx])

    def with_scores(self, scores) -> "CandidatePool":
        """The same candidates with new scores.  Only the scores are checked:
        the ids and flags were validated when this pool was built, and the
        result shares those read-only arrays."""
        scores = np.asarray(scores, dtype=np.float64)
        _check_scores(scores, len(self))
        scores.setflags(write=False)
        pool = object.__new__(CandidatePool)
        object.__setattr__(pool, "ids", self.ids)
        object.__setattr__(pool, "scores", scores)
        object.__setattr__(pool, "protected", self.protected)
        return pool


@dataclass(frozen=True)
class RankedSequence(_Columns):
    """An ordered top list; row i holds the candidate at 1-based position i+1."""

    ids: np.ndarray
    scores: np.ndarray
    protected: np.ndarray

    def __post_init__(self):
        self._coerce()

    @classmethod
    def from_flags(cls, flags) -> "RankedSequence":
        """Synthetic ranking from protected flags alone: ids are positions,
        scores descend with position.  The ids 1..k are unique by
        construction, so the columns skip the validating constructor."""
        flags = np.asarray(flags, dtype=bool)
        if flags.ndim != 1:
            raise ValueError("flags must be one-dimensional")
        k = flags.shape[0]
        ranking = object.__new__(cls)
        for name, col in (
            ("ids", np.arange(1, k + 1, dtype=np.int64)),
            ("scores", np.arange(k, 0, -1, dtype=np.float64)),
            ("protected", flags),
        ):
            col.setflags(write=False)
            object.__setattr__(ranking, name, col)
        return ranking

    def protected_prefix_counts(self) -> np.ndarray:
        """Number of protected candidates in each prefix, by prefix length."""
        return np.cumsum(self.protected, dtype=np.int64)
