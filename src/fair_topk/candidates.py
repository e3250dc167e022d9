"""Candidate pools and ranked sequences as parallel column arrays."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _id_array(ids) -> np.ndarray:
    """Coerce ids to a homogeneous array: integers when every id is exactly
    an integer in int64 range, else their text."""
    arr = np.asarray(ids)
    if arr.ndim != 1:
        raise ValueError("ids must be one-dimensional")
    if arr.dtype.kind in "iuUS":
        return arr
    try:
        with np.errstate(invalid="ignore"):  # nan and out-of-range floats fail the check
            ints = arr.astype(np.int64)
        if (ints == arr.astype(np.float64)).all():  # 1.0 is the integer 1; 1.5 is not
            return ints
    except (TypeError, ValueError, OverflowError):
        pass
    return arr.astype(str)


def _score_array(scores, n) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (n,):
        raise ValueError("ids, scores and protected must have equal length")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    return scores


def _flag_array(protected, n) -> np.ndarray:
    """Protected flags as booleans: only booleans and the numbers 0 and 1 are flags."""
    arr = np.asarray(protected)
    if arr.shape != (n,):
        raise ValueError("ids, scores and protected must have equal length")
    if arr.dtype.kind == "b":
        return arr
    flags = arr.astype(bool) if arr.dtype.kind in "iufO" else None
    if flags is None or not (flags == arr).all():
        raise ValueError("protected flags must be booleans or the numbers 0 and 1")
    return flags


@dataclass(frozen=True)
class _Columns:
    """The columns of a pool or ranking, checked once when built and read-only after."""

    ids: np.ndarray
    scores: np.ndarray
    protected: np.ndarray

    def __post_init__(self):
        ids = _id_array(self.ids)
        protected = _flag_array(self.protected, ids.shape[0])
        scores = _score_array(self.scores, ids.shape[0])
        ordered = np.sort(ids)  # far cheaper than a hash-based unique count at 10^6 ids
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError("candidate ids must be unique")
        self._freeze(ids, scores, protected)

    def _freeze(self, ids, scores, protected):
        """Keep a read-only view of each column: the caller's own array stays
        writable, and a column that is already read-only is shared as is."""
        for name, col in (("ids", ids), ("scores", scores), ("protected", protected)):
            if col.flags.writeable:
                col = col.view()
                col.setflags(write=False)
            object.__setattr__(self, name, col)

    @classmethod
    def _of(cls, ids, scores, protected):
        """A container of columns the caller has already checked, frozen
        without a copy."""
        columns = object.__new__(cls)
        columns._freeze(ids, scores, protected)
        return columns

    def with_scores(self, scores):
        """The same candidates with new scores.  Only the scores are checked:
        the result shares this container's read-only ids and flags."""
        return self._of(self.ids, _score_array(scores, len(self)), self.protected)

    def __len__(self) -> int:
        return int(self.ids.shape[0])


@dataclass(frozen=True)
class CandidatePool(_Columns):
    """Unordered pool of candidates (order of rows carries no meaning)."""

    def take(self, indices) -> "RankedSequence":
        """Materialize the given pool row indices, in order, as a ranking.
        The indices come from the caller, so the k rows are checked."""
        idx = np.asarray(indices)
        return RankedSequence(self.ids[idx], self.scores[idx], self.protected[idx])


@dataclass(frozen=True)
class RankedSequence(_Columns):
    """An ordered top list; row i holds the candidate at 1-based position i+1."""

    @classmethod
    def from_flags(cls, flags) -> "RankedSequence":
        """Synthetic ranking from protected flags alone: ids are positions,
        scores descend with position.  The ids 1..k are unique by
        construction, so only the flags' shape is checked."""
        flags = np.asarray(flags, dtype=bool)
        if flags.ndim != 1:
            raise ValueError("flags must be one-dimensional")
        k = flags.shape[0]
        return cls._of(
            np.arange(1, k + 1, dtype=np.int64), np.arange(k, 0, -1, dtype=np.float64), flags
        )

    def protected_prefix_counts(self) -> np.ndarray:
        """Number of protected candidates in each prefix, by prefix length."""
        return np.cumsum(self.protected, dtype=np.int64)
