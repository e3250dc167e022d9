"""Ranked group fairness: minimum-count tables and the verification test.

A ranking of length k is fair for target proportion p at significance a if
every prefix of length i contains at least m(i) protected candidates, where
m(i) is the smallest count whose binomial CDF at i trials exceeds a.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .binomial import (
    _carried_along, _check_args, _check_prob, _path_steps, minimum_counts,
)
from .candidates import RankedSequence

__all__ = [
    "MTable",
    "FairnessVerdict",
    "compute_mtable",
    "verify_ranked_group_fairness",
    "ranked_group_fairness_measure",
]


@dataclass(frozen=True)
class MTable:
    """Minimum protected counts m(1..k) for parameters (k, p, alpha_adj).

    ``inverse`` holds the positions where m(.) steps up: ``inverse[j-1]`` is
    the first prefix length that requires j protected.  The gaps between them
    are the blocks that ``rejection_probability`` crosses one at a time.
    """

    k: int
    p: float
    alpha_adj: float
    minima: np.ndarray
    inverse: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        minima = np.asarray(self.minima, dtype=np.int64).view()  # the caller's stays writable
        if not np.array_equal(minima, self.minima):
            raise ValueError("minima must be integers")
        object.__setattr__(self, "minima", minima)
        if minima.shape != (self.k,):
            raise ValueError("minima must have exactly k entries")
        inverse = np.flatnonzero(_path_steps(minima)) + 1
        object.__setattr__(self, "inverse", inverse)
        minima.setflags(write=False)
        inverse.setflags(write=False)

    def requirement(self, position: int) -> int:
        """Minimum protected count for the prefix of the given 1-based length."""
        if not 1 <= position <= self.k:
            raise ValueError(f"position {position} outside 1..{self.k}")
        return int(self.minima[position - 1])


@lru_cache(maxsize=256, typed=True)
def compute_mtable(k: int, p: float, alpha_adj: float) -> MTable:
    """Table of per-prefix minimum protected counts, cached on the exact arguments
    and their types, so 10.0 is refused even after 10 has been cached."""
    _check_args(k, p, alpha_adj, name="alpha_adj")
    return MTable(k, p, alpha_adj, minimum_counts(k, p, alpha_adj))


@dataclass(frozen=True)
class FairnessVerdict:
    """Outcome of the ranked group fairness test."""

    fair: bool
    k: int
    first_violation: Optional[int] = None  # 1-based prefix length
    required: Optional[int] = None
    observed: Optional[int] = None

    @property
    def deficit(self) -> int:
        if self.fair:
            return 0
        return int(self.required - self.observed)


def verify_ranked_group_fairness(
    ranking: RankedSequence, p: float, alpha_adj: float
) -> FairnessVerdict:
    """Check every prefix of the ranking against the minimum-count table.

    Reports the smallest violating prefix length and its deficit when unfair.
    One pass over the ranking (plus the cached table lookup).
    """
    k = len(ranking)
    if k == 0:
        raise ValueError("ranking must be non-empty")
    minima = compute_mtable(k, p, alpha_adj).minima
    counts = ranking.protected_prefix_counts()
    short = counts < minima
    if not short.any():
        return FairnessVerdict(fair=True, k=k)
    first = int(np.argmax(short))  # index of the first violation
    return FairnessVerdict(
        fair=False,
        k=k,
        first_violation=first + 1,
        required=int(minima[first]),
        observed=int(counts[first]),
    )


def ranked_group_fairness_measure(ranking: RankedSequence, p: float) -> float:
    """Largest significance at which the ranking still passes the test.

    Equals min over prefix lengths i of F(count_i; i, p): the test passes at
    every alpha strictly below this value and fails at any alpha at or above
    it.  Larger means the ranking adheres to the required counts more
    comfortably.  Cost: the cdfs carried along the ranking's protected prefix
    counts, O(k) in array passes, one per 256 positions; memory O(k).
    """
    k = len(ranking)
    if k == 0:
        raise ValueError("ranking must be non-empty")
    _check_prob(p)
    cdfs, _ = _carried_along(ranking.protected_prefix_counts(), p)
    return float(min(cdfs.min(), 1.0))
