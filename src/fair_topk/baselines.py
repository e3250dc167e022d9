"""Reference methods: quantile-matching score repair and a fair-ranking generator."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .candidates import CandidatePool, RankedSequence

__all__ = ["RepairedPool", "feldman_repair", "yang_stoyanovich_generate"]

_SEED_ERROR = "seed must be a non-negative integer or a sequence of them"


@dataclass(frozen=True)
class RepairedPool:
    """A pool with protected scores rewritten; rows, ids and non-protected
    scores are those of the input pool."""

    pool: CandidatePool


def feldman_repair(pool: CandidatePool) -> RepairedPool:
    """Rewrite each protected score to the non-protected score at its quantile.

    Protected candidates are ranked 1..m ascending by (score, id); the one at
    rank r receives the score of the non-protected candidate at ascending
    index ceil(r*|N|/m) (computed in integer arithmetic, so the top protected
    candidate always aligns with the top non-protected score).  Ranking the
    repaired pool color-blindly gives the repair baseline.  The map is
    non-decreasing in rank, so within-group order is preserved, and repairing
    an already-repaired pool changes nothing.

    Cost: an id sort and one stable score sort of the protected group, and a
    sort of the non-protected scores; the ids and flags are shared with the
    input pool, not validated again.
    """
    protected_rows = np.flatnonzero(pool.protected)
    open_rows = np.flatnonzero(~pool.protected)
    m, n = protected_rows.shape[0], open_rows.shape[0]
    if m == 0 or n == 0:
        raise ValueError("both groups must be non-empty to repair")
    # (score, id) order: ids are unique, so any sort kind orders them the same
    # way, and one stable sort by score keeps that order within ties
    by_id = protected_rows[np.argsort(pool.ids[protected_rows])]
    order = by_id[np.argsort(pool.scores[by_id], kind="stable")]
    ranks = np.arange(1, m + 1, dtype=np.int64)
    target = (ranks * n + m - 1) // m  # ceil(rank * n / m), exactly
    repaired = np.sort(pool.scores[open_rows])[target - 1]
    scores = pool.scores.copy()
    scores[order] = repaired
    return RepairedPool(pool.with_scores(scores))


def yang_stoyanovich_generate(
    k: int, p: float, seed: Union[int, Sequence[int]] = 0
) -> RankedSequence:
    """Synthetic fair ranking: protected with probability p at each position.

    Draws come from unbounded per-group pools, so only the flags are random;
    ids are positions and scores descend with position.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in the open interval (0, 1)")
    _seed_words(seed)  # only to reject a bad seed with a clear message
    return RankedSequence.from_flags(_draw_flags(k, p, seed))


def _seed_words(seed) -> list:
    """The seed as a list of non-negative integers (an integer is a list of one)."""
    words = [seed] if isinstance(seed, (int, np.integer)) else seed
    try:
        words = list(words)
    except TypeError:
        raise ValueError(_SEED_ERROR) from None
    if not all(isinstance(w, (int, np.integer)) and w >= 0 for w in words):
        raise ValueError(_SEED_ERROR)
    return words


def _draw_flags(k: int, p: float, seed) -> np.ndarray:
    """The generative model: each of k positions is protected with probability
    p, drawn from ``default_rng(seed)``."""
    return np.random.default_rng(seed).random(k) < p
