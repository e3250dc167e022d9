"""Reference methods: quantile-matching score repair and a fair-ranking generator."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .binomial import _check_prob
from .candidates import CandidatePool, RankedSequence
from .ranker import _blocks

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

    Cost: an id sort and one default-kind score sort of the protected group,
    one sort of the int64 keys run * m + place that puts each run of tied
    scores back in id order (place is the index in id order, so the keys stay
    below m**2, which int64 holds for m < 3e9), and an in-place sort of the
    non-protected scores.  Each intermediate is released once used, and the
    repaired scores are looked up a block of ranks at a time.  The ids and
    flags are shared with the input pool, not validated again.
    """
    by_id = np.flatnonzero(pool.protected)
    m, n = by_id.shape[0], len(pool) - by_id.shape[0]
    if m == 0 or n == 0:
        raise ValueError("both groups must be non-empty to repair")
    by_id = by_id[np.argsort(pool.ids[by_id])]
    tied = pool.scores[by_id]
    place = np.argsort(tied)
    tied = tied[place]
    key = np.empty(m, dtype=np.int64)
    key[0] = 0
    np.cumsum(tied[1:] != tied[:-1], out=key[1:])  # the run of each sorted score
    del tied
    key *= m
    key += place
    del place
    key.sort()
    key %= m
    order = by_id[key]  # protected rows in (score, id) order
    del by_id, key
    # an index gather: numpy's boolean-mask gather takes several times as long
    open_scores = pool.scores[np.flatnonzero(~pool.protected)]
    open_scores.sort()
    repaired = np.empty(m)
    for start, stop in _blocks(m):
        index = np.arange(start + 1, stop + 1, dtype=np.int64)  # the ranks
        index *= n  # then ceil(rank * n / m) - 1, exactly
        index += m - 1
        index //= m
        index -= 1
        repaired[start:stop] = open_scores[index]
    del open_scores
    scores = pool.scores.copy()
    scores[order] = repaired
    del order, repaired
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
    _check_prob(p)
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
