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

    Cost: one default-kind argsort of the protected scores, then one value
    sort of int64 keys that orders each run of tied scores by id: a key
    packs (run, id - least id) above the index in score order, which needs
    integer ids whose span times the number of runs fits in the bits above
    that index.  Other ids are coded by their rank from one argsort, and the
    key is run * m + rank, which fits for m < 3e9.  The non-protected scores
    are sorted in place.  Each intermediate is released once used, and the
    repaired scores are looked up a block of ranks at a time.  The ids and
    flags are shared with the input pool, not validated again.
    """
    rows = np.flatnonzero(pool.protected)
    m, n = rows.shape[0], len(pool) - rows.shape[0]
    if m == 0 or n == 0:
        raise ValueError("both groups must be non-empty to repair")
    tied = pool.scores[rows]
    place = np.argsort(tied)
    rows = rows[place]  # ascending score, ties in any order
    tied = tied[place]
    del place
    key = np.empty(m, dtype=np.int64)
    key[0] = 0
    np.not_equal(tied[1:], tied[:-1], out=key[1:])
    del tied
    np.cumsum(key, out=key)  # the run of each sorted score
    ids = pool.ids[rows]
    bits = (m - 1).bit_length()  # of a row's index in score order
    span = int(ids.max()) - int(ids.min()) + 1 if ids.dtype.kind in "iu" else None
    if span is not None and (int(key[-1]) + 1) * span <= 1 << (63 - bits):
        key *= span
        key += np.subtract(ids, ids.min(), dtype=np.int64)  # exact: below span
        del ids
        key <<= bits
        key |= np.arange(m)
        key.sort()
        key &= (1 << bits) - 1
        order = rows[key]  # protected rows in (score, id) order
    else:
        by_id = np.argsort(ids)
        del ids
        rank = np.empty(m, dtype=np.int64)
        rank[by_id] = np.arange(m)
        key *= m
        key += rank
        del rank
        key.sort()
        key %= m
        order = rows[by_id[key]]
        del by_id
    del rows, key
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
