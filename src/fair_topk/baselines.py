"""Reference methods: quantile-matching score repair and a fair-ranking generator."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .binomial import _check_int, _check_prob
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
    that index.  Other ids are coded by their rank from one argsort, made
    before the runs are labelled so that the two never share memory, and
    the key is run * m + rank, which fits for m < 3e9.  The non-protected
    scores are sorted in place.  Each intermediate is released once used,
    and the repaired scores are looked up a block of ranks at a time.  The
    repaired pool shares the input pool's ids and flags, and none of its
    columns is validated again.
    """
    rows = np.flatnonzero(pool.protected)
    m, n = rows.shape[0], len(pool) - rows.shape[0]
    if m == 0 or n == 0:
        raise ValueError("both groups must be non-empty to repair")
    rows = rows[np.argsort(pool.scores[rows])]  # ascending score, ties in any order
    ids = pool.ids[rows]
    bits = (m - 1).bit_length()  # of a row's index in score order
    span = int(ids.max()) - int(ids.min()) + 1 if ids.dtype.kind in "iu" else None
    key = _runs(pool.scores[rows]) if span is not None else None
    if key is not None and (int(key[-1]) + 1) * span <= 1 << (63 - bits):
        key *= span
        key += np.subtract(ids, ids.min(), dtype=np.int64)  # exact: below span
        del ids
        key <<= bits
        key |= np.arange(m)
        key.sort()
        key &= (1 << bits) - 1
        order = rows[key]  # protected rows in (score, id) order
    else:
        del key  # the runs are labelled after the id argsort, which needs the room
        by_id = np.argsort(ids)
        del ids
        rank = np.empty(m, dtype=np.int64)
        rank[by_id] = np.arange(m)
        key = _runs(pool.scores[rows])
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
    # a gather of the pool's finite scores is finite: nothing to check again
    return RepairedPool(pool._of(pool.ids, scores, pool.protected))


def _runs(ascending: np.ndarray) -> np.ndarray:
    """The run of each entry of an ascending score array, numbered from 0: equal
    neighbours share a run, so -0.0 and 0.0 do.  Counted in place in int64,
    since np.cumsum of a bool array makes an int64 temporary."""
    key = np.empty(ascending.shape[0], dtype=np.int64)
    key[0] = 0
    np.not_equal(ascending[1:], ascending[:-1], out=key[1:])
    return np.cumsum(key, out=key)


def yang_stoyanovich_generate(
    k: int, p: float, seed: Union[int, Sequence[int]] = 0
) -> RankedSequence:
    """Synthetic fair ranking: protected with probability p at each position.

    Draws come from unbounded per-group pools, so only the flags are random;
    ids are positions and scores descend with position.
    """
    _check_int(k, "k")
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_prob(p)
    _seed_words(seed)  # only to reject a bad seed with a clear message
    return RankedSequence.from_flags(_draw_flags(p, [seed], np.empty((1, k)))[0])


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


def _draw_flags(p: float, seeds, out: np.ndarray) -> np.ndarray:
    """The generative model, for one ranking per row of ``out``: row j is
    filled with the uniforms of ``default_rng(seeds[j])``, and each position
    whose uniform is below p is protected.  Returns the flags."""
    for seed, row in zip(seeds, out):
        np.random.default_rng(seed).random(out=row)
    return out < p
