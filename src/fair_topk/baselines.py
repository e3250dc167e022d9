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
# The low 63 bits of an int64: flipped on negative doubles, they make the
# bits of finite doubles order as the doubles do.
_MAGNITUDE = 0x7FFF_FFFF_FFFF_FFFF
_WORD_MASK = 0xFFFF_FFFF  # numpy splits seed integers into 32-bit words


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

    Cost: one in-place value sort of int64 keys puts the protected rows in
    (score, id) order.  A key's high bits are an order-preserving code of the
    score: the bits of score + 0.0 (so -0.0 codes as 0.0) with the magnitude
    bits flipped on negatives, less the least code, shifted right just far
    enough to leave room for the id code below.  Integer ids whose span is
    at most the pool's length are coded as id - least id, and a table of the
    span, filled by one scatter, maps a code back to its row; other ids
    (strings, sparse or extreme integers) are coded by their rank from one
    argsort.  Equal scores share a prefix, so they come out in id order, and
    if the sorted scores never fall the order is exactly that of
    np.lexsort((ids, scores)).  If they fall, two distinct scores shared a
    prefix, and the keys are made again from runs of equal scores found by
    one argsort of the scores, then sorted once more.  The non-protected
    scores are sorted in place.  Each intermediate is released once used,
    and the repaired scores are looked up a block of ranks at a time.  The
    repaired pool shares the input pool's ids and flags, and none of its
    columns is validated again.
    """
    m = int(np.count_nonzero(pool.protected))
    n = len(pool) - m
    if m == 0 or n == 0:
        raise ValueError("both groups must be non-empty to repair")
    order = _protected_order(pool)
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


def _protected_order(pool: CandidatePool) -> np.ndarray:
    """The pool's protected rows in ascending (score, id) order, from one
    value sort of int64 keys (two if scores collide in the key); see
    feldman_repair.  The keys fit for pools of fewer than 2**31 rows."""
    rows = np.flatnonzero(pool.protected)
    ids = pool.ids[rows]
    least = ids.min() if ids.dtype.kind in "iu" else None
    span = int(ids.max()) - int(least) + 1 if least is not None else None
    if span is not None and span <= len(pool):
        code = ids.astype(np.int64, copy=False)  # uint64 ids wrap, and least with them
        del ids
        code -= least.astype(np.int64)  # exact: the span is at most the pool's length
        row_of = np.empty(span, dtype=np.min_scalar_type(len(pool) - 1))
        np.put(row_of, code, rows)  # casts faster than an index assignment
        key = pool.scores[rows]
    else:
        by_id = np.argsort(ids)
        del ids
        row_of = rows[by_id]
        del by_id
        code = np.arange(row_of.shape[0])  # the position in id order
        key = pool.scores[row_of]
    del rows
    bits = (row_of.shape[0] - 1).bit_length()  # of an id code
    key += 0.0  # -0.0 becomes 0.0, so the two tie as they do in _runs
    key = key.view(np.int64)
    low = key.min()
    if low < 0:  # negative scores: flip their magnitude bits
        flip = key >> 63
        flip &= _MAGNITUDE
        key ^= flip
        del flip
        low = key.min()
    low, high = int(low), int(key.max())  # the codes order as the scores do
    key -= low
    unsigned = key.view(np.uint64)  # key - low may pass 2**63
    unsigned >>= max(0, (high - low).bit_length() + bits - 63)
    key <<= bits
    key |= code
    del unsigned, code
    key.sort()
    key &= (1 << bits) - 1
    order = row_of[key]
    ordered = pool.scores[order]
    if (ordered[1:] < ordered[:-1]).any():  # distinct scores shared a prefix
        by_score = np.argsort(ordered)  # ascending score, ties in any order
        runs = _runs(ordered[by_score])
        runs <<= bits
        runs |= key[by_score]
        del by_score, key
        runs.sort()
        runs &= (1 << bits) - 1
        order = row_of[runs]
    return order


def _runs(ascending: np.ndarray) -> np.ndarray:
    """The run of each entry of an ascending score array, numbered from 0: equal
    neighbours share a run, so -0.0 and 0.0 do.  Counted in place in int64,
    since np.cumsum of a bool array makes an int64 temporary."""
    key = np.empty_like(ascending, dtype=np.int64)
    key[0] = 0
    np.not_equal(ascending[1:], ascending[:-1], out=key[1:])
    return np.cumsum(key, out=key)


def yang_stoyanovich_generate(
    k: int, p: float, seed: Union[int, Sequence[int]] = 0
) -> RankedSequence:
    """Synthetic fair ranking: protected with probability p at each position.

    Draws come from unbounded per-group pools, so only the flags are random;
    ids are positions and scores descend with position.  Position i is
    protected when the i-th uniform of ``np.random.default_rng(seed)`` is
    below p.
    """
    _check_int(k, "k")
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_prob(p)
    return RankedSequence.from_flags(_draw_flags(p, [_seed_words(seed)], np.empty((1, k)))[0])


def _seed_words(seed) -> np.ndarray:
    """The seed's uint32 entropy words, by numpy's SeedSequence rule: each
    non-negative integer of the seed (an integer is a sequence of one) as
    its little-endian 32-bit words, 0 as one word, in order.  Seeding
    ``default_rng`` with the words draws the stream the seed itself draws,
    without numpy coercing the integers again.  Bools are refused."""
    ints = [seed] if isinstance(seed, (int, np.integer)) else seed
    try:
        ints = list(ints)
    except TypeError:
        raise ValueError(_SEED_ERROR) from None
    if not all(
        isinstance(i, (int, np.integer)) and not isinstance(i, bool) and i >= 0 for i in ints
    ):
        raise ValueError(_SEED_ERROR)
    words = []
    for i in map(int, ints):
        words.append(i & _WORD_MASK)
        while i > _WORD_MASK:
            i >>= 32
            words.append(i & _WORD_MASK)
    return np.array(words, dtype=np.uint32)


def _trial_seeds(base: np.ndarray, start: int, stop: int, out: np.ndarray):
    """Entropy rows for the seeds ``base + [t]``, t in range(start, stop),
    where ``base`` holds a seed's words: row i seeds ``default_rng`` as the
    sequence (seed..., start + i) does.  While every t is below 2**32 the
    rows are the first stop - start rows of ``out``, a uint32 array of
    len(base) + 1 columns, filled with base's words and then t; a t of 2**32
    or more takes its further words by the same rule, in a row of its own."""
    if stop > _WORD_MASK + 1:
        return [np.concatenate((base, _seed_words(t))) for t in range(start, stop)]
    rows = out[: stop - start]
    rows[:, :-1] = base
    rows[:, -1] = np.arange(start, stop, dtype=np.uint32)
    return rows


def _draw_flags(p: float, seeds, out: np.ndarray) -> np.ndarray:
    """The generative model, for one ranking per row of ``out``: row j is
    filled with the uniforms of ``default_rng(seeds[j])``, and each position
    whose uniform is below p is protected.  Returns the flags."""
    for seed, row in zip(seeds, out):
        np.random.default_rng(seed).random(out=row)
    return out < p
