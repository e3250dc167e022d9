"""Top-k ranking: the color-blind reference and the fairness-constrained ranker.

The constrained ranker computes the greedy rule in closed form.  Each group
contributes a best-first stream of its k best candidates (a bounded selection
over the pool read a block at a time, not a full sort).  The greedy rule
walks positions 1..k, places a protected candidate wherever the minimum-count
table requires one more, and otherwise takes the better stream head, the
protected head winning exact score ties.  So the j-th protected candidate
lands at the first position where either the table requires j protected, or
every non-protected candidate scoring strictly higher has been placed; every
other position takes the next non-protected candidate.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .candidates import CandidatePool, RankedSequence
from .fairness import MTable, compute_mtable

__all__ = [
    "FairRanking",
    "InfeasibleRankingError",
    "color_blind_topk",
    "fair_topk",
]


class InfeasibleRankingError(ValueError):
    """Raised in strict mode when the protected pool cannot satisfy the table."""

    def __init__(self, satisfied_up_to: int, k: int):
        self.satisfied_up_to = satisfied_up_to
        self.k = k
        super().__init__(
            f"protected candidates exhausted: fairness holds only up to "
            f"position {satisfied_up_to} of {k}"
        )


@dataclass(frozen=True)
class FairRanking:
    """A constrained ranking plus the table it was built against.

    satisfied_up_to is the longest prefix on which the minimum-count table
    holds; it equals k unless the pool ran out of protected candidates, in
    which case the head of the ranking is fair and the tail is best-effort.
    """

    entries: RankedSequence
    mtable_used: MTable
    satisfied_up_to: int


# Rows per block when a call walks a pool.  Blocks of 2**14 rows keep each
# call's scratch memory a few bytes per pool row; blocks of 2**17 rows needed
# more than the full-pool passes they replace (measured at 2*10**5 rows).
_BLOCK_ROWS = 1 << 14
# A streamed selection cuts the rows it holds back to k once it holds more
# than this many times k.
_HOLD = 4


def _blocks(n: int) -> list:
    """(start, stop) of each block of _BLOCK_ROWS rows of an n-row column."""
    step = _BLOCK_ROWS
    return [(start, min(start + step, n)) for start in range(0, n, step)]


def _best_set(scores: np.ndarray, ids: np.ndarray, k: int) -> tuple:
    """(indices of the k best rows by (score desc, id asc), in no order, the
    k-th best score), for k below the number of rows.

    A partition finds the k-th best score, and ties on it are resolved by
    ascending id.
    """
    n = scores.shape[0]
    boundary = np.partition(scores, n - k)[n - k]  # k-th largest score
    sure = np.flatnonzero(scores > boundary)
    need = k - sure.shape[0]
    tied = np.flatnonzero(scores == boundary)
    if need < tied.shape[0]:
        tied = tied[np.argpartition(ids[tied], need - 1)[:need]]
    return np.concatenate([sure, tied]), boundary


def _top_indices(scores: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k best rows by (score desc, id asc), best first.

    Bounded selection: only the k rows of _best_set are fully sorted.
    """
    if k >= scores.shape[0]:
        return np.lexsort((ids, -scores))
    chosen, _ = _best_set(scores, ids, k)
    return chosen[np.lexsort((ids[chosen], -scores[chosen]))]


def _best_rows(pool: CandidatePool, k: int, group: Optional[bool] = None) -> np.ndarray:
    """Pool rows of the k best candidates by (score desc, id asc), best first,
    among those whose protected flag is ``group`` (all of them when None).

    The pool is read a block at a time.  A row is held only if it scores at
    least the bar, the k-th best score seen so far, so ties on the bar stay.
    Once more than _HOLD * k rows are held they are cut to the best k, whose
    k-th score becomes the bar.  A row below the bar trails k held rows and
    cannot be among the k best, so the final cut selects exactly them.
    """
    held, count, bar = [], 0, -np.inf
    for start, stop in _blocks(len(pool)):
        keep = pool.scores[start:stop] >= bar
        if group is not None:
            flags = pool.protected[start:stop]
            keep &= flags if group else ~flags
        held.append(np.flatnonzero(keep) + start)
        count += held[-1].shape[0]
        if count > _HOLD * k:
            rows = np.concatenate(held)
            chosen, bar = _best_set(pool.scores[rows], pool.ids[rows], k)
            held, count = [rows[chosen]], k
    rows = np.concatenate(held)
    return rows[_top_indices(pool.scores[rows], pool.ids[rows], k)]


def color_blind_topk(pool: CandidatePool, k: int) -> RankedSequence:
    """Top-k by score alone, ignoring group membership; ties by ascending id."""
    if not 1 <= k <= len(pool):
        raise ValueError(f"k must lie in 1..{len(pool)}")
    return pool.take(_best_rows(pool, k))


def fair_topk(
    pool: CandidatePool,
    k: int,
    p: float,
    alpha_adj: float,
    strict: bool = False,
) -> FairRanking:
    """Best-scoring ranking of length k subject to per-prefix minimum counts.

    The j-th protected candidate goes to position min(inverse[j], j + nb[j]):
    inverse[j] is the first position whose prefix requires j protected (k+1
    if none does), and nb[j] counts the non-protected candidates scoring
    strictly higher, so the protected one wins exact ties.  This is where the
    greedy walk puts it: on merit it follows the j-1 earlier protected and
    the nb[j] better non-protected candidates, and the table only ever moves
    it earlier.  Both sequences strictly increase, so the positions are
    distinct.  Positions past k are dropped and the rest are filled by the
    non-protected stream in order.

    Within each group candidates appear in score order (so in-group
    monotonicity always holds), and a lower-scored protected candidate is
    placed only when the table requires one — which is what makes the
    output's selection and ordering utilities optimal among feasible
    rankings.  Runs in O(n + k log k).

    If the pool has too few protected candidates for the table, the remaining
    positions are filled best-effort and ``satisfied_up_to`` reports the last
    fair prefix; with ``strict`` this raises InfeasibleRankingError.
    """
    if not 1 <= k <= len(pool):
        raise ValueError(f"k must lie in 1..{len(pool)}")
    mtable = compute_mtable(k, p, alpha_adj)
    stream1 = _best_rows(pool, k, True)
    stream0 = _best_rows(pool, k, False)

    supply = stream1.shape[0]
    required = np.pad(mtable.inverse, (0, supply + 1), constant_values=k + 1)
    beaten = np.searchsorted(-pool.scores[stream0], -pool.scores[stream1])
    positions = np.minimum(required[:supply], np.arange(1, supply + 1) + beaten)
    positions = positions[positions <= k]
    is_protected = np.zeros(k, dtype=bool)
    is_protected[positions - 1] = True
    chosen = np.empty(k, dtype=np.int64)
    chosen[is_protected] = stream1[: positions.shape[0]]
    chosen[~is_protected] = stream0[: k - positions.shape[0]]

    # every requirement up to the supply is met; the next one first fails
    satisfied_up_to = int(required[supply]) - 1
    if strict and satisfied_up_to < k:
        raise InfeasibleRankingError(satisfied_up_to, k)
    return FairRanking(pool.take(chosen), mtable, satisfied_up_to)
