"""Utility metrics: what a constrained ranking costs relative to merit order.

All per-candidate utilities compare a candidate's score against the least
qualified candidate ranked above it; they are 0 for candidates with no
less-qualified candidate above, and negative otherwise.  The metric
operations consume scores as given (callers normalize first when comparable
magnitudes across datasets are wanted); ``evaluate_ranking`` applies min-max
normalization over the full pool and assembles the report.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .candidates import CandidatePool, RankedSequence
from .ranker import _best_rows, _blocks, color_blind_topk

__all__ = [
    "UtilityReport",
    "OrderingResult",
    "selection_utility",
    "ordering_utility",
    "ndcg",
    "evaluate_ranking",
]


def _normalized(pool: CandidatePool) -> CandidatePool:
    """Min-max normalize pool scores to [0, 1]; constant pools map to all 1.0.

    The pool's scores are finite, and so are these, so the new pool is built
    without checking them again."""
    lo = float(pool.scores.min())
    hi = float(pool.scores.max())
    if hi == lo:
        scores = np.ones(len(pool))
    elif math.isinf(hi - lo):  # the halved scores keep their order, in a finite range
        return _normalized(pool._of(pool.ids, pool.scores / 2, pool.protected))
    else:
        scores = pool.scores - lo
        scores /= hi - lo
    return pool._of(pool.ids, scores, pool.protected)


_FOREIGN_IDS = "ranking contains ids not present in the pool"


def _block_rows(n: int, mask_of) -> np.ndarray:
    """The rows, ascending, of an n-row mask that ``mask_of(start, stop)``
    gives a block at a time."""
    pieces = [np.flatnonzero(mask_of(start, stop)) + start for start, stop in _blocks(n)]
    return np.concatenate([np.empty(0, dtype=np.intp), *pieces])


def _member_test(pool_ids: np.ndarray, ids: np.ndarray):
    """A function from some of the pool's ids to the mask of those in ``ids``.

    Integer ids whose range np.isin would tabulate for the whole pool get
    that one bool table, built once: np.isin on a block's ids would weigh
    the range against their number and sort instead.  Other ids go through
    np.isin.
    """
    if pool_ids.dtype.kind == ids.dtype.kind == "i":
        lo = int(ids.min())
        span = int(ids.max()) - lo
        if span <= 6 * (pool_ids.shape[0] + ids.shape[0]):  # np.isin's own rule
            table = np.zeros(span + 2, dtype=bool)  # the last slot is every id out of range
            table[ids - lo] = True

            def member(some_ids):
                # an id out of range wraps to an offset above span as uint64
                offset = np.subtract(some_ids, lo, dtype=np.int64).view(np.uint64)
                return table[np.minimum(offset, span + 1, out=offset)]

            return member
    return lambda some_ids: np.isin(some_ids, ids)


def _ranked_rows(pool: CandidatePool, ranking: RankedSequence) -> np.ndarray:
    """The pool row of each ranked id, in ranking order.

    One membership walk finds the rows, testing in each block only those
    whose pool score is at least the least ranked score: those hold every
    ranked id when the ranking carries its pool scores.  If they hold fewer
    than k ids, as when the scores are not the pool's or an id is foreign,
    a second walk tests every row.  Only those k ids are sorted to put them
    in order.  There must be at least one id, and each must be in the pool.
    """
    ids = ranking.ids
    if not ids.shape[0]:
        raise ValueError("ranking must be non-empty")
    member = _member_test(pool.ids, ids)
    least = ranking.scores.min()

    def near(start, stop):
        mask = pool.scores[start:stop] >= least
        mask[mask] = member(pool.ids[start:stop][mask])
        return mask

    hits = _block_rows(len(pool), near)
    if hits.shape[0] < ids.shape[0]:
        hits = _block_rows(len(pool), lambda start, stop: member(pool.ids[start:stop]))
    if hits.shape[0] != ids.shape[0]:
        raise ValueError(_FOREIGN_IDS)
    by_id = hits[np.argsort(pool.ids[hits])]
    pos = np.searchsorted(pool.ids[by_id], ids)
    rows = by_id[np.minimum(pos, hits.shape[0] - 1)]
    if not np.array_equal(pool.ids[rows], ids):
        raise ValueError(_FOREIGN_IDS)
    return rows


def _selection(ranking, pool, rows, best):
    """(worst utility, its witness) over the pool candidates outside the
    ranking, given the pool row of each ranked id and the pool's best k rows,
    from the best rows left out.  A row past them scores at most the k-th
    best score and loses an exact tie to a best row on id; only if one can
    still attain the worst utility (by rounding, or with ranking scores that
    are not the pool's) are all excluded rows above the least ranked read."""
    least = float(ranking.scores.min())
    ranked = set(rows.tolist())
    left_out = [row for row in best.tolist() if row not in ranked]
    utilities = np.minimum(0.0, least - pool.scores[left_out])
    top = pool.scores[left_out[0]] if left_out else np.inf
    reach = min(pool.scores[best[-1]], np.nextafter(top, -np.inf))  # a later row's best chance
    if least < reach and least - reach <= utilities.min(initial=0.0):
        above = _block_rows(len(pool), lambda start, stop: pool.scores[start:stop] > least)
        left_out = [row for row in above.tolist() if row not in ranked]
        utilities = np.minimum(0.0, least - pool.scores[left_out])
    value = float(utilities.min(initial=0.0))
    if value == 0.0:
        return 0.0, None  # nobody better was left out
    return value, min(pool.ids[left_out][utilities == value].tolist())


def selection_utility(ranking: RankedSequence, pool: CandidatePool) -> float:
    """Worst utility over excluded candidates; 0 when nobody better was left out."""
    rows = _ranked_rows(pool, ranking)
    return _selection(ranking, pool, rows, _best_rows(pool, len(ranking)))[0]


class OrderingResult(NamedTuple):
    utility: float
    max_rank_drop: int
    worst_candidate: Optional[object]


def ordering_utility(ranking: RankedSequence, pool: CandidatePool) -> OrderingResult:
    """Worst utility over ranked candidates, plus the rank drop of its witness.

    The witness is the first (topmost) candidate attaining the worst utility;
    its drop is how many positions it lost against the full color-blind
    ranking of the pool (never negative).  Zero loss reports zero drop.
    Every ranked id must exist in the pool.
    """
    rows = _ranked_rows(pool, ranking)
    return _ordering(ranking, rows, _best_rows(pool, len(ranking)))


def _ordering(ranking, rows, best) -> OrderingResult:
    """ordering_utility, given the pool row of each ranked id and the pool's
    best k rows: the witness's 0-based color-blind position is its index
    among them, and past them it is at least k, beyond its ranking position."""
    prefix_min = np.minimum.accumulate(ranking.scores)
    utilities = np.zeros(len(ranking))
    utilities[1:] = np.minimum(0.0, prefix_min[:-1] - ranking.scores[1:])
    worst = int(np.argmin(utilities))
    value = float(utilities[worst])
    if value == 0.0:
        return OrderingResult(0.0, 0, None)
    ahead = np.flatnonzero(best == rows[worst])
    drop = max(0, worst - int(ahead[0])) if ahead.shape[0] else 0
    return OrderingResult(value, drop, ranking.ids[worst].item())


def ndcg(ranking: RankedSequence, pool: CandidatePool, k: Optional[int] = None) -> float:
    """Discounted score sum over positions, against the color-blind ideal.

    Position i carries weight 1/log2(i+1); the denominator is the same
    weighted sum over the color-blind top-k, so the ideal ranking scores 1.0.
    Every score summed must be non-negative.
    """
    if k is None and not len(ranking):
        raise ValueError("ranking must be non-empty")
    k = len(ranking) if k is None else k
    return _ndcg(ranking.scores[:k], color_blind_topk(pool, k).scores)


def _ndcg(scores: np.ndarray, ideal_scores: np.ndarray) -> float:
    """ndcg of the given scores against the ideal's, k of them."""
    if (scores < 0).any() or (ideal_scores < 0).any():
        raise ValueError("ndcg needs non-negative scores")
    weights = 1.0 / np.log2(np.arange(1, ideal_scores.shape[0] + 1) + 1.0)
    attained = float(np.dot(weights[: scores.shape[0]], scores))
    ideal = float(np.dot(weights, ideal_scores))
    if ideal == 0.0:
        return 1.0  # all-zero scores: every ranking is ideal
    return attained / ideal


@dataclass(frozen=True)
class UtilityReport:
    """Metric bundle for one ranking, on pool-normalized scores.

    Losses are the non-negative magnitudes of the (non-positive) selection
    and ordering utilities.
    """

    protected_share: float
    ndcg: float
    ordering_utility_loss: float
    selection_utility_loss: float
    max_rank_drop: int
    worst_ordering_candidate: Optional[object] = None
    worst_selection_candidate: Optional[object] = None


def evaluate_ranking(pool: CandidatePool, ranking: RankedSequence) -> UtilityReport:
    """Assemble the full metric report, min-max normalizing over the pool.

    Cost: O(n + k log k) for a pool of n and a ranking of k: one membership
    walk (two when the ranking's scores are not the pool's), normalization,
    then one top-k selection, each walk a block at a time.  So beyond the
    normalized scores the scratch memory is O(k), and during the membership
    walk a table over the ranked ids' range.  That color-blind top k is
    NDCG's ideal, holds the best candidate left out, and places the
    ordering witness.
    """
    rows = _ranked_rows(pool, ranking)
    normalized = _normalized(pool)
    best = _best_rows(normalized, len(ranking))
    normalized_ranking = ranking.with_scores(normalized.scores[rows])
    ordering = _ordering(normalized_ranking, rows, best)
    sel_value, sel_witness = _selection(normalized_ranking, normalized, rows, best)
    return UtilityReport(
        protected_share=float(normalized_ranking.protected.mean()),
        ndcg=_ndcg(normalized_ranking.scores, normalized.scores[best]),
        ordering_utility_loss=-ordering.utility + 0.0,  # +0.0 avoids -0.0
        selection_utility_loss=-sel_value + 0.0,
        max_rank_drop=ordering.max_rank_drop,
        worst_ordering_candidate=ordering.worst_candidate,
        worst_selection_candidate=sel_witness,
    )
