"""Reference computations the benchmark checks the program against.

Nothing here imports fair_topk: each function is written from the method's
definitions with numpy and scipy.stats, so a wrong output in the program
cannot also appear in its check.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.stats import binom


def minimum_counts(k: int, p: float, alpha: float) -> np.ndarray:
    """m(i) for i = 1..k: the smallest x with F(x; i, p) > alpha (strictly)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in the open interval (0, 1)")
    trials = np.arange(1, k + 1)
    # ppf gives the smallest x with F(x) >= alpha; the two loops settle the
    # strict rule and any rounding in ppf itself.
    x = binom.ppf(alpha, trials, p).astype(np.int64)
    while True:
        low = binom.cdf(x, trials, p) <= alpha
        if not low.any():
            break
        x[low] += 1
    while True:
        high = (x > 0) & (binom.cdf(x - 1, trials, p) > alpha)
        if not high.any():
            break
        x[high] -= 1
    return x


def rejection_probability(minima, p: float) -> float:
    """Exact chance that a ranking with Bernoulli(p) protected flags misses
    some prefix minimum of the table.

    Carries the distribution of the protected count over the rankings that
    have met every minimum so far; the mass that falls below m(i) at
    position i is rejected there, and the rejected masses are summed.
    """
    minima = np.asarray(minima, dtype=np.int64)
    alive = np.zeros(minima.shape[0] + 1)
    alive[0] = 1.0
    rejected = []
    for i, need in enumerate(minima, start=1):
        stepped = np.zeros_like(alive)
        stepped[:i] = alive[:i] * (1.0 - p)
        stepped[1 : i + 1] += alive[:i] * p
        rejected.append(float(stepped[:need].sum()))
        stepped[:need] = 0.0
        alive = stepped
    return math.fsum(rejected)


def fairness_measure(flags, p: float) -> float:
    """min over prefix lengths i of F(protected count of the prefix; i, p)."""
    flags = np.asarray(flags, dtype=bool)
    trials = np.arange(1, flags.shape[0] + 1)
    return float(binom.cdf(np.cumsum(flags), trials, p).min())


def merge_topk(ids, scores, protected, minima) -> np.ndarray:
    """Rows of the constrained top-k by a greedy merge of two group streams.

    Each group is read best first by (score desc, id asc).  Position i takes
    the protected head while fewer than m(i) protected are placed; otherwise
    it takes the better head, and the protected head wins an exact tie.
    """
    ids = np.asarray(ids)
    scores = np.asarray(scores, dtype=np.float64)
    protected = np.asarray(protected, dtype=bool)
    streams = []
    for flag in (True, False):
        rows = np.flatnonzero(protected == flag)
        streams.append(list(rows[np.lexsort((ids[rows], -scores[rows]))][: len(minima)]))
    prot, other = streams
    a = b = 0
    chosen = []
    for need in minima:
        prot_left, other_left = a < len(prot), b < len(other)
        take_prot = prot_left and (
            a < need
            or not other_left
            or scores[prot[a]] >= scores[other[b]]
        )
        if take_prot:
            chosen.append(prot[a])
            a += 1
        else:
            chosen.append(other[b])
            b += 1
    return np.array(chosen, dtype=np.int64)


def topk_rows(ids, scores, k: int) -> np.ndarray:
    """Rows of the k best candidates by (score desc, id asc)."""
    return np.lexsort((ids, -np.asarray(scores)))[:k]


def color_blind_positions(ids, scores, rows) -> np.ndarray:
    """1-based place of each given row in the (score desc, id asc) order,
    counted: 1 + #{higher score} + #{equal score, smaller id}."""
    ids = np.asarray(ids)
    scores = np.asarray(scores, dtype=np.float64)
    order = np.lexsort((ids, scores))
    asc_scores, asc_ids = scores[order], ids[order]
    n = scores.shape[0]
    out = np.empty(len(rows), dtype=np.int64)
    for j, row in enumerate(rows):
        s = scores[row]
        lo = np.searchsorted(asc_scores, s, side="left")
        hi = np.searchsorted(asc_scores, s, side="right")
        smaller_ids = np.searchsorted(asc_ids[lo:hi], ids[row], side="left")
        out[j] = 1 + (n - hi) + smaller_ids
    return out


def quantile_repair(ids, scores, protected) -> np.ndarray:
    """Scores after quantile repair: the protected candidate of ascending
    (score, id) rank r out of m takes the non-protected score at ascending
    rank ceil(r * n / m) out of n; other scores stay."""
    ids = np.asarray(ids)
    scores = np.asarray(scores, dtype=np.float64)
    protected = np.asarray(protected, dtype=bool)
    prot_rows = np.flatnonzero(protected)
    prot_rows = prot_rows[np.lexsort((ids[prot_rows], scores[prot_rows]))]
    open_sorted = np.sort(scores[~protected])
    m, n = prot_rows.shape[0], open_sorted.shape[0]
    ranks = np.arange(1, m + 1)
    repaired = scores.copy()
    repaired[prot_rows] = open_sorted[-(-ranks * n // m) - 1]
    return repaired


def utility_report(ids, scores, protected, ranking_ids) -> dict:
    """The metric report of a ranking, from the definitions.

    Scores are min-max normalised over the pool.  A ranked candidate's
    utility is min(0, least score ranked above it - its score); an excluded
    candidate's is min(0, least ranked score - its score).  The losses are
    minus the worst of each.  The ordering witness is the topmost candidate
    with the worst ranked utility, and its rank drop is how far below its
    color-blind place it sits.  The selection witness is the smallest id
    among the excluded with the worst utility.  NDCG weighs position i by
    1/log2(i + 1) against the color-blind top k.
    """
    ids = np.asarray(ids)
    scores = np.asarray(scores, dtype=np.float64)
    lo, hi = scores.min(), scores.max()
    norm = np.ones_like(scores) if hi == lo else (scores - lo) / (hi - lo)
    by_id = np.argsort(ids)
    rows = by_id[np.searchsorted(ids[by_id], ranking_ids)]
    if not np.array_equal(ids[rows], ranking_ids):
        raise ValueError("ranking holds ids that are not in the pool")
    k = rows.shape[0]
    ranked = norm[rows]

    weights = 1.0 / np.log2(np.arange(2, k + 2))
    ideal = math.fsum(weights * np.sort(norm)[::-1][:k])
    ndcg = 1.0 if ideal == 0.0 else math.fsum(weights * ranked) / ideal

    worst_ordering, witness_at = 0.0, None
    least = ranked[0]
    for i in range(1, k):
        utility = min(0.0, least - ranked[i])
        if utility < worst_ordering:
            worst_ordering, witness_at = utility, i
        least = min(least, ranked[i])
    if witness_at is None:
        drop, ordering_witness = 0, None
    else:
        place = color_blind_positions(ids, norm, [rows[witness_at]])[0]
        drop = max(0, witness_at + 1 - int(place))
        ordering_witness = int(ids[rows[witness_at]])

    excluded = np.ones(scores.shape[0], dtype=bool)
    excluded[rows] = False
    utilities = np.minimum(0.0, ranked.min() - norm[excluded])
    worst_selection = float(utilities.min()) if utilities.shape[0] else 0.0
    selection_witness = None
    if worst_selection < 0.0:
        selection_witness = int(ids[excluded][utilities == worst_selection].min())

    return {
        "protected_share": float(np.asarray(protected)[rows].mean()),
        "ndcg": ndcg,
        "ordering_utility_loss": -worst_ordering + 0.0,
        "selection_utility_loss": -worst_selection + 0.0,
        "max_rank_drop": drop,
        "worst_ordering_candidate": ordering_witness,
        "worst_selection_candidate": selection_witness,
    }
