"""Independent brute-force oracles used by the ranker and acceptance tests.

The utility definitions are re-implemented here from first principles (no
imports from the metrics module) so the optimality checks are genuinely
two-sided.  Enumeration is exact: in-group monotonicity is read over all
candidates (an excluded candidate ranks below every included one), so a
feasible ranking must take each group's top block — choose a protected
count c, take the c best protected and the k-c best non-protected, and
interleave them without violating the prefix minimum counts.  That leaves
at most sum_c C(k, c) = 2^k arrangements, fully enumerable for k <= 6.

"Best" is lexicographic per the problem statement: optimal selection
utility first, then maximal ordering utility among selection-optimal
rankings.  The two objectives genuinely conflict on some pools (e.g.
protected scores {0.325, 0.033}, open {0.9, 0.598, 0.229}, k=3, minima
[0,1,1]: selection 0 forces the merit set whose best arrangement orders
at -0.273, while ordering 0 needs the weak 0.033 candidate and costs
-0.565 of selection), so the maxima cannot be asserted independently.
"""
import itertools
import math
from fractions import Fraction

import numpy as np

from fair_topk.adjustment import SimulationResult
from fair_topk.baselines import yang_stoyanovich_generate
from fair_topk import binomial
from fair_topk.binomial import _pmf_vector, minimum_counts
from fair_topk.fairness import verify_ranked_group_fairness


def selection_utility_of(order_scores, excluded_scores):
    """min over excluded candidates of (worst ranked score - its score), capped at 0."""
    if len(excluded_scores) == 0:
        return 0.0
    worst_ranked = min(order_scores)
    return min(0.0, min(worst_ranked - q for q in excluded_scores))


def ordering_utility_of(order_scores):
    """min over ranked candidates of (worst score above it - its score), capped at 0."""
    worst = 0.0
    running_min = order_scores[0]
    for q in order_scores[1:]:
        worst = min(worst, running_min - q)
        running_min = min(running_min, q)
    return worst


def best_feasible(pool_scores, pool_protected, k, p, alpha_adj):
    """(protected count, selection, ordering) of the best feasible ranking,
    best meaning lexicographically (selection, then ordering) optimal.

    Returns None when no feasible ranking exists (protected supply too small).
    """
    scores = np.asarray(pool_scores, dtype=float)
    protected = np.asarray(pool_protected, dtype=bool)
    minima = minimum_counts(k, p, alpha_adj)
    prot_sorted = sorted(scores[protected], reverse=True)
    open_sorted = sorted(scores[~protected], reverse=True)

    per_count = {}  # c -> (selection utility, best ordering utility)
    for c in range(max(0, k - len(open_sorted)), min(k, len(prot_sorted)) + 1):
        if c < minima[-1]:
            continue
        top = prot_sorted[:c] + open_sorted[: k - c]
        worst_ranked = min(top)
        excluded = prot_sorted[c:] + open_sorted[k - c :]
        sel = min(0.0, min((worst_ranked - q for q in excluded), default=0.0))
        ord_best_for_c = None
        for ones in itertools.combinations(range(k), c):
            pattern = np.zeros(k, dtype=bool)
            pattern[list(ones)] = True
            if (np.cumsum(pattern) < minima).any():
                continue
            order = []
            a = b = 0
            for is_protected in pattern:
                if is_protected:
                    order.append(prot_sorted[a])
                    a += 1
                else:
                    order.append(open_sorted[b])
                    b += 1
            value = ordering_utility_of(order)
            if ord_best_for_c is None or value > ord_best_for_c:
                ord_best_for_c = value
        # any c >= minima[-1] admits the all-protected-first arrangement,
        # so ord_best_for_c is never None here
        per_count[c] = (sel, ord_best_for_c)
    if not per_count:
        return None
    best_sel = max(sel for sel, _ in per_count.values())
    attaining = {c: o for c, (sel, o) in per_count.items() if sel == best_sel}
    best_ord = max(attaining.values())
    best_count = min(c for c, o in attaining.items() if o == best_ord)
    return best_count, best_sel, best_ord


def greedy_fair_topk(pool_scores, pool_ids, pool_protected, k, p, alpha_adj):
    """(row indices, satisfied_up_to) of the constrained ranking, by the
    greedy walk over positions 1..k.

    Each group's stream is its k best rows by (score desc, id asc).  A
    protected candidate is forced whenever the prefix holds fewer than the
    table requires; otherwise the better head is taken, the protected head
    winning exact score ties.  satisfied_up_to is the length of the longest
    prefix on which every requirement holds.
    """
    scores = np.asarray(pool_scores, dtype=float)
    protected = np.asarray(pool_protected, dtype=bool)
    minima = minimum_counts(k, p, alpha_adj)
    order = np.lexsort((np.asarray(pool_ids), -scores))
    stream1 = order[protected[order]][:k]
    stream0 = order[~protected[order]][:k]

    chosen = []
    a = b = 0  # heads of stream1 (protected) / stream0
    taken_protected = 0
    for i in range(k):
        force = taken_protected < minima[i]
        if force and a < len(stream1):
            chosen.append(stream1[a])
            a += 1
            taken_protected += 1
            continue
        s1 = scores[stream1[a]] if a < len(stream1) else -math.inf
        s0 = scores[stream0[b]] if b < len(stream0) else -math.inf
        if s1 >= s0 and a < len(stream1):
            chosen.append(stream1[a])
            a += 1
            taken_protected += 1
        else:
            chosen.append(stream0[b])
            b += 1

    short = np.cumsum(protected[chosen]) < minima
    satisfied_up_to = int(np.argmax(short)) if short.any() else k
    return np.array(chosen, dtype=np.int64), satisfied_up_to


def evaluate_ranking_raw(order_scores, excluded_scores):
    """(selection, ordering) of a concrete ranking, from first principles."""
    return (
        selection_utility_of(order_scores, excluded_scores),
        ordering_utility_of(order_scores),
    )


def enumerated_rejection_probability(k, p, alpha_adj):
    """Exact rejection probability by enumerating all 2^k protected patterns.

    A fairly-generated ranking draws each position's protected flag as an
    independent Bernoulli(p); it is rejected when some prefix holds fewer
    protected candidates than the minimum-count table demands.  Every
    pattern's probability is p^ones * (1-p)^zeros; summing the rejected
    patterns gives the exact answer, independently of the survival-vector
    recursion under test.  Vectorized, practical up to k ~ 20.
    """
    minima = minimum_counts(k, p, alpha_adj)
    codes = np.arange(1 << k, dtype=np.uint32)
    # bit j of the code is the flag at ranking position j+1
    flags = (codes[:, None] >> np.arange(k, dtype=np.uint32)) & 1
    prefix_counts = np.cumsum(flags, axis=1)
    rejected = (prefix_counts < minima).any(axis=1)
    ones = flags.sum(axis=1)
    weights = p ** ones * (1.0 - p) ** (k - ones)
    return float(weights[rejected].sum())


def stepwise_rejection_probability(minima, p):
    """Rejection probability of a table by a survival recursion, one position
    at a time.

    S[c] is the probability of exactly c protected so far with every prefix
    requirement met; counts at or above the final requirement pool in an
    absorbing top bucket.  Each position takes a Bernoulli(p) step, and where
    the requirement increments to v the newly infeasible entry S[v-1] is
    zeroed.  The answer is 1 - sum(S).  Positions after the last increment
    only shuffle mass between surviving counts, so the walk stops there.
    """
    minima = np.asarray(minima)
    top = int(minima[-1])
    if top == 0:
        return 0.0
    S = np.zeros(top + 1)
    S[0] = 1.0
    required = 0
    last = int(np.flatnonzero(np.diff(minima, prepend=0))[-1]) + 1
    for req in minima[:last].tolist():
        stepped = S * (1.0 - p)
        stepped[1:] += S[:-1] * p
        stepped[top] += S[top] * p  # absorbing: the top bucket never steps down
        if req > required:
            stepped[req - 1] = 0.0
            required = req
        S = stepped
    return max(0.0, 1.0 - math.fsum(S))


def convolved_rejection_probability(minima, p):
    """Rejection probability of a table by the block recursion convolving the
    whole survival vector, with no cut: the bit-level reference for
    ``adjustment._table_rejection``, whose floats must equal these."""
    inverse = np.flatnonzero(np.diff(np.asarray(minima), prepend=0)) + 1
    S, dropped = np.ones(1), []
    for block in np.diff(inverse, prepend=0).tolist():
        full = np.convolve(S, _pmf_vector(block, p))
        dropped.append(full[0])
        S = full[1:]
    return math.fsum(dropped)


def exact_rejection_probability(minima, p):
    """Rejection probability of a table in exact rational arithmetic.

    The survival walk of stepwise_rejection_probability over integers: with
    p = n/d exactly (as the float is), S[c] is the weight of the surviving
    flag sequences holding c protected after i positions, over d^i.  Where
    the requirement rises to v, the weight S[v-1] is rejected; the answer is
    the Fraction summing every rejected weight over its d^i.
    """
    n, d = Fraction(p).as_integer_ratio()
    S, required, rejected = [1], 0, Fraction(0)
    for i, req in enumerate(np.asarray(minima).tolist(), 1):
        stepped = [w * (d - n) for w in S] + [0]
        for c, w in enumerate(S):
            stepped[c + 1] += w * n
        if req > required:
            rejected += Fraction(stepped[req - 1], d**i)
            stepped[req - 1], required = 0, req
        S = stepped
    return rejected


def per_trial_simulation(k, p_generator, p_test, alpha_adj, trials, seed):
    """Monte Carlo rejection rate with a ranking object per trial: trial t
    generates a ranking from seed (seed, t) and runs the full verifier on it."""
    base = [seed] if isinstance(seed, int) else list(seed)
    rejections = 0
    for t in range(trials):
        ranking = yang_stoyanovich_generate(k, p_generator, seed=base + [t])
        if not verify_ranked_group_fairness(ranking, p_test, alpha_adj).fair:
            rejections += 1
    estimate = rejections / trials
    stderr = math.sqrt(estimate * (1.0 - estimate) / trials)
    return SimulationResult(estimate, stderr, trials, rejections)


class Walk:
    """F(c; i, p) and Pr(X = c; i, p), carried one scalar step at a time while
    the trial count i and the count c each grow by one, with the one-step
    identities of ``binomial._walked`` and its refresh every
    ``binomial._REFRESH_EVERY`` trials."""

    __slots__ = ("p", "q", "odds", "i", "c", "cdf", "pmf")

    def __init__(self, p: float):
        self.p, self.q = p, 1.0 - p
        self.odds = p / self.q
        self.i = self.c = 0
        self.cdf = self.pmf = 1.0  # Bin(0, p) puts all its mass on 0

    def next_trial(self) -> None:
        if self.i and self.i % binomial._REFRESH_EVERY == 0:
            self.exact()
        self.i += 1
        self.cdf -= self.p * self.pmf
        self.pmf *= self.q * self.i / (self.i - self.c)

    def next_count(self) -> None:
        self.c += 1
        self.pmf *= (self.i - self.c + 1) / self.c * self.odds
        self.cdf += self.pmf

    def exact(self) -> None:
        self.cdf = binomial.cdf(self.c, self.i, self.p)
        self.pmf = float(_pmf_vector(self.i, self.p)[self.c])

    def exact_near(self, alpha: float) -> None:
        if abs(self.cdf - alpha) < binomial._BOUNDARY_EPS:
            self.exact()


def walked_table(k, p, alpha):
    """(minima, F(m(i); i, p), Pr(X = m(i); i, p)) by one Walk, bumping the
    count while its cdf is <= alpha and re-deciding near alpha exactly.  The
    bit-level reference for ``binomial._walked``."""
    walk = Walk(p)
    out = np.empty(k, dtype=np.int64)
    cdfs, pmfs = np.empty(k), np.empty(k)
    for i in range(k):
        walk.next_trial()
        walk.exact_near(alpha)
        while walk.cdf <= alpha:
            walk.next_count()
            walk.exact_near(alpha)
        out[i], cdfs[i], pmfs[i] = walk.c, walk.cdf, walk.pmf
    return out, cdfs, pmfs


def walked_along(counts, p):
    """(F(c_i; i, p), Pr(X = c_i; i, p)) for i = 1..k along a count path, by
    one Walk: a trial step, then a count step wherever the path steps.  The
    bit-level reference for ``binomial._carried_along``."""
    walk = Walk(p)
    cdfs, pmfs = np.empty(len(counts)), np.empty(len(counts))
    for i, c in enumerate(np.asarray(counts).tolist()):
        walk.next_trial()
        if c > walk.c:
            walk.next_count()
        cdfs[i], pmfs[i] = walk.cdf, walk.pmf
    return cdfs, pmfs
