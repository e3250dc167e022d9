"""Type-I error of the ranked fairness test, and significance adjustment.

The k per-prefix binomial tests are positively dependent, so a target overall
rejection probability alpha for fairly-generated rankings requires a smaller
per-test significance alpha_adj.  The exact rejection probability of a table
is computed by a survival-vector recursion, and calibration bisects over
tables: every alpha_adj in a table's plateau builds that same table.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .binomial import _check_args, minimum_counts, table_plateau
from .fairness import compute_mtable, verify_ranked_group_fairness

__all__ = [
    "AdjustmentResult",
    "SimulationResult",
    "rejection_probability",
    "adjust_significance",
    "simulate_rejection_rate",
]

SEARCH_FLOOR = 1e-10  # smallest alpha_adj the search evaluates
FEASIBILITY_TOL = 1e-3  # max shortfall (target - achieved) still called feasible


def rejection_probability(k: int, p: float, alpha_adj: float) -> float:
    """Probability that a fairly-generated ranking fails the fairness test.

    The generative model draws a protected candidate independently with
    probability p at each of the k positions.  Walk those positions carrying
    S, where S[c] is the probability of having exactly c protected so far
    while every prefix requirement has been met; counts at or above the final
    requirement m(k) pool in an absorbing top bucket.  At each position the
    vector takes a Bernoulli step, and where the requirement increments to v
    the newly infeasible entry S[v-1] is zeroed (entries below v-1 are already
    zero because requirements grow by at most 1).  The answer is 1 - sum(S).
    Positions after the last increment only shuffle mass between surviving
    counts, so the walk stops there.
    """
    _check_args(k, p, alpha_adj, name="alpha_adj")
    return _table_rejection(minimum_counts(k, p, alpha_adj), p)


def _table_rejection(minima: np.ndarray, p: float) -> float:
    top = int(minima[-1])
    if top == 0:
        return 0.0
    q = 1.0 - p
    increments = np.flatnonzero(np.diff(minima, prepend=0) == 1)
    last_position = int(increments[-1]) + 1
    S = np.zeros(top + 1)
    S[0] = 1.0
    required = 0
    for position in range(1, last_position + 1):
        stepped = S * q
        stepped[1:] += S[:-1] * p
        stepped[top] += S[top] * p  # absorbing: the top bucket never steps down
        req = int(minima[position - 1])
        if req > required:
            stepped[req - 1] = 0.0
            required = req
        S = stepped
    # rounding can leave the survivor sum a hair above 1; never report < 0
    return max(0.0, 1.0 - math.fsum(S))


@dataclass(frozen=True)
class AdjustmentResult:
    """Outcome of calibrating alpha_adj against a target overall alpha.

    ``alpha_adj`` names the largest table whose rejection probability stays
    at or below the target (the conservative side): it lies in that table's
    plateau, so ``compute_mtable(k, p, alpha_adj)`` rebuilds exactly the
    table whose rejection is ``achieved_rejection_prob``.  When the step
    structure of the test leaves a shortfall larger than ``FEASIBILITY_TOL``,
    ``feasible`` is False and the conservative value is still returned so
    callers can proceed with an under-rejecting test.
    """

    k: int
    p: float
    alpha_target: float
    alpha_adj: float
    achieved_rejection_prob: float
    feasible: bool
    search_iterations: int

    def __post_init__(self):
        if not 0.0 < self.alpha_adj < 1.0:
            raise ValueError("alpha_adj must lie in the open interval (0, 1)")


def _shortest_inside(lower: float, upper: float) -> float:
    """The float of the decimal with the fewest places in [lower, upper),
    the one nearest the midpoint among equals; ``lower`` if there is none."""
    middle = (lower + upper) / 2.0
    for places in range(1, 18):
        scaled = middle * 10**places
        neighbours = (math.floor(scaled), math.ceil(scaled))
        for digits in sorted(neighbours, key=lambda d: abs(d - scaled)):
            value = float(f"{digits}e-{places}")
            if lower <= value < upper:
                return value
    return lower


def _alpha_text(value: float) -> str:
    """An alpha_adj names a table, so print text that parses back to the same
    float: six decimals when they round-trip, else ``repr``."""
    text = f"{float(value):.6f}"
    return text if float(text) == value else repr(float(value))


def adjust_significance(k: int, p: float, alpha_target: float) -> AdjustmentResult:
    """Find the largest table whose rejection probability meets a target.

    The rejection probability is monotone non-decreasing in alpha_adj (a
    larger per-test significance only raises minimum counts), so the tables
    are searched by bisection on plateaus: a feasible table moves ``lo`` to
    its plateau's upper end, an infeasible one moves ``hi`` to its lower end,
    and the search stops when the two meet.  The returned alpha_adj is the
    shortest decimal in the winning table's plateau.
    """
    _check_args(k, p, alpha_target, name="alpha_target")
    evaluations = 0

    def evaluate(a: float):
        nonlocal evaluations
        evaluations += 1
        minima = minimum_counts(k, p, a)
        return minima, _table_rejection(minima, p), table_plateau(minima, p)

    def result(alpha_adj: float, rejection: float) -> AdjustmentResult:
        return AdjustmentResult(
            k, p, alpha_target, alpha_adj, rejection,
            feasible=0.0 <= alpha_target - rejection <= FEASIBILITY_TOL,
            search_iterations=evaluations,
        )

    _, r_hi, (hi, _) = evaluate(alpha_target)
    if r_hi <= alpha_target:
        # No correction needed (or possible): the target itself under-rejects.
        return result(alpha_target, r_hi)
    # The union bound (rejection <= k * alpha_adj) makes SEARCH_FLOOR feasible
    # for any sane target; only a target below k * SEARCH_FLOOR needs the check.
    if k * SEARCH_FLOOR > alpha_target:
        evaluations += 1
        r_floor = rejection_probability(k, p, SEARCH_FLOOR)
        if r_floor > alpha_target:
            return result(SEARCH_FLOOR, r_floor)
    lo = SEARCH_FLOOR
    while lo < hi:
        minima, r, (lower, upper) = evaluate((lo + hi) / 2.0)
        if r <= alpha_target:
            best, r_lo, plateau, lo = minima, r, (lower, upper), upper
        else:
            hi = lower
    alpha_adj = _shortest_inside(max(plateau[0], SEARCH_FLOOR), plateau[1])
    if not np.array_equal(compute_mtable(k, p, alpha_adj).minima, best):
        raise RuntimeError(f"alpha_adj={alpha_adj!r} does not rebuild the calibrated table")
    return result(alpha_adj, r_lo)


@dataclass(frozen=True)
class SimulationResult:
    estimate: float
    stderr: float
    trials: int
    rejections: int


def simulate_rejection_rate(
    k: int,
    p_generator: float,
    p_test: float,
    alpha_adj: float,
    trials: int,
    seed: Union[int, Sequence[int]] = 0,
) -> SimulationResult:
    """Monte Carlo rejection rate of the fairness test on generated rankings.

    Each trial draws a synthetic ranking (protected flag Bernoulli(p_generator)
    per position) and verifies it at (p_test, alpha_adj).  Trial t derives its
    random stream from (seed, t), so results do not depend on scheduling.
    """
    from .baselines import yang_stoyanovich_generate  # local: avoid module cycle

    _check_args(k, p_generator, alpha_adj, name="alpha_adj")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    base = [seed] if isinstance(seed, (int, np.integer)) else list(seed)
    rejections = 0
    for t in range(trials):
        ranking = yang_stoyanovich_generate(k, p_generator, seed=base + [t])
        if not verify_ranked_group_fairness(ranking, p_test, alpha_adj).fair:
            rejections += 1
    estimate = rejections / trials
    stderr = math.sqrt(estimate * (1.0 - estimate) / trials)
    return SimulationResult(estimate, stderr, trials, rejections)
