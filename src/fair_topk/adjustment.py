"""Type-I error of the ranked fairness test, and significance adjustment.

The k per-prefix binomial tests are positively dependent, so a target overall
rejection probability alpha for fairly-generated rankings requires a smaller
per-test significance alpha_adj.  A table's exact rejection probability is
a survival-vector recursion over its blocks, and calibration searches over
tables by false position: every alpha_adj in a table's plateau builds that
same table, and each table the search evaluates is derived from the last.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from . import ranker
from .baselines import _draw_flags, _seed_words
from .binomial import _check_args, _check_prob, _pmf_vector, _Tables
from .fairness import MTable, compute_mtable
from .output import _alpha_text, prob

__all__ = [
    "AdjustmentResult",
    "InfeasibleAdjustmentError",
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
    probability p at each of the k positions.  Carry S, where S[j] is the
    probability of having exactly required + j protected so far while every
    prefix requirement has been met.  Between two increments of the
    requirement no count becomes infeasible, so each block of b positions
    that ends at an increment (the gaps of ``MTable.inverse``) is crossed
    in one step: S is convolved with the Bin(b, p) pmf, and its first entry,
    the count the new requirement rules out, is dropped.  The answer is the
    sum of the dropped masses (1 - sum(S) would cancel when it is small).
    Positions after the last increment only shuffle mass between surviving
    counts, so the walk stops there.
    """
    return _table_rejection(compute_mtable(k, p, alpha_adj))


def _table_rejection(table: MTable) -> float:
    """The recursion of rejection_probability, with np.convolve's arithmetic.

    Each block costs one np.correlate of S with the block's reversed pmf,
    which is the call np.convolve makes when S is the longer array (the
    reversed pmfs are built once per table).  S is cut to the counts that
    can still be dropped: surplus j fails only if j is below the number of
    blocks left, and every kept entry of a convolution depends only on
    entries of S at or below its own index.  S keeps the longest block's
    length beyond that, so it is never cut shorter than a pmf, which would
    swap np.convolve's arguments and its summation order; every dropped
    mass is therefore the uncut recursion's, bit for bit.
    """
    blocks = np.diff(table.inverse, prepend=0).tolist()
    reversed_pmfs = {b: _pmf_vector(b, table.p)[::-1].copy() for b in set(blocks)}
    longest = max(blocks, default=0)
    S, dropped = np.ones(1), []
    for left, block in zip(range(len(blocks), 0, -1), blocks):
        if len(S) > block:
            full = np.correlate(S, reversed_pmfs[block], "full")
        else:
            full = np.convolve(S, _pmf_vector(block, table.p))
        dropped.append(full[0])
        S = full[1 : left + longest]
    return math.fsum(dropped)


class InfeasibleAdjustmentError(ValueError):
    """A calibration whose table must not be used; see AdjustmentResult.usable."""

    def __init__(self, r: AdjustmentResult):
        super().__init__(
            f"no feasible alpha_adj for k={r.k} p={prob(r.p)} alpha={_alpha_text(r.alpha_target)}: "
            f"best achievable rejection {r.achieved_rejection_prob:.6g} "
            f"at alpha_adj={_alpha_text(r.alpha_adj)}"
        )


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
        _check_prob(self.alpha_adj, "alpha_adj")

    def usable(self) -> float:
        """alpha_adj, or InfeasibleAdjustmentError if its table rejects more than the target."""
        if self.achieved_rejection_prob > self.alpha_target:
            raise InfeasibleAdjustmentError(self)
        return self.alpha_adj


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


def adjust_significance(k: int, p: float, alpha_target: float) -> AdjustmentResult:
    """Find the largest table whose rejection probability meets a target.

    The rejection probability is monotone non-decreasing in alpha_adj (a
    larger per-test significance only raises minimum counts), so the tables
    are searched on plateaus: a feasible table moves ``lo`` to its plateau's
    upper end, an infeasible one moves ``hi`` to its lower end, and the
    search stops when the two meet.  After alpha_target / k, each probe is
    the false position between the two tables in (log alpha_adj, log
    rejection), with Illinois halving of the end kept twice in a row, or
    ``lo`` when that falls outside [lo, hi).  The returned alpha_adj is the
    shortest decimal in the winning table's plateau.

    Cost per evaluation: the table (the first is walked, O(k) Python steps;
    each later one is derived from the last by ``binomial._Tables``, a few
    numpy operations per step of the count that moves farthest) and one
    ``_table_rejection``, one Python step per block of the table.  The
    search evaluates 7 to 13 tables at k = 100 to 1500, and the rebuild
    check walks once more.
    """
    _check_args(k, p, alpha_target, name="alpha_target")
    evaluations, tables = 0, _Tables(k, p)

    def evaluate(a: float):
        nonlocal evaluations
        evaluations += 1
        minima, plateau = tables.at(a)
        return minima, _table_rejection(MTable(k, p, a, minima)), plateau

    def excess(rejection: float) -> float:
        return math.log(rejection / alpha_target) if rejection > 0.0 else -math.inf

    def result(alpha_adj: float, rejection: float) -> AdjustmentResult:
        return AdjustmentResult(
            k, p, alpha_target, alpha_adj, rejection,
            feasible=0.0 <= alpha_target - rejection <= FEASIBILITY_TOL,
            search_iterations=evaluations,
        )

    _, r, (hi, _) = evaluate(alpha_target)
    if r <= alpha_target:  # no correction needed (or possible): the target under-rejects
        return result(alpha_target, r)
    lo, f_lo, f_hi, best, last_feasible = SEARCH_FLOOR, -math.inf, excess(r), None, None
    # The union bound (rejection <= k * alpha_adj) makes SEARCH_FLOOR feasible
    # for any sane target; only a target below k * SEARCH_FLOOR needs the check.
    if k * SEARCH_FLOOR > alpha_target:
        best, r_lo, plateau = evaluate(SEARCH_FLOOR)
        if r_lo > alpha_target:
            return result(SEARCH_FLOOR, r_lo)
        lo, f_lo = plateau[1], excess(r_lo)
    probe = max(alpha_target / k, SEARCH_FLOOR)  # feasible by the same bound
    while lo < hi:
        minima, r, (lower, upper) = evaluate(probe if lo <= probe < hi else lo)
        feasible = r <= alpha_target
        if feasible:
            best, r_lo, plateau, lo, f_lo = minima, r, (lower, upper), upper, excess(r)
        else:
            hi, f_hi = lower, excess(r)
        if feasible == last_feasible:  # Illinois: halve the end kept twice in a row
            f_lo, f_hi = (f_lo, f_hi / 2.0) if feasible else (f_lo / 2.0, f_hi)
        last_feasible = feasible
        # where the line through (log lo, f_lo) and (log hi, f_hi) crosses 0;
        # nan until a feasible table with a non-zero rejection is known
        step = f_lo / (f_lo - f_hi) if f_lo < f_hi else math.nan
        probe = lo ** (1.0 - step) * hi ** step
    if best is None:  # every probe, down to SEARCH_FLOOR's table, was infeasible
        return result(SEARCH_FLOOR, r)
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

    Each trial draws the protected flags of a synthetic ranking, one
    Bernoulli(p_generator) per position as ``yang_stoyanovich_generate``
    does, and rejects them, as the verifier does, when some prefix holds
    fewer protected candidates than the (p_test, alpha_adj) table requires.
    Trial t derives its random stream from (seed, t), so results do not
    depend on scheduling.

    Cost: the table once, then per trial one generator seeding and one draw
    of k uniforms into a block of at most ``ranker._BLOCK_ROWS`` values (one
    trial per block once k reaches it); each block of trials is decided by
    one comparison with p_generator, one cumulative count along its rows,
    one comparison with the table and one any.  Memory O(max(k, 2^14)).
    """
    _check_args(k, p_generator, alpha_adj, name="alpha_adj")
    if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)):
        raise ValueError(f"trials must be an integer, not {trials!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    base = _seed_words(seed)
    minima = compute_mtable(k, p_test, alpha_adj).minima
    rows = max(1, ranker._BLOCK_ROWS // k)  # trials per block
    uniforms = np.empty((min(rows, trials), k))
    rejections = 0
    for start in range(0, trials, rows):
        stop = min(start + rows, trials)
        seeds = (base + [t] for t in range(start, stop))
        flags = _draw_flags(p_generator, seeds, uniforms[: stop - start])
        rejected = (np.cumsum(flags, axis=1) < minima).any(axis=1)
        rejections += int(np.count_nonzero(rejected))
    estimate = rejections / trials
    stderr = math.sqrt(estimate * (1.0 - estimate) / trials)
    return SimulationResult(estimate, stderr, trials, rejections)
