"""Numerically stable binomial distribution primitives.

Everything statistical in this package reduces to binomial tail evaluations
at trial counts up to a few thousand, where naive factorial formulas overflow
and recurrences started at x=0 underflow.  The probability mass vector is
therefore seeded at the distribution mode (computed in log space) and grown
outward with the multiplicative recurrence

    pmf(x+1) = pmf(x) * (n - x) / (x + 1) * p / (1 - p),

and cumulative probabilities are compensated sums of those terms.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = ["cdf", "percent_point", "minimum_counts"]

# Carried recurrences shed accumulated rounding by starting afresh after at
# most this many one-step identities: _walked (and _carried_along, which keeps
# its values) recomputes from the mode-seeded vector every this many trials,
# and _Tables walks afresh before any count moves more often than this since
# its table was walked.
_REFRESH_EVERY = 256
# Comparisons against alpha closer than this are re-decided with the
# compensated-summation cdf so recurrence drift cannot flip them.
_BOUNDARY_EPS = 1e-9


def _check_prob(value: float, name: str = "p") -> None:
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in the open interval (0, 1)")


def _check_int(value, name: str) -> None:
    """Integers, numpy's included, but not bools."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, not {value!r}")


def _check(trials: int, p: float, x=None) -> None:
    """Bin(trials, p) must be a distribution, and x, when given, an integer
    in its support."""
    _check_int(trials, "trials")
    if trials < 0:
        raise ValueError("trials must be non-negative")
    _check_prob(p)
    if x is not None:
        _check_int(x, "x")
        if not 0 <= x <= trials:
            raise ValueError(f"x={x} outside support [0, {trials}]")


@lru_cache(maxsize=512, typed=True)
def _pmf_vector(trials: int, p: float) -> np.ndarray:
    """Full probability mass vector of Bin(trials, p), mode-seeded."""
    if trials == 0:
        out = np.array([1.0])
        out.setflags(write=False)
        return out
    n = trials
    mode = min(max(int((n + 1) * p), 0), n)
    log_mode = (
        math.lgamma(n + 1)
        - math.lgamma(mode + 1)
        - math.lgamma(n - mode + 1)
        + mode * math.log(p)
        + (n - mode) * math.log1p(-p)
    )
    out = np.empty(n + 1)
    out[mode] = math.exp(log_mode)
    odds = p / (1.0 - p)
    if mode < n:
        x = np.arange(mode, n)
        out[mode + 1 :] = out[mode] * np.cumprod((n - x) / (x + 1) * odds)
    if mode > 0:
        x = np.arange(mode, 0, -1)
        out[mode - 1 :: -1] = out[mode] * np.cumprod(x / (n - x + 1) / odds)
    out.setflags(write=False)
    return out


def cdf(x: int, trials: int, p: float) -> float:
    """F(x; trials, p) = Pr(X <= x), accumulated with compensated summation."""
    _check(trials, p, x)
    if x == trials:
        return 1.0
    # fsum rounds the exact sum once, so term order is free: largest first is fastest
    return min(1.0, math.fsum(np.sort(_pmf_vector(trials, p)[: x + 1])[::-1].tolist()))


def percent_point(alpha: float, trials: int, p: float) -> int:
    """Smallest integer x with F(x; trials, p) strictly greater than alpha: the
    last entry of minimum_counts(trials, p, alpha), read from the same walk in
    O(trials).  It is the minimum protected count at which a prefix of this
    length passes the fair-representation test at significance alpha.
    """
    _check(trials, p)
    counts = minimum_counts(max(trials, 1), p, alpha)
    return int(counts[-1]) if trials else 0  # F(0; 0, p) = 1 > alpha


def _check_args(k: int, p: float, alpha: float, name: str = "alpha") -> None:
    _check_int(k, "k")
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_prob(p)
    _check_prob(alpha, name)


def _exact(c: int, i: int, p: float) -> tuple:
    """(F(c; i, p), Pr(X = c; i, p)) from the mode-seeded vector."""
    return cdf(c, i, p), float(_pmf_vector(i, p)[c])


def _walked(k: int, p: float, alpha: float):
    """(minimum_counts(k, p, alpha), F(m(i); i, p), Pr(X = m(i); i, p)) from one
    walk of the trial count, bumping the count while the carried cdf is <= alpha.

    F(c; i, p) and Pr(X = c; i, p) are carried while the trial count i and
    the count c each grow by one, with the one-step identities

        F(c; i, p)     = F(c; i-1, p) - p * pmf(c; i-1, p)
        pmf(c; i, p)   = pmf(c; i-1, p) * (1-p) * i / (i - c)
        pmf(c+1; i, p) = pmf(c; i, p) * (i - c) / (c + 1) * p / (1-p)
        F(c+1; i, p)   = F(c; i, p) + pmf(c+1; i, p)

    and taken afresh from ``_exact`` every ``_REFRESH_EVERY`` trials;
    comparisons within ``_BOUNDARY_EPS`` of alpha are re-decided exactly."""
    q = 1.0 - p
    odds, every = p / q, _REFRESH_EVERY
    c, F, f = 0, 1.0, 1.0  # Bin(0, p) puts all its mass on 0
    out = np.empty(k, dtype=np.int64)
    cdfs, pmfs = np.empty(k), np.empty(k)
    for i in range(1, k + 1):
        if i > 1 and (i - 1) % every == 0:
            F, f = _exact(c, i - 1, p)
        F -= p * f
        f *= q * i / (i - c)
        if abs(F - alpha) < _BOUNDARY_EPS:
            F, f = _exact(c, i, p)
        while F <= alpha:
            c += 1
            f *= (i - c + 1) / c * odds
            F += f
            if abs(F - alpha) < _BOUNDARY_EPS:
                F, f = _exact(c, i, p)
        out[i - 1], cdfs[i - 1], pmfs[i - 1] = c, F, f
    out.setflags(write=False)
    return out, cdfs, pmfs


def _exactly_near(values: np.ndarray, counts: np.ndarray, trials: np.ndarray,
                  p: float, alpha: float, where: np.ndarray) -> np.ndarray:
    """values, where values[j] is a carried F(counts[j]; trials[j], p), with each
    entry selected by ``where`` that lies within ``_BOUNDARY_EPS`` of alpha
    replaced, in place, by the exact cdf."""
    near = where & (np.abs(values - alpha) < _BOUNDARY_EPS)
    for j in np.flatnonzero(near).tolist():
        values[j] = cdf(int(counts[j]), int(trials[j]), p)
    return values


class _Tables:
    """minimum_counts(k, p, alpha) and its plateau for a sequence of alphas.

    The first table is walked (O(k) Python steps).  Each later one is derived
    from the previous table's minima and carried F(m(i); i, p) and
    Pr(X = m(i); i, p): every count moves toward the new alpha with _walked's
    one-step identities at fixed trial count, vectorized over positions, so a
    derivation costs a few numpy operations per step of the count that moves
    farthest.  Comparisons within ``_BOUNDARY_EPS`` of alpha are re-decided
    with ``cdf``, as in the walk, so each table equals ``minimum_counts``.

    Each step adds a few roundings (2^-53 relative) to the carried pmf and
    one to the carried cdf, so s steps move the carried cdf by at most about
    2 s^2 2^-53 from the walked one.  The table is walked afresh instead of
    letting any count step more than ``_REFRESH_EVERY`` = 256 times since
    its last walk, which keeps that below 1.5e-11, far inside
    ``_BOUNDARY_EPS``; the plateau's candidates, read within
    ``_BOUNDARY_EPS`` of each end, therefore hold its exact ends.
    """

    def __init__(self, k: int, p: float):
        self.k, self.p, self.odds = k, p, p / (1.0 - p)
        self.trials = np.arange(1, k + 1)
        self.alpha = None

    def at(self, alpha: float):
        """(minimum_counts(self.k, self.p, alpha), its plateau)."""
        if self.alpha is None or not self._derive(alpha):
            self.minima, self.cdfs, self.pmfs = _walked(self.k, self.p, alpha)
            self.steps = 0
        self.alpha = alpha
        return self.minima, _plateau(self.minima, self.p, self.cdfs, self.pmfs)

    def _derive(self, alpha: float) -> bool:
        """Move the table to alpha, or False if a count would step too often."""
        m, F, f = self.minima, self.cdfs.copy(), self.pmfs
        i, p, odds = self.trials, self.p, self.odds
        budget = _REFRESH_EVERY - self.steps  # the farthest any count may still move
        if alpha >= self.alpha:  # counts only rise: bump while F(m; i) <= alpha
            moving = np.ones(self.k, dtype=bool)
            for steps in range(budget + 1):
                moving &= _exactly_near(F, m, i, p, alpha, moving) <= alpha
                if not moving.any():
                    break
                f = np.where(moving, f * ((i - m) / (m + 1) * odds), f)
                m = m + moving
                F = np.where(moving, F + f, F)
            else:
                return False
        else:  # counts only fall: drop while F(m-1; i) > alpha
            moving = m > 0
            for steps in range(budget + 1):
                below = _exactly_near(F - f, m - 1, i, p, alpha, moving)
                moving &= below > alpha
                if not moving.any():
                    break
                f = np.where(moving, f * (m / (i - m + 1) / odds), f)
                m = m - moving
                F = np.where(moving, below, F)
                moving &= m > 0
            else:
                return False
        self.steps += steps
        m.setflags(write=False)
        self.minima, self.cdfs, self.pmfs = m, F, f
        return True


def minimum_counts(k: int, p: float, alpha: float) -> np.ndarray:
    """m(i) for every prefix length i = 1..k: the smallest count x with
    F(x; i, p) strictly greater than alpha, from one O(k) walk whose decisions
    within ``_BOUNDARY_EPS`` of alpha are re-decided with ``cdf``."""
    _check_args(k, p, alpha)
    return _walked(k, p, alpha)[0]


def _carried_along(counts, p: float):
    """(F(c_i; i, p), Pr(X = c_i; i, p)) for i = 1..k along a count path.

    ``counts[i-1]`` is the count at trial i; it starts at 0 or 1 and grows by
    0 or 1 per trial, like a prefix count of protected flags or a table of
    minimum counts.  These are the values _walked's one-step identities
    carry when each trial is followed by a step of the count wherever the
    path steps, computed one array pass per segment of ``_REFRESH_EVERY``
    trials.  Each segment is seeded as the walk's refresh seeds it: Bin(0, p)
    for the first, the exact cdf and pmf for the others.  Its pmfs are one
    np.multiply.accumulate over the interleaved trial and count factors, and
    its cdfs one np.add.accumulate over the interleaved -p*pmf and +pmf
    increments.  Both are sequential left folds, so every value equals the
    walk's bit for bit.

    Cost: O(k) in about twenty numpy calls, plus two accumulations and one
    exact cdf and pmf per later segment.
    """
    counts = np.asarray(counts, dtype=np.int64)
    k, every = counts.shape[0], _REFRESH_EVERY
    q, odds = 1.0 - p, p / (1.0 - p)
    steps = np.diff(counts, prepend=0)  # 1 where the count steps at trial i, else 0
    i = np.arange(1, k + 1)
    # each segment holds its seed, then each trial's operation and, where the
    # count steps, the count's; last[i-1] indexes trial i's last operation
    last = np.cumsum(steps + 1)
    last += np.arange(k) // every
    trial = last - steps
    stepped = steps == 1
    count = last[stepped]
    factors = np.empty(last[-1] + 1)
    factors[trial] = q * i / (i - counts + steps)  # counts - steps: the count before trial i
    factors[count] = (i[stepped] - counts[stepped] + 1) / counts[stepped] * odds
    increments = np.empty_like(factors)
    seeds = [0, *(last[every - 1 : k - 1 : every] + 1).tolist()]
    factors[0] = increments[0] = 1.0  # Bin(0, p) puts all its mass on 0
    for at, trials in zip(seeds[1:], range(every, k, every)):
        c = int(counts[trials - 1])
        increments[at], factors[at] = _exact(c, trials, p)
    segments = list(zip(seeds, seeds[1:] + [len(factors)]))
    running = np.empty_like(factors)
    for a, b in segments:
        np.multiply.accumulate(factors[a:b], out=running[a:b])
    increments[trial] = -(p * running[trial - 1])
    increments[count] = running[count]
    for a, b in segments:
        np.add.accumulate(increments[a:b], out=increments[a:b])
    return increments[last], running[last]


def _plateau(minima: np.ndarray, p: float, upper: np.ndarray, pmfs: np.ndarray) -> tuple:
    """[max_i F(m(i)-1; i, p), min_i F(m(i); i, p)) from F(m(i); i, p) and
    Pr(X = m(i); i, p) carried along the table (their difference is F(m(i)-1)).
    Positions within ``_BOUNDARY_EPS`` of an end are re-decided with the exact
    cdf, so the range is the one minimum_counts decides by."""
    lower = np.where(minima > 0, upper - pmfs, 0.0)
    near_upper = np.flatnonzero(upper < upper.min() + _BOUNDARY_EPS)
    near_lower = np.flatnonzero(lower > lower.max() - _BOUNDARY_EPS)
    return (
        max(cdf(int(minima[i]) - 1, i + 1, p) if minima[i] else 0.0 for i in near_lower),
        min(cdf(int(minima[i]), i + 1, p) for i in near_upper),
    )


def _path_steps(counts: np.ndarray) -> np.ndarray:
    """counts[0], then counts[i] - counts[i-1]: the steps of a count path,
    which must each be 0 or 1.  Every table of minimum counts is such a path,
    so no count exceeds its prefix length."""
    steps = np.diff(counts, prepend=0)
    if ((steps < 0) | (steps > 1)).any():
        raise ValueError("minima must start at 0 or 1 and rise by 0 or 1 per position")
    return steps


def table_plateau(minima, p: float) -> tuple:
    """The half-open range [lower, upper) of alpha with minimum_counts(k, p, alpha) == minima:
    max_i F(m(i)-1; i, p) <= alpha < min_i F(m(i); i, p), with F(-1) = 0.
    minima must be a count path (see _path_steps)."""
    minima = np.asarray(minima)
    _path_steps(minima)
    return _plateau(minima, p, *_carried_along(minima, p))
