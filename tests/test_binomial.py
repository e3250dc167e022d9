"""Binomial primitives against exact rational arithmetic."""
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fair_topk import binomial
from fair_topk.adjustment import adjust_significance, rejection_probability
from fair_topk.binomial import _pmf_vector, cdf, minimum_counts, percent_point
from fair_topk.candidates import RankedSequence
from fair_topk.fairness import compute_mtable, ranked_group_fairness_measure
from exact import walked_along, walked_table

# Fraction(float) is the float's exact binary value, so the oracle sees the
# same parameter the implementation does and 1e-12 is a pure-roundoff budget.
PS = (0.1, 0.25, 0.4, 0.5, 0.75, 0.9)


def exact_pmf(x: int, n: int, p: Fraction) -> Fraction:
    return math.comb(n, x) * p**x * (1 - p) ** (n - x)


def exact_cdf(x: int, n: int, p: Fraction) -> Fraction:
    return sum(exact_pmf(t, n, p) for t in range(x + 1))


@pytest.mark.parametrize("p", PS)
def test_pmf_matches_exact_fractions(p):
    pf = Fraction(p)
    for n in (0, 1, 2, 7, 19, 30):
        for x in range(n + 1):
            assert _pmf_vector(n, p)[x] == pytest.approx(float(exact_pmf(x, n, pf)), abs=1e-12)


@pytest.mark.parametrize("p", PS)
def test_cdf_matches_exact_fractions(p):
    pf = Fraction(p)
    for n in (1, 5, 17, 30):
        for x in range(n + 1):
            assert cdf(x, n, p) == pytest.approx(float(exact_cdf(x, n, pf)), abs=1e-12)


def test_frozen_reference_values():
    # exact decimals for p = 2/5 (terminating): 9C2*(2/5)^2*(3/5)^7 etc.
    assert _pmf_vector(9, 0.4)[2] == pytest.approx(0.161243136, abs=1e-12)
    assert cdf(1, 9, 0.4) == pytest.approx(0.070543872, abs=1e-12)
    assert cdf(0, 1, 0.5) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("n", [1, 5, 37, 256, 2000])
@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
def test_pmf_vector_is_a_distribution(n, p):
    vec = _pmf_vector(n, p)
    assert vec.shape == (n + 1,)
    assert not vec.flags.writeable  # the vector is cached and shared
    assert (vec >= 0.0).all()
    # the mode-seeded recurrence drifts by O(n) ulps across the far tail
    assert math.fsum(vec) == pytest.approx(1.0, abs=5e-15 * n + 1e-13)
    assert cdf(n, n, p) == 1.0


@given(
    n=st.integers(1, 200),
    p=st.floats(0.01, 0.99),
    alpha=st.floats(0.001, 0.999),
)
@settings(deadline=None)
def test_percent_point_is_smallest_count_exceeding_alpha(n, p, alpha):
    x = percent_point(alpha, n, p)
    assert 0 <= x <= n
    assert cdf(x, n, p) > alpha
    assert x == 0 or cdf(x - 1, n, p) <= alpha


def test_percent_point_spot_values():
    # verified twelfth-position minima at alpha = 0.1
    assert percent_point(0.1, 12, 0.4) == 3
    assert percent_point(0.1, 12, 0.5) == 4
    assert percent_point(0.1, 12, 0.7) == 6
    # F(0; 1, 0.5) = 0.5 <= 0.6 forces one success
    assert percent_point(0.6, 1, 0.5) == 1
    # no trials: F(0; 0, p) = 1 exceeds every alpha
    assert percent_point(0.6, 0, 0.5) == 0


@pytest.mark.parametrize(
    "k,p,alpha",
    [
        (500, 0.5, 0.1),
        (1500, 0.1, 0.0122),
        (300, 0.98, 0.05),
        (300, 0.02, 0.2),
        (257, 0.3, 0.1),  # crosses the periodic refresh point
    ],
)
def test_minimum_counts_matches_percent_point_exactly(k, p, alpha):
    # percent_point reads the table's last entry, so each prefix is checked
    # against the definition instead: F(m-1; i, p) <= alpha < F(m; i, p)
    counts = minimum_counts(k, p, alpha)
    for i, m in enumerate(counts.tolist(), start=1):
        assert m == 0 or cdf(m - 1, i, p) <= alpha, i
        assert alpha < cdf(m, i, p), i
    assert percent_point(alpha, k, p) == counts[-1]


@given(
    k=st.integers(1, 400),
    p=st.floats(0.02, 0.98),
    alpha=st.floats(0.005, 0.5),
)
@settings(deadline=None, max_examples=60)
def test_minimum_counts_shape_properties(k, p, alpha):
    counts = minimum_counts(k, p, alpha)
    assert counts.shape == (k,)
    steps = np.diff(counts, prepend=0)
    assert ((steps == 0) | (steps == 1)).all()
    assert (counts <= np.arange(1, k + 1)).all()


@given(k=st.integers(1, 150), p=st.floats(0.05, 0.95))
@settings(deadline=None, max_examples=40)
def test_minimum_counts_monotone_in_alpha(k, p):
    low = minimum_counts(k, p, 0.05)
    high = minimum_counts(k, p, 0.2)
    assert (high >= low).all()


def test_parameter_validation():
    with pytest.raises(ValueError, match="trials must be non-negative"):
        cdf(0, -1, 0.5)
    for p in (0.0, 1.0):
        for call in (lambda: cdf(0, 3, p), lambda: percent_point(0.1, 3, p)):
            with pytest.raises(ValueError, match=r"p must lie in the open interval \(0, 1\)"):
                call()
    with pytest.raises(ValueError, match="trials must be non-negative"):
        percent_point(0.1, -1, 0.5)
    with pytest.raises(ValueError, match=r"x=4 outside support \[0, 3\]"):
        cdf(4, 3, 0.5)
    with pytest.raises(ValueError, match=r"x=-1 outside support"):
        cdf(-1, 3, 0.5)
    with pytest.raises(ValueError):
        percent_point(0.0, 3, 0.5)
    with pytest.raises(ValueError):
        minimum_counts(0, 0.5, 0.1)
    assert len(minimum_counts(np.int64(10), 0.5, 0.1)) == 10  # numpy integers are integers


# The pmf cases warm the pmf cache itself, which trusts its callers to have
# checked the arguments; the validating callers must still refuse.
@pytest.mark.parametrize("call, warm_call, message", [
    (lambda: cdf(3, 10.0, 0.5), lambda: cdf(3, 10, 0.5), "trials must be an integer, not 10.0"),
    (lambda: cdf(3, 10.0, 0.5), lambda: _pmf_vector(10, 0.5),
     "trials must be an integer, not 10.0"),
    (lambda: percent_point(0.1, 10.0, 0.5), lambda: _pmf_vector(10, 0.5),
     "trials must be an integer, not 10.0"),
    (lambda: cdf(0, True, 0.5), lambda: _pmf_vector(1, 0.5),
     "trials must be an integer, not True"),
    (lambda: percent_point(0.1, 10.0, 0.5), lambda: percent_point(0.1, 10, 0.5),
     "trials must be an integer, not 10.0"),
    (lambda: cdf(2.5, 10, 0.5), lambda: cdf(2, 10, 0.5), "x must be an integer, not 2.5"),
    (lambda: cdf(True, 10, 0.5), lambda: cdf(1, 10, 0.5), "x must be an integer, not True"),
    (lambda: cdf(3.0, 10, 0.5), lambda: _pmf_vector(10, 0.5), "x must be an integer, not 3.0"),
], ids=["cdf", "pmf", "pmf_vector", "pmf_vector-bool", "percent_point", "cdf-x", "cdf-x-bool",
        "pmf-x"])
@pytest.mark.parametrize("warm", [False, True])
def test_trials_and_x_must_be_integers_whatever_the_cache_holds(call, warm_call, message, warm):
    # the pmf cache keys 10.0 and 10, or True and 1, alike unless it is typed
    binomial._pmf_vector.cache_clear()
    if warm:
        warm_call()
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
    assert cdf(np.int64(3), np.int64(10), 0.5) == cdf(3, 10, 0.5)  # numpy integers are integers


@pytest.mark.parametrize("call", [adjust_significance, minimum_counts, rejection_probability,
                                  compute_mtable])
@pytest.mark.parametrize("k", [10.0, 10.5, True])
@pytest.mark.parametrize("warm", [False, True])
def test_k_must_be_an_integer_whatever_the_cache_holds(call, k, warm):
    # the table cache keys 10.0 and 10, or True and 1, alike unless it is typed
    compute_mtable.cache_clear()
    if warm:
        call(int(k), 0.5, 0.1)
    with pytest.raises(ValueError, match=re.escape(f"k must be an integer, not {k!r}")):
        call(k, 0.5, 0.1)


# lengths around the refresh every 256 trials; p near 0, in between, near 1
CARRIED_KS = (1, 255, 256, 257, 512, 513, 1000)
CARRIED_PS = (1e-6, 0.01, 0.37, 0.99, 1 - 1e-6)


def count_paths(k: int, p: float):
    """Prefix counts of random flags whose first flag is 0, then 1, and the
    minimum-count tables at two significances."""
    rng = np.random.default_rng(k)
    for first in (0, 1):
        flags = rng.random(k) < rng.choice([p, 0.5])
        flags[0] = first
        yield np.cumsum(flags)
    for alpha in (0.1, 1e-4):
        yield minimum_counts(k, p, alpha)


def assert_same_bits(got, expected):
    assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]


@pytest.mark.parametrize("k", CARRIED_KS)
@pytest.mark.parametrize("p", CARRIED_PS)
def test_carried_values_are_the_walks_bit_for_bit(k, p):
    for counts in count_paths(k, p):
        assert counts[0] in (0, 1)
        assert_same_bits(binomial._carried_along(counts, p), walked_along(counts, p))


def test_carried_values_refresh_where_the_walk_does(monkeypatch):
    monkeypatch.setattr(binomial, "_REFRESH_EVERY", 3)
    for k in (1, 2, 3, 4, 6, 7, 100):
        for counts in count_paths(k, 0.4):
            assert_same_bits(binomial._carried_along(counts, 0.4), walked_along(counts, 0.4))


WALKED_ALPHAS = (0.125, 0.1, 0.05, 0.0203, 1e-4, 1e-8)


@pytest.mark.parametrize("k", [1, 10, 100, 257, 1000, 1500])
def test_walked_tables_are_the_scalar_walks_bit_for_bit(k):
    for p in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        for alpha in WALKED_ALPHAS:
            assert_same_bits(binomial._walked(k, p, alpha), walked_table(k, p, alpha))


def test_walked_tables_refresh_where_the_scalar_walk_does(monkeypatch):
    monkeypatch.setattr(binomial, "_REFRESH_EVERY", 3)
    for k in (1, 2, 3, 4, 6, 7, 100):
        for alpha in WALKED_ALPHAS:
            assert_same_bits(binomial._walked(k, 0.4, alpha), walked_table(k, 0.4, alpha))


@pytest.mark.parametrize("k", CARRIED_KS)
@pytest.mark.parametrize("p", CARRIED_PS)
def test_measure_and_plateau_read_the_walks_values(k, p):
    for counts in count_paths(k, p):
        cdfs, pmfs = walked_along(counts, p)
        flags = np.diff(counts, prepend=0).astype(bool)
        measure = ranked_group_fairness_measure(RankedSequence.from_flags(flags), p)
        assert measure == float(min(cdfs.min(), 1.0))
        assert binomial.table_plateau(counts, p) == binomial._plateau(counts, p, cdfs, pmfs)


def test_plateau_refuses_a_count_that_is_not_a_path():
    # [0, 2, 2] once gave a plateau that no table has
    for counts in ([0, 2, 2], [2, 2, 3], [1, 1, 0], [0, 1, 2, 1]):
        with pytest.raises(ValueError, match="rise by 0 or 1"):
            binomial.table_plateau(counts, 0.5)
