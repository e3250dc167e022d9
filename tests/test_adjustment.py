"""Rejection-probability recursion and the multiple-test calibration."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fair_topk import (
    adjust_significance,
    adjustment,
    ranker,
    rejection_probability,
    simulate_rejection_rate,
)
from fair_topk.adjustment import FEASIBILITY_TOL, InfeasibleAdjustmentError, _table_rejection
from fair_topk.baselines import _seed_words, _trial_seeds, yang_stoyanovich_generate
from fair_topk.binomial import minimum_counts
from fair_topk.candidates import RankedSequence
from fair_topk.fairness import MTable
from exact import (
    convolved_rejection_probability,
    exact_rejection_probability,
    per_trial_simulation,
    stepwise_rejection_probability,
)


def enumerated_rejection(k: int, p: float, alpha_adj: float) -> float:
    """Exact rejection probability by summing over all 2^k flag sequences."""
    minima = minimum_counts(k, p, alpha_adj)
    total = 0.0
    for bits in itertools.product((0, 1), repeat=k):
        counts = itertools.accumulate(bits)
        if any(c < m for c, m in zip(counts, minima)):
            ones = sum(bits)
            total += p**ones * (1.0 - p) ** (k - ones)
    return total


def test_rejection_analytic_case():
    # only the full prefix requires a protected candidate, so rejection is
    # exactly the probability of drawing none: 0.5^4
    assert rejection_probability(4, 0.5, 0.1) == 0.0625


def test_rejection_zero_when_table_is_flat():
    assert rejection_probability(12, 0.1, 0.1) == 0.0
    assert rejection_probability(1, 0.5, 0.4) == 0.0


@pytest.mark.parametrize("k", [1, 2, 5, 8, 12])
@pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("alpha_adj", [0.05, 0.1, 0.2])
def test_rejection_matches_enumeration(k, p, alpha_adj):
    ours = rejection_probability(k, p, alpha_adj)
    exact = enumerated_rejection(k, p, alpha_adj)
    assert ours == pytest.approx(exact, abs=1e-12)


@pytest.mark.parametrize("k", [200, 1000, 2000])
@pytest.mark.parametrize("p", [0.02, 0.1, 0.5, 0.9])
def test_rejection_matches_the_per_position_recursion(k, p):
    # the block convolutions against the one-position-at-a-time survival
    # recursion; at p=0.02 the blocks run to tens of positions
    for alpha_adj in (1e-6, 1e-4, 0.1 / k, 0.01, 0.05, 0.2):
        minima = minimum_counts(k, p, alpha_adj)
        expected = stepwise_rejection_probability(minima, p)
        assert rejection_probability(k, p, alpha_adj) == pytest.approx(expected, rel=0, abs=1e-12)


def random_tables(rng, count):
    """Tables of every shape MTable admits: k from 1 to 2500, a zero run, then
    steps at a random rate, so blocks run from 1 to thousands of positions;
    a quarter of them at p <= 0.05, whose long final blocks test the cut."""
    for t in range(count):
        k = int(rng.integers(1, 4)) if t < 30 else int(rng.integers(1, 2501))
        p = float(rng.uniform(0.005, 0.05)) if t % 4 == 0 else float(rng.uniform(0.01, 0.99))
        steps = rng.random(k) < 10 ** rng.uniform(-3, 0)
        steps[: int(rng.integers(0, k + 1))] = False
        yield MTable(k, p, 0.1, np.cumsum(steps))


def test_cut_recursion_is_the_uncut_convolution_bit_for_bit():
    rng = np.random.default_rng(20261020)
    tables = list(random_tables(rng, 1000))
    tables += [MTable(k, p, a, minimum_counts(k, p, a)) for k in (1, 2, 3, 40, 1000)
               for p in (0.01, 0.05, 0.5, 0.95) for a in (1e-6, 0.0096, 0.3)]
    for table in tables:
        expected = convolved_rejection_probability(table.minima, table.p)
        assert _table_rejection(table) == expected, (table.k, table.p)


@pytest.mark.parametrize(
    "k, p, alpha_adj",
    [(200, 0.5, 1e-10), (400, 0.5, 1e-10), (600, 0.5, 1e-10), (400, 0.25, 1e-8)],
)
def test_small_rejection_keeps_its_relative_precision(k, p, alpha_adj):
    # 1 - sum(survivors) would cancel to about 1e-5 relative error here
    exact = exact_rejection_probability(minimum_counts(k, p, alpha_adj), p)
    assert rejection_probability(k, p, alpha_adj) == pytest.approx(float(exact), rel=1e-12, abs=0)


def test_rejection_monotone_in_alpha():
    grid = np.linspace(0.001, 0.3, 120)
    values = [rejection_probability(50, 0.5, float(a)) for a in grid]
    assert all(b >= a for a, b in zip(values, values[1:]))


@given(
    k=st.integers(1, 60),
    p=st.floats(0.1, 0.9),
    alpha_adj=st.floats(0.01, 0.3),
)
@settings(deadline=None, max_examples=60)
def test_rejection_is_sandwiched(k, p, alpha_adj):
    """Any single prefix test's failure rate bounds below; the union bound above."""
    from fair_topk.binomial import cdf

    rejection = rejection_probability(k, p, alpha_adj)
    assert 0.0 <= rejection < 1.0
    minima = minimum_counts(k, p, alpha_adj)
    single = max(
        (cdf(int(m) - 1, i, p) for i, m in enumerate(minima, 1) if m > 0),
        default=0.0,
    )
    assert rejection >= single - 1e-12
    assert rejection <= k * alpha_adj + 1e-12


def test_frozen_rejection_value_large_k():
    # derived with this recursion and cross-checked against enumeration at
    # small k; pinned to guard against regressions in the capped-vector walk
    assert rejection_probability(1000, 0.5, 0.01) == pytest.approx(
        0.10381094192357154, abs=1e-9
    )


def test_adjust_reaches_target_at_large_k():
    result = adjust_significance(1000, 0.5, 0.1)
    assert result.feasible
    assert 0.0 < result.alpha_adj <= 0.1
    assert result.alpha_adj == pytest.approx(0.0096, abs=2e-4)
    assert result.achieved_rejection_prob <= 0.1
    assert 0.1 - result.achieved_rejection_prob <= FEASIBILITY_TOL
    assert result.search_iterations > 0


def test_adjust_stays_below_target():
    """The search never overshoots: the returned value under-rejects."""
    for k, p in [(40, 0.5), (40, 0.7), (100, 0.3), (1500, 0.1)]:
        result = adjust_significance(k, p, 0.1)
        assert rejection_probability(k, p, result.alpha_adj) <= 0.1 + 1e-12
        assert result.achieved_rejection_prob <= 0.1 + 1e-12


def test_adjust_derived_value_small_k():
    # the calibrated crossing for k=40, p=0.5 (see the acceptance notes on
    # the divergent reference cell)
    result = adjust_significance(40, 0.5, 0.1)
    assert result.feasible
    assert result.alpha_adj == pytest.approx(0.03178, abs=1e-3)


def test_adjust_infeasible_cells_report_conservative_value():
    for k, p in [(40, 0.1), (100, 0.2)]:
        result = adjust_significance(k, p, 0.1)
        assert not result.feasible
        assert 0.0 < result.alpha_adj < 1.0  # still usable, under-rejecting
        assert result.achieved_rejection_prob < 0.1 - FEASIBILITY_TOL


def test_usable_refuses_only_a_table_that_rejects_more_than_the_target():
    under = adjust_significance(40, 0.7, 0.1)  # infeasible: rejects 0.097 < 0.1
    assert not under.feasible and under.usable() == under.alpha_adj
    over = adjust_significance(60, 0.5, 1e-11)  # the floor's table rejects 3.3e-10
    with pytest.raises(InfeasibleAdjustmentError) as excinfo:
        over.usable()
    assert str(excinfo.value) == (
        "no feasible alpha_adj for k=60 p=0.500000 alpha=1e-11: "
        "best achievable rejection 3.34398e-10 at alpha_adj=1e-10"
    )


def test_adjust_trivial_and_degenerate():
    # k=1, p=0.5: no alpha below 0.5 forces a protected candidate at the top,
    # so the rejection probability is stuck at zero
    result = adjust_significance(1, 0.5, 0.1)
    assert not result.feasible
    assert result.achieved_rejection_prob == 0.0


@given(k=st.integers(2, 80), p=st.floats(0.2, 0.8))
@settings(deadline=None, max_examples=40)
def test_adjust_achieved_matches_alpha_adj(k, p):
    """The reported pair is self-consistent with the recursion."""
    result = adjust_significance(k, p, 0.1)
    assert rejection_probability(k, p, result.alpha_adj) == pytest.approx(
        result.achieved_rejection_prob, abs=1e-12
    )
    assert result.achieved_rejection_prob <= 0.1 + 1e-12


def test_validation_errors():
    with pytest.raises(ValueError):
        rejection_probability(0, 0.5, 0.1)
    with pytest.raises(ValueError):
        rejection_probability(5, 1.0, 0.1)
    with pytest.raises(ValueError):
        adjust_significance(5, 0.5, 0.0)
    with pytest.raises(ValueError):
        simulate_rejection_rate(5, 0.5, 0.5, 0.1, 0)
    with pytest.raises(ValueError):
        simulate_rejection_rate(5, 0.5, 1.0, 0.1, 10)
    with pytest.raises(ValueError):
        simulate_rejection_rate(5, 0.5, 0.0, 0.1, 10)
    with pytest.raises(ValueError):
        simulate_rejection_rate(0, 0.5, 0.5, 0.1, 10)
    for k, trials, name in [(5.5, 10, "k"), (True, 10, "k"), (5, 2.5, "trials"),
                            (5, True, "trials"), (5, "10", "trials")]:
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            simulate_rejection_rate(k, 0.5, 0.5, 0.1, trials)


@pytest.mark.parametrize("seed", [-1, 1.5, None, "7", [3, -2], [[1]], [0.5], True, [1, False]])
def test_simulation_rejects_bad_seeds(seed):
    message = "seed must be a non-negative integer or a sequence of them"
    with pytest.raises(ValueError, match=message):
        simulate_rejection_rate(5, 0.5, 0.5, 0.1, 10, seed=seed)
    with pytest.raises(ValueError, match=message):
        yang_stoyanovich_generate(5, 0.5, seed=seed)


@pytest.mark.parametrize(
    "base",
    [[0], [2**32 - 1], [2**32], [2**64 + 5], [np.uint64(2**63)], [0, 2**40],
     [np.int8(3), 2**96]],
)
@pytest.mark.parametrize("t", [0, 1, 2**32 - 1, 2**32, 2**33 + 7])
def test_trial_seed_rows_draw_the_streams_of_their_integer_seeds(base, t):
    words = _seed_words(base)
    scratch = np.empty((1, words.size + 1), dtype=np.uint32)
    row = _trial_seeds(words, t, t + 1, scratch)[0]
    assert isinstance(row, np.ndarray) and row.dtype == np.uint32
    np.testing.assert_array_equal(
        np.random.default_rng(row).random(8), np.random.default_rng(base + [t]).random(8)
    )


def test_trial_seed_rows_across_the_second_word():
    words = _seed_words([7, 2**33])
    start, stop = 2**32 - 2, 2**32 + 2
    rows = _trial_seeds(words, start, stop, np.empty((4, words.size + 1), dtype=np.uint32))
    assert [len(row) for row in rows] == [4, 4, 5, 5]
    for t, row in zip(range(start, stop), rows):
        np.testing.assert_array_equal(
            np.random.default_rng(row).random(4), np.random.default_rng([7, 2**33, t]).random(4)
        )


def test_simulation_seeds_each_trial_from_uint32_words(monkeypatch):
    seeds, default_rng = [], np.random.default_rng

    def spy(seed):
        seeds.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", spy)
    simulate_rejection_rate(100, 0.5, 0.5, 0.05, trials=200, seed=[3, 2**40])
    assert len(seeds) == 200
    assert all(isinstance(s, np.ndarray) and s.dtype == np.uint32 for s in seeds)


def test_simulation_is_deterministic_and_calibrated():
    a = simulate_rejection_rate(20, 0.5, 0.5, 0.1, trials=4000, seed=11)
    b = simulate_rejection_rate(20, 0.5, 0.5, 0.1, trials=4000, seed=11)
    assert a == b
    assert a.trials == 4000
    assert a.estimate == a.rejections / a.trials
    assert a.stderr == pytest.approx(
        math.sqrt(a.estimate * (1 - a.estimate) / a.trials), abs=1e-12
    )
    analytic = rejection_probability(20, 0.5, 0.1)
    sigma = math.sqrt(analytic * (1 - analytic) / 4000)
    assert abs(a.estimate - analytic) <= 4 * sigma

    c = simulate_rejection_rate(20, 0.5, 0.5, 0.1, trials=4000, seed=12)
    assert c != a  # different stream


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 60),
    block_values=st.integers(1, 240),
    p_generator=st.floats(0.05, 0.95),
    p_test=st.floats(0.05, 0.95),
    alpha_adj=st.floats(0.001, 0.5),
    seed=st.one_of(
        st.integers(0, 2**40), st.lists(st.integers(0, 2**40), min_size=1, max_size=3)
    ),
    data=st.data(),
)
def test_simulation_equals_per_trial_verification(
    k, block_values, p_generator, p_test, alpha_adj, seed, data
):
    # small blocks, so that a few dozen trials cross up to three block boundaries
    assume(p_generator != p_test)
    per_block = max(1, block_values // k)
    trials = data.draw(st.integers(1, 3 * per_block + 1), label="trials")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ranker, "_BLOCK_ROWS", block_values)
        simulated = simulate_rejection_rate(k, p_generator, p_test, alpha_adj, trials, seed)
    assert simulated == per_trial_simulation(k, p_generator, p_test, alpha_adj, trials, seed)


@pytest.mark.parametrize("k,trials", [(1000, 33), (5000, 7), (2**14 - 1, 3), (2**14, 3),
                                      (2**14 + 1, 2), (20000, 4)])
def test_simulation_equals_per_trial_verification_in_full_blocks(k, trials):
    # 16 trials a block at k = 1000, 3 at k = 5000, and one from k = 2^14 - 1 up
    for p_generator, p_test, alpha_adj in [(0.5, 0.5, 0.01), (0.3, 0.35, 0.05)]:
        assert simulate_rejection_rate(
            k, p_generator, p_test, alpha_adj, trials, seed=[k, 5]
        ) == per_trial_simulation(k, p_generator, p_test, alpha_adj, trials, [k, 5])


def test_simulation_draws_its_trials_in_blocks_of_at_most_2_14_values(monkeypatch):
    shapes, draw = [], adjustment._draw_flags

    def spy(p, seeds, out):
        shapes.append(out.shape)
        return draw(p, seeds, out)

    monkeypatch.setattr(adjustment, "_draw_flags", spy)
    simulate_rejection_rate(1000, 0.5, 0.5, 0.01, trials=40)
    simulate_rejection_rate(20000, 0.5, 0.5, 0.01, trials=2)
    simulate_rejection_rate(10, 0.5, 0.5, 0.1, trials=3)
    assert shapes == [(16, 1000), (16, 1000), (8, 1000), (1, 20000), (1, 20000), (3, 10)]


def test_simulation_builds_no_ranking(monkeypatch):
    built = []
    init, from_flags = RankedSequence.__init__, RankedSequence.from_flags

    def counted_init(self, *args, **kwargs):
        built.append("init")
        init(self, *args, **kwargs)

    def counted_from_flags(flags):
        built.append("from_flags")
        return from_flags(flags)

    monkeypatch.setattr(RankedSequence, "__init__", counted_init)
    monkeypatch.setattr(RankedSequence, "from_flags", staticmethod(counted_from_flags))
    simulate_rejection_rate(200, 0.3, 0.5, 0.02, trials=50, seed=[4, 2])
    assert built == []
    yang_stoyanovich_generate(5, 0.5, seed=1)  # the counter does see a ranking
    assert built == ["from_flags"]


def test_simulation_detects_unfair_generator():
    """Generating with a smaller proportion than tested inflates rejections."""
    biased = simulate_rejection_rate(100, 0.3, 0.5, 0.02, trials=800, seed=5)
    fair = simulate_rejection_rate(100, 0.5, 0.5, 0.02, trials=800, seed=5)
    assert biased.estimate > fair.estimate + 0.3
