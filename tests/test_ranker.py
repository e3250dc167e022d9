"""Ranker tests: color-blind reference behaviour, the constrained ranking,
tie rules, supply exhaustion, parity with the greedy walk, and optimality
against the brute-force oracle."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fair_topk.binomial import minimum_counts
from fair_topk.candidates import CandidatePool
from fair_topk.fairness import compute_mtable, verify_ranked_group_fairness
from fair_topk.ranker import InfeasibleRankingError, color_blind_topk, fair_topk

from exact import best_feasible, evaluate_ranking_raw, greedy_fair_topk
from pools import ACROSS_BLOCKS, ID_KINDS, tied_pools


def make_pool(rng, n, n_protected):
    """Random pool with continuous scores (ties have probability zero)."""
    flags = np.zeros(n, dtype=bool)
    flags[rng.choice(n, size=n_protected, replace=False)] = True
    return CandidatePool(np.arange(1, n + 1), rng.random(n), flags)


# ---------------------------------------------------------------------------
# color-blind reference

def test_color_blind_picks_best_scores():
    pool = CandidatePool([1, 2, 3], [0.9, 0.5, 0.8], [False, True, False])
    top = color_blind_topk(pool, 2)
    assert top.ids.tolist() == [1, 3]
    assert top.scores.tolist() == [0.9, 0.8]


def test_color_blind_breaks_ties_by_ascending_id():
    pool = CandidatePool([7, 3, 5, 1], [0.4, 0.4, 0.4, 0.4], [0, 1, 0, 1])
    assert color_blind_topk(pool, 2).ids.tolist() == [1, 3]


def test_color_blind_full_length_is_a_sort():
    rng = np.random.default_rng(3)
    pool = make_pool(rng, 25, 10)
    full = color_blind_topk(pool, 25)
    assert (np.diff(full.scores) <= 0).all()
    assert sorted(full.ids.tolist()) == pool.ids.tolist()


@pytest.mark.parametrize("k", [0, -1, 4])
def test_color_blind_rejects_bad_k(k):
    pool = CandidatePool([1, 2, 3], [0.3, 0.2, 0.1], [1, 0, 0])
    with pytest.raises(ValueError):
        color_blind_topk(pool, k)


def test_partial_tie_on_boundary_resolved_by_id():
    # three candidates tied on the k-th-largest score, one slot left for them
    pool = CandidatePool([1, 2, 3, 4, 5], [0.9, 0.5, 0.5, 0.5, 0.7], [0] * 5)
    top = color_blind_topk(pool, 3)
    assert top.ids.tolist() == [1, 5, 2]


# ---------------------------------------------------------------------------
# constrained ranking: worked examples

def test_worked_example_forces_protected_at_position_four():
    # m(4) = 1 at p=0.5, alpha_adj=0.1: the best protected candidate displaces
    # the fourth non-protected one even though her score is lower.
    pool = CandidatePool(
        [1, 2, 3, 4, 5, 6],
        [0.9, 0.8, 0.7, 0.6, 0.5, 0.4],
        [False, False, False, False, True, True],
    )
    assert compute_mtable(4, 0.5, 0.1).minima.tolist() == [0, 0, 0, 1]
    ranking = fair_topk(pool, 4, 0.5, 0.1)
    assert ranking.entries.ids.tolist() == [1, 2, 3, 5]
    assert ranking.entries.scores.tolist() == [0.9, 0.8, 0.7, 0.5]
    assert ranking.satisfied_up_to == 4


def test_cross_group_tie_prefers_protected():
    pool = CandidatePool([1, 2, 3], [0.7, 0.7, 0.6], [False, True, False])
    ranking = fair_topk(pool, 2, 0.5, 0.1)  # no pressure: minima [0, 0]
    assert ranking.entries.ids.tolist() == [2, 1]
    # while the color-blind rule resolves the same tie by ascending id
    assert color_blind_topk(pool, 2).ids.tolist() == [1, 2]


def test_zero_mtable_matches_color_blind_on_tie_free_pools():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(2, 40))
        k = int(rng.integers(1, n + 1))
        pool = make_pool(rng, n, int(rng.integers(0, n + 1)))
        assert minimum_counts(k, 0.05, 0.01).max() == 0  # precondition
        fair = fair_topk(pool, k, 0.05, 0.01).entries
        blind = color_blind_topk(pool, k)
        assert np.array_equal(fair.ids, blind.ids)
        assert np.array_equal(fair.scores, blind.scores)
        assert np.array_equal(fair.protected, blind.protected)


def test_mtable_used_matches_parameters():
    pool = make_pool(np.random.default_rng(5), 30, 15)
    ranking = fair_topk(pool, 10, 0.5, 0.1)
    expected = compute_mtable(10, 0.5, 0.1)
    assert ranking.mtable_used.k == 10
    assert np.array_equal(ranking.mtable_used.minima, expected.minima)


@pytest.mark.parametrize("k", [0, 9])
def test_fair_topk_rejects_bad_k(k):
    pool = CandidatePool([1, 2, 3], [0.3, 0.2, 0.1], [1, 0, 0])
    with pytest.raises(ValueError):
        fair_topk(pool, k, 0.5, 0.1)


# ---------------------------------------------------------------------------
# supply exhaustion

def exhausted_pool():
    # one protected candidate, far less than p=0.7 demands over k=6
    return CandidatePool(
        np.arange(1, 11),
        np.linspace(1.0, 0.1, 10),
        [False] * 9 + [True],
    )


def test_exhausted_supply_reports_satisfied_prefix():
    minima = minimum_counts(6, 0.7, 0.1)
    assert minima.tolist() == [0, 1, 1, 2, 2, 3]
    ranking = fair_topk(exhausted_pool(), 6, 0.7, 0.1)
    counts = ranking.entries.protected_prefix_counts()
    # one protected candidate can satisfy prefixes 1..3 but not 4
    assert ranking.satisfied_up_to == 3
    assert (counts[:3] >= minima[:3]).all()
    assert counts[3] < minima[3]
    # the tail is still filled with the best remaining candidates
    assert len(ranking.entries) == 6


def test_exhausted_supply_strict_raises_with_context():
    with pytest.raises(InfeasibleRankingError) as excinfo:
        fair_topk(exhausted_pool(), 6, 0.7, 0.1, strict=True)
    assert excinfo.value.satisfied_up_to == 3
    assert excinfo.value.k == 6
    assert isinstance(excinfo.value, ValueError)


def test_strict_passes_when_supply_suffices():
    pool = make_pool(np.random.default_rng(8), 40, 25)
    ranking = fair_topk(pool, 12, 0.5, 0.1, strict=True)
    assert ranking.satisfied_up_to == 12


# ---------------------------------------------------------------------------
# structural properties on random pools

@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(2, 60),
    p=st.sampled_from([0.2, 0.4, 0.5, 0.7]),
    alpha=st.sampled_from([0.05, 0.1, 0.15]),
)
def test_fair_output_properties(seed, n, p, alpha):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, n + 1))
    pool = make_pool(rng, n, int(rng.integers(0, n + 1)))
    ranking = fair_topk(pool, k, p, alpha)
    entries = ranking.entries
    minima = minimum_counts(k, p, alpha)
    counts = entries.protected_prefix_counts()

    assert len(entries) == k
    assert len(np.unique(entries.ids)) == k

    # in-group monotonicity: each group's scores are non-increasing
    for group in (entries.protected, ~entries.protected):
        scores = entries.scores[group]
        assert (np.diff(scores) <= 0).all()

    # score inversions only happen to force a protected candidate upward
    for i in range(k):
        for j in range(i + 1, k):
            if entries.scores[i] < entries.scores[j]:
                assert entries.protected[i] and not entries.protected[j]

    # the satisfied prefix is exactly where the table holds
    upto = ranking.satisfied_up_to
    assert (counts[:upto] >= minima[:upto]).all()
    if upto < k:
        assert counts[upto] < minima[upto]
        assert int(pool.protected.sum()) == counts[-1]  # ran out of supply
    else:
        assert verify_ranked_group_fairness(entries, p, alpha).fair


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    p=st.sampled_from([0.2, 0.4, 0.5, 0.7]),
    alpha=st.sampled_from([0.05, 0.1, 0.15]),
)
def test_protected_count_is_max_of_required_and_merit(seed, p, alpha):
    """The output never carries more protected candidates than the table or
    merit alone would produce: count == max(m(k), color-blind count)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 50))
    k = int(rng.integers(1, n + 1))
    pool = make_pool(rng, n, int(rng.integers(0, n + 1)))
    ranking = fair_topk(pool, k, p, alpha)
    if ranking.satisfied_up_to < k:
        return  # supply exhausted: the identity is about feasible instances
    merit_count = int(color_blind_topk(pool, k).protected.sum())
    required = int(minimum_counts(k, p, alpha)[-1])
    assert int(ranking.entries.protected.sum()) == max(required, merit_count)


def test_satisfied_up_to_when_every_position_is_protected():
    # supply == k and a flat table: no requirement is left to fail
    ranking = fair_topk(CandidatePool([1, 2], [2.5, 1.5], [True, True]), 2, 0.2, 0.05)
    assert ranking.satisfied_up_to == 2


# ---------------------------------------------------------------------------
# parity with the greedy walk over positions

def assert_matches_greedy_walk(pool, k, p, alpha):
    rows, satisfied_up_to = greedy_fair_topk(pool.scores, pool.ids, pool.protected, k, p, alpha)
    ranking = fair_topk(pool, k, p, alpha)
    assert np.array_equal(ranking.entries.ids, pool.ids[rows])
    assert np.array_equal(ranking.entries.scores, pool.scores[rows])
    assert np.array_equal(ranking.entries.protected, pool.protected[rows])
    assert ranking.satisfied_up_to == satisfied_up_to
    verdict = verify_ranked_group_fairness(ranking.entries, p, alpha)
    assert satisfied_up_to == (k if verdict.fair else verdict.first_violation - 1)
    if satisfied_up_to < k:
        with pytest.raises(InfeasibleRankingError) as excinfo:
            fair_topk(pool, k, p, alpha, strict=True)
        assert excinfo.value.satisfied_up_to == satisfied_up_to
    else:
        strict = fair_topk(pool, k, p, alpha, strict=True)
        assert np.array_equal(strict.entries.ids, ranking.entries.ids)


@settings(max_examples=300, deadline=None)
@given(
    drawn=tied_pools(),
    data=st.data(),
    p=st.sampled_from([0.2, 0.5, 0.7, 0.9]),
    alpha=st.sampled_from([0.05, 0.1, 0.3]),
)
def test_matches_greedy_walk_on_tied_pools(drawn, data, p, alpha):
    pool, _ = drawn
    n = len(pool)
    k = data.draw(st.one_of(st.just(n), st.integers(1, n)), label="k")
    assert_matches_greedy_walk(pool, k, p, alpha)


@pytest.mark.parametrize("k", [1, 5, 12])
@pytest.mark.parametrize(
    "protected",
    [[0] * 12, [1] * 12, [0] * 11 + [1], [1, 0] * 6],
    ids=["no-protected", "all-protected", "one-protected-last", "alternating"],
)
def test_matches_greedy_walk_at_the_edges(protected, k):
    # scores tie in runs of three, so most orders are decided by the tie rules
    pool = CandidatePool(np.arange(12, 0, -1), np.repeat([4.0, 3.0, 2.0, 1.0], 3), protected)
    for p in (0.3, 0.5, 0.9):
        assert_matches_greedy_walk(pool, k, p, 0.1)


# ---------------------------------------------------------------------------
# the pool read in blocks of 1, 2 or 3 rows

@pytest.mark.parametrize("kind", ID_KINDS)
@ACROSS_BLOCKS
@given(
    data=st.data(),
    p=st.sampled_from([0.2, 0.5, 0.7, 0.9]),
    alpha=st.sampled_from([0.05, 0.1, 0.3]),
)
def test_matches_greedy_walk_across_blocks(blocks, kind, data, p, alpha):
    pool, _ = data.draw(tied_pools(kind=kind), label="pool")
    n = len(pool)
    k = data.draw(st.one_of(st.just(n), st.integers(1, n)), label="k")
    assert_matches_greedy_walk(pool, k, p, alpha)
    best = np.lexsort((pool.ids, -pool.scores))[:k]
    assert np.array_equal(color_blind_topk(pool, k).ids, pool.ids[best])


def test_whole_pool_and_short_groups_across_blocks(blocks):
    # k = n, and groups with fewer than k rows: one protected row, or none
    rng = np.random.default_rng(3)
    pool = make_pool(rng, 25, 10)
    assert np.array_equal(
        color_blind_topk(pool, 25).ids, pool.ids[np.lexsort((pool.ids, -pool.scores))]
    )
    for n_protected in (0, 1, 10, 25):
        pool = make_pool(rng, 25, n_protected)
        for k in (6, 25):
            assert_matches_greedy_walk(pool, k, 0.7, 0.1)


def test_ties_on_the_bar_survive_each_cut(blocks):
    # most rows tie on the top score and ids fall as the rows go on, so every
    # cut to the best k leaves ties on the bar that later rows displace
    n, k = 60, 2
    pool = CandidatePool(
        np.arange(n, 0, -1), np.tile([1.0, 2.0, 2.0], n // 3), np.arange(n) % 2 == 0
    )
    assert color_blind_topk(pool, k).ids.tolist() == [1, 2]
    for p in (0.5, 0.9):
        assert_matches_greedy_walk(pool, k, p, 0.1)


# ---------------------------------------------------------------------------
# optimality against the exhaustive oracle

def test_matches_exhaustive_optima_on_small_pools():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 200:
        n = int(rng.integers(2, 11))
        k = int(rng.integers(1, min(n, 6) + 1))
        p = float(rng.choice([0.3, 0.5, 0.7]))
        pool = make_pool(rng, n, int(rng.integers(0, n + 1)))
        oracle = best_feasible(pool.scores, pool.protected, k, p, 0.1)
        if oracle is None:
            continue  # no feasible ranking at this supply
        best_count, best_sel, best_ord = oracle
        ranking = fair_topk(pool, k, p, 0.1, strict=True).entries
        order = ranking.scores.tolist()
        excluded = pool.scores[~np.isin(pool.ids, ranking.ids)].tolist()
        sel, ord_ = evaluate_ranking_raw(order, excluded)
        assert int(ranking.protected.sum()) == best_count
        assert sel == pytest.approx(best_sel, abs=1e-12)
        assert ord_ == pytest.approx(best_ord, abs=1e-12)
        checked += 1
    assert checked == 200
