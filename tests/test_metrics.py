"""Utility metric tests: hand-computed examples, report assembly, invariants."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fair_topk import metrics, ranker
from fair_topk.baselines import feldman_repair
from fair_topk.candidates import CandidatePool, RankedSequence
from fair_topk.metrics import (
    UtilityReport,
    evaluate_ranking,
    ndcg,
    ordering_utility,
    selection_utility,
)
from fair_topk.ranker import color_blind_topk, fair_topk
from pools import ACROSS_BLOCKS, ID_KINDS, tied_pools


def random_pool(rng, n, n_protected=None):
    if n_protected is None:
        n_protected = int(rng.integers(0, n + 1))
    flags = np.zeros(n, dtype=bool)
    flags[rng.choice(n, size=n_protected, replace=False)] = True
    return CandidatePool(np.arange(1, n + 1), rng.random(n), flags)


# ---------------------------------------------------------------------------
# normalization

def test_normalize_min_max():
    pool = CandidatePool([1, 2, 3], [2.0, 6.0, 4.0], [0, 1, 0])
    normalized = metrics._normalized(pool)
    assert normalized.scores.tolist() == [0.0, 1.0, 0.5]
    assert np.array_equal(normalized.ids, pool.ids)


def test_normalize_constant_pool_maps_to_ones():
    pool = CandidatePool([1, 2], [3.0, 3.0], [0, 1])
    assert metrics._normalized(pool).scores.tolist() == [1.0, 1.0]


# ---------------------------------------------------------------------------
# ranked utility: a candidate's min(0, least score above it minus its own),
# read through the worst cases that ordering and selection utility report

def pool_095_08():
    # three candidates whose scores double as their identity in the examples
    return CandidatePool([1, 2, 3], [0.9, 0.5, 0.8], [0, 1, 0])


def test_ranked_utility_element_below_worse_one():
    pool = pool_095_08()
    ranking = RankedSequence([1, 2, 3], [0.9, 0.5, 0.8], [0, 1, 0])
    utility, drop, witness = ordering_utility(ranking, pool)
    assert utility == pytest.approx(-0.3)
    assert (drop, witness) == (1, 3)  # color-blind second, ranked third


def test_ranked_utility_sorted_ranking_is_zero_everywhere():
    pool = pool_095_08()
    ranking = RankedSequence([1, 3, 2], [0.9, 0.8, 0.5], [0, 0, 1])
    assert ordering_utility(ranking, pool) == (0.0, 0, None)
    assert selection_utility(ranking, pool) == 0.0


def test_ranked_utility_excluded_sits_below_everything():
    pool = CandidatePool([1, 2, 3], [0.9, 0.5, 0.6], [0, 1, 0])
    ranking = RankedSequence([1, 2], [0.9, 0.5], [0, 1])
    assert selection_utility(ranking, pool) == pytest.approx(-0.1)


def test_ranked_utility_top_element_is_zero():
    pool = CandidatePool([1, 2], [0.9, 0.5], [0, 1])
    assert ordering_utility(RankedSequence([2], [0.5], [1]), pool) == (0.0, 0, None)
    ranking = RankedSequence([2, 1], [0.5, 0.9], [1, 0])
    assert ordering_utility(ranking, pool).worst_candidate == 1


def test_ranked_utility_unknown_id_raises():
    pool = pool_095_08()
    ranking = RankedSequence([1, 99], [0.9, 0.5], [0, 0])
    for utility in (ordering_utility, selection_utility):
        with pytest.raises(ValueError, match="ranking contains ids not present in the pool"):
            utility(ranking, pool)


# ---------------------------------------------------------------------------
# selection utility

def test_selection_utility_of_color_blind_is_zero():
    rng = np.random.default_rng(17)
    for _ in range(50):
        pool = random_pool(rng, int(rng.integers(2, 40)))
        k = int(rng.integers(1, len(pool)))
        assert selection_utility(color_blind_topk(pool, k), pool) == 0.0


def test_selection_utility_single_excluded_better_candidate():
    # the four-candidate constrained instance: np0.6 is left out, worst
    # included score is p0.5
    pool = CandidatePool(
        [1, 2, 3, 4, 5, 6],
        [0.9, 0.8, 0.7, 0.6, 0.5, 0.4],
        [0, 0, 0, 0, 1, 1],
    )
    ranking = fair_topk(pool, 4, 0.5, 0.1).entries
    assert selection_utility(ranking, pool) == pytest.approx(-0.1)


def test_selection_utility_zero_when_excluded_are_worse():
    pool = CandidatePool([1, 2, 3], [0.9, 0.8, 0.3], [0, 1, 0])
    ranking = RankedSequence([2, 1], [0.8, 0.9], [1, 0])
    assert selection_utility(ranking, pool) == 0.0


# ---------------------------------------------------------------------------
# ordering utility and rank drop

def test_ordering_utility_sorted_is_zero():
    pool = pool_095_08()
    ranking = RankedSequence([1, 3, 2], [0.9, 0.8, 0.5], [0, 0, 1])
    result = ordering_utility(ranking, pool)
    assert result.utility == 0.0
    assert result.max_rank_drop == 0
    assert result.worst_candidate is None


def test_ordering_utility_two_element_inversion():
    # protected 0.5 ranked above non-protected 0.9: utility -0.4 and the
    # better candidate lost exactly one position against color-blind
    pool = CandidatePool([1, 2], [0.5, 0.9], [1, 0])
    ranking = RankedSequence([1, 2], [0.5, 0.9], [1, 0])
    result = ordering_utility(ranking, pool)
    assert result.utility == pytest.approx(-0.4)
    assert result.max_rank_drop == 1
    assert result.worst_candidate == 2


def test_ordering_utility_constrained_output_still_sorted():
    pool = CandidatePool(
        [1, 2, 3, 4, 5, 6],
        [0.9, 0.8, 0.7, 0.6, 0.5, 0.4],
        [0, 0, 0, 0, 1, 1],
    )
    ranking = fair_topk(pool, 4, 0.5, 0.1).entries
    assert ranking.scores.tolist() == [0.9, 0.8, 0.7, 0.5]
    result = ordering_utility(ranking, pool)
    assert result.utility == 0.0
    assert result.max_rank_drop == 0


def test_rank_drop_counts_positions_lost():
    # 0.9 displaced to the bottom of a three-element ranking: drop 2
    pool = CandidatePool([1, 2, 3], [0.9, 0.8, 0.7], [0, 1, 1])
    ranking = RankedSequence([2, 3, 1], [0.8, 0.7, 0.9], [1, 1, 0])
    result = ordering_utility(ranking, pool)
    assert result.utility == pytest.approx(-0.2)
    assert result.max_rank_drop == 2
    assert result.worst_candidate == 1


def test_ordering_utility_rejects_a_witness_outside_the_pool():
    pool = pool_095_08()
    ranking = RankedSequence([3, 99], [0.7, 0.8], [0, 0])
    with pytest.raises(ValueError, match="ranking contains ids not present in the pool"):
        ordering_utility(ranking, pool)


@pytest.mark.parametrize("seed", range(20))
def test_rank_drop_matches_full_color_blind_ranking(seed):
    # tied scores and string ids, whose order is not the numeric one
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 60))
    ids = [str(i) for i in rng.choice(1000, size=n, replace=False)]
    pool = CandidatePool(ids, rng.integers(0, 4, n) / 4.0, rng.random(n) < 0.4)
    full = color_blind_topk(pool, n).ids.tolist()
    k = int(rng.integers(1, n + 1))
    rows = rng.choice(n, size=k, replace=False)
    for ranking in (pool.take(rows), fair_topk(pool, k, 0.6, 0.1).entries):
        result = ordering_utility(ranking, pool)
        if result.worst_candidate is None:
            assert result.max_rank_drop == 0
            continue
        position = ranking.ids.tolist().index(result.worst_candidate) + 1
        reference = full.index(result.worst_candidate) + 1
        assert result.max_rank_drop == max(0, position - reference)
        assert type(result.max_rank_drop) is int  # the JSON report needs a plain int


# ---------------------------------------------------------------------------
# ndcg

def test_ndcg_of_color_blind_is_one():
    rng = np.random.default_rng(23)
    for _ in range(50):
        pool = random_pool(rng, int(rng.integers(2, 40)))
        k = int(rng.integers(1, len(pool) + 1))
        assert ndcg(color_blind_topk(pool, k), pool) == pytest.approx(1.0)


def test_ndcg_two_element_swap():
    pool = CandidatePool([1, 2], [0.5, 1.0], [1, 0])
    ranking = RankedSequence([1, 2], [0.5, 1.0], [1, 0])
    w2 = 1.0 / math.log2(3.0)
    expected = (0.5 + 1.0 * w2) / (1.0 + 0.5 * w2)
    assert expected == pytest.approx(0.8597, abs=5e-5)
    assert ndcg(ranking, pool) == pytest.approx(expected, abs=1e-12)


def test_ndcg_single_best_element_is_one():
    pool = CandidatePool([1, 2, 3], [0.2, 0.9, 0.4], [0, 1, 0])
    ranking = RankedSequence([2], [0.9], [1])
    assert ndcg(ranking, pool) == pytest.approx(1.0)


def test_ndcg_ideal_is_the_top_of_the_rankings_length():
    # against the whole pool's top 3 the top two would score below 1
    pool = CandidatePool([1, 2, 3], [0.9, 0.8, 0.7], [0, 1, 0])
    ranking = RankedSequence([1, 2], [0.9, 0.8], [0, 1])
    assert ndcg(ranking, pool) == 1.0
    assert ndcg(RankedSequence([2], [0.8], [1]), pool) == pytest.approx(0.8 / 0.9)


def test_ndcg_refuses_negative_scores():
    # summed as gains, negative scores would put the ranking above its ideal
    pool = CandidatePool([1, 2], [-1.0, -2.0], [0, 1])
    with pytest.raises(ValueError, match="ndcg needs non-negative scores"):
        ndcg(RankedSequence([2, 1], [-2.0, -1.0], [1, 0]), pool)
    # the ranking's own scores are non-negative, the ideal's second is not
    pool = CandidatePool([1, 2], [1.0, -1.0], [0, 1])
    with pytest.raises(ValueError, match="ndcg needs non-negative scores"):
        ndcg(RankedSequence([1, 3], [1.0, 0.5], [0, 1]), pool)


# ---------------------------------------------------------------------------
# report assembly

def test_report_on_color_blind_output():
    rng = np.random.default_rng(31)
    pool = random_pool(rng, 30, 12)
    report = evaluate_ranking(pool, color_blind_topk(pool, 10))
    assert report.ndcg == pytest.approx(1.0)
    assert report.ordering_utility_loss == 0.0
    assert report.selection_utility_loss == 0.0
    assert report.max_rank_drop == 0
    assert report.worst_ordering_candidate is None
    assert report.worst_selection_candidate is None


def test_report_losses_never_render_negative_zero():
    pool = CandidatePool([1, 2, 3], [0.9, 0.8, 0.7], [0, 1, 0])
    report = evaluate_ranking(pool, color_blind_topk(pool, 2))
    assert f"{report.ordering_utility_loss:.6f}" == "0.000000"
    assert f"{report.selection_utility_loss:.6f}" == "0.000000"


def test_report_normalizes_over_the_pool():
    # raw scores 10..40; the constrained swap costs 10 raw = 1/3 normalized
    pool = CandidatePool([1, 2, 3, 4], [40.0, 30.0, 10.0, 20.0], [0, 0, 1, 0])
    ranking = fair_topk(pool, 2, 0.9, 0.05).entries  # minima [0, 1] forces p10
    assert ranking.ids.tolist() == [1, 3]
    report = evaluate_ranking(pool, ranking)
    assert report.selection_utility_loss == pytest.approx(2.0 / 3.0)
    assert report.protected_share == 0.5


def test_report_on_a_pool_whose_score_range_overflows(recwarn):
    # every score is finite, but 1e308 - (-1e308) is not
    pool = CandidatePool([1, 2, 3, 4], [1e308, 5e307, 0.0, -1e308], [0, 1, 0, 1])
    assert metrics._normalized(pool).scores.tolist() == [1.0, 0.75, 0.5, 0.0]
    ranking = fair_topk(pool, 2, 0.9, 0.05).entries  # minima [0, 1] forces id 2
    assert ranking.ids.tolist() == [1, 2]
    report = evaluate_ranking(pool, ranking)
    assert report.selection_utility_loss == 0.0
    assert report.ordering_utility_loss == 0.0
    report = evaluate_ranking(pool, RankedSequence([1, 4], [1e308, -1e308], [0, 1]))
    assert report.selection_utility_loss == pytest.approx(0.75)
    assert report.worst_selection_candidate == 2
    assert len(recwarn) == 0


def test_report_selection_witness_prefers_smallest_id():
    # two excluded candidates tie on the worst utility: report the smaller id
    pool = CandidatePool([5, 9, 2, 7], [1.0, 0.8, 0.8, 0.0], [1, 0, 0, 0])
    ranking = RankedSequence([5, 7], [1.0, 0.0], [1, 0])
    report = evaluate_ranking(pool, ranking)
    assert report.selection_utility_loss == pytest.approx(0.8)
    assert report.worst_selection_candidate == 2


def test_report_ordering_witness_is_topmost_worst():
    pool = CandidatePool([1, 2, 3], [0.9, 0.8, 0.7], [0, 1, 1])
    ranking = RankedSequence([2, 3, 1], [0.8, 0.7, 0.9], [1, 1, 0])
    report = evaluate_ranking(pool, ranking)
    assert report.worst_ordering_candidate == 1
    assert report.max_rank_drop == 2


@pytest.mark.parametrize("measure", [
    pytest.param(lambda ranking, pool: evaluate_ranking(pool, ranking), id="evaluate_ranking"),
    pytest.param(ordering_utility, id="ordering_utility"),
    pytest.param(selection_utility, id="selection_utility"),
])
def test_report_rejects_foreign_ids(measure):
    pool = CandidatePool([0, 1, 2, 3, 4], [0.9, 0.8, 0.7, 0.6, 0.5], [0, 1, 0, 1, 0])
    for foreign in (
        RankedSequence([0, 99], [0.5, 0.9], [0, 0]),  # 99 is the ordering witness
        RankedSequence([0, 99], [0.9, 0.5], [0, 0]),  # no ordering loss, no witness
    ):
        with pytest.raises(ValueError, match="ranking contains ids not present in the pool"):
            measure(foreign, pool)


@pytest.mark.parametrize("measure", [
    pytest.param(lambda ranking, pool: evaluate_ranking(pool, ranking), id="evaluate_ranking"),
    pytest.param(ordering_utility, id="ordering_utility"),
    pytest.param(selection_utility, id="selection_utility"),
    pytest.param(ndcg, id="ndcg"),
])
def test_empty_rankings_are_refused(measure):
    pool = CandidatePool([1, 2], [0.9, 0.5], [0, 1])
    with pytest.raises(ValueError, match="ranking must be non-empty"):
        measure(RankedSequence([], [], []), pool)


@pytest.mark.parametrize("ranked", [[1, 2, 5], [1, 2, 7, 8, 5]], ids=["past-top-k", "in-top-k"])
def test_report_selection_witness_under_a_rounding_tie(ranked):
    # with 3u/2 the least ranked score, 0.5 + 3u and 0.5 + 4u round to one
    # utility: the witness is id 3, which scores lower than the best
    # candidate left out (id 4) but has the smaller id.  With three ranked
    # the tie reaches past the top k; with five, both tied rows are in it.
    u = 2.0**-53
    scores = [1.0, 0.75, 0.5 + 3 * u, 0.5 + 4 * u, 1.5 * u, 0.0, 0.25, 0.4]
    pool = CandidatePool(range(1, 9), scores, [0, 1, 0, 1, 0, 1, 0, 1])
    assert 1.5 * u - scores[2] == 1.5 * u - scores[3]
    ranking = pool.take(np.array(ranked) - 1)
    report = evaluate_ranking(pool, ranking)
    assert report.worst_selection_candidate == 3
    assert report_bits(report) == report_bits(parent_evaluate_ranking(pool, ranking))


def test_report_walks_the_pool_twice(monkeypatch):
    # one membership walk and one top-k selection, whatever the losses; a
    # ranking whose scores are not the pool's walks for membership again
    walks = []

    def spy(n, _original=ranker._blocks):
        walks.append(n)
        return _original(n)

    monkeypatch.setattr(ranker, "_blocks", spy)
    monkeypatch.setattr(metrics, "_blocks", spy)
    rng = np.random.default_rng(3)
    n, k = 10**5, 300
    protected = rng.random(n) < 0.4
    scores = rng.random(n)
    scores[protected] /= 2  # so the repair raises every protected score
    pool = CandidatePool(rng.permutation(n) + 1, scores, protected)
    for ranking, expected in (
        (pool.take(rng.choice(n, size=k, replace=False)), [n, n]),  # both losses
        (fair_topk(pool, k, 0.6, 0.1).entries, [n, n]),
        (color_blind_topk(pool, k), [n, n]),  # no loss
        (color_blind_topk(feldman_repair(pool).pool, k), [n, n, n]),
    ):
        walks.clear()
        evaluate_ranking(pool, ranking)
        assert walks == expected


@pytest.mark.parametrize("source", ["color-blind", "fair"])
def test_membership_tests_only_rows_that_can_hold_a_ranked_id(monkeypatch, source):
    # string ids go through np.isin, which sorts; a ranking that carries its
    # pool scores needs only the rows scoring at least its least score
    rng = np.random.default_rng(4)
    n, k = 2 * 10**4, 200
    ids = np.array([f"c{i}" for i in rng.permutation(n)])
    pool = CandidatePool(ids, rng.random(n), rng.random(n) < 0.3)
    if source == "fair":
        ranking = fair_topk(pool, k, 0.5, 0.1).entries
    else:
        ranking = color_blind_topk(pool, k)
    seen = []
    original = np.isin

    def spy(element, *args, **kwargs):
        seen.append(np.shape(element)[0])
        return original(element, *args, **kwargs)

    monkeypatch.setattr(np, "isin", spy)
    report = evaluate_ranking(pool, ranking)
    monkeypatch.setattr(np, "isin", original)
    assert sum(seen) <= int((pool.scores >= ranking.scores.min()).sum()) < n // 10
    assert report_bits(report) == report_bits(parent_evaluate_ranking(pool, ranking))


@pytest.mark.parametrize("pool_ids, ids", [([1, 2, 3], ["a", "b"]), (["a", "b"], [1])])
def test_report_rejects_ids_of_another_kind(pool_ids, ids):
    pool = CandidatePool(pool_ids, np.linspace(0.9, 0.5, len(pool_ids)), [0] * len(pool_ids))
    foreign = RankedSequence(ids, np.linspace(0.9, 0.5, len(ids)), [0] * len(ids))
    with pytest.raises(ValueError, match="ranking contains ids not present in the pool"):
        evaluate_ranking(pool, foreign)


def parent_evaluate_ranking(pool, ranking):
    """evaluate_ranking from whole-pool sorts: the ranked rows found through
    a stable argsort of the pool ids, and the color-blind order, for the
    ordering witness's rank drop and NDCG's ideal, through a full lexsort."""
    lo, hi = float(pool.scores.min()), float(pool.scores.max())
    scores = np.ones(len(pool)) if hi == lo else (pool.scores - lo) / (hi - lo)
    normalized = CandidatePool(pool.ids, scores, pool.protected)
    order = np.argsort(normalized.ids, kind="stable")
    pos = np.searchsorted(normalized.ids[order], ranking.ids)
    rows = order[np.minimum(pos, len(pool) - 1)]
    assert np.array_equal(normalized.ids[rows], ranking.ids)
    normalized_ranking = RankedSequence(ranking.ids, normalized.scores[rows], ranking.protected)
    ranked_scores = normalized_ranking.scores
    color_blind = np.lexsort((normalized.ids, -normalized.scores))
    prefix_min = np.minimum.accumulate(ranked_scores)
    ordering = np.zeros(len(ranking))
    ordering[1:] = np.minimum(0.0, prefix_min[:-1] - ranked_scores[1:])
    worst = int(np.argmin(ordering))
    if ordering[worst] == 0.0:
        drop, ord_witness = 0, None
    else:
        position = int(np.flatnonzero(color_blind == rows[worst])[0])
        drop, ord_witness = max(0, worst - position), ranking.ids[worst].item()
    weights = 1.0 / np.log2(np.arange(1, len(ranking) + 1) + 1.0)
    ideal = float(np.dot(weights, normalized.scores[color_blind[: len(ranking)]]))
    ndcg_value = 1.0 if ideal == 0.0 else float(np.dot(weights, ranked_scores)) / ideal
    excluded = np.flatnonzero(~np.isin(normalized.ids, ranking.ids))
    least = float(ranked_scores.min())
    utilities = np.minimum(0.0, least - normalized.scores[excluded])
    if utilities.shape[0]:
        sel_value = float(utilities.min())
        candidates = excluded[utilities == sel_value]
        sel_witness = (
            None if sel_value == 0.0
            else sorted(normalized.ids[candidates].tolist())[0]
        )
    else:
        sel_value, sel_witness = 0.0, None
    return UtilityReport(
        protected_share=float(normalized_ranking.protected.mean()),
        ndcg=ndcg_value,
        ordering_utility_loss=-float(ordering[worst]) + 0.0,
        selection_utility_loss=-sel_value + 0.0,
        max_rank_drop=drop,
        worst_ordering_candidate=ord_witness,
        worst_selection_candidate=sel_witness,
    )


def report_bits(report):
    """Each field with its type, floats as their exact hex form."""
    return [
        (type(value), value.hex() if isinstance(value, float) else value)
        for value in dataclasses.astuple(report)
    ]


@settings(max_examples=300, deadline=None)
@given(
    drawn=tied_pools(),
    source=st.sampled_from(["arbitrary", "color-blind", "fair", "repaired"]),
    share=st.floats(0.05, 1.0),
)
def test_report_matches_the_full_argsort_lookup(drawn, source, share):
    assert_report_matches_the_full_argsort_lookup(*drawn, source, share)


def assert_report_matches_the_full_argsort_lookup(pool, rng, source, share):
    k = max(1, round(share * len(pool)))
    if source == "arbitrary":
        ranking = pool.take(rng.choice(len(pool), size=k, replace=False))
    elif source == "color-blind":
        ranking = color_blind_topk(pool, k)
    elif source == "fair":
        ranking = fair_topk(pool, k, 0.5, 0.1).entries
    else:
        # the repaired pool's ranking, evaluated against the original pool
        assume(0 < int(pool.protected.sum()) < len(pool))
        ranking = color_blind_topk(feldman_repair(pool).pool, k)
    assert report_bits(evaluate_ranking(pool, ranking)) == report_bits(
        parent_evaluate_ranking(pool, ranking)
    )


@pytest.mark.parametrize("kind", ID_KINDS)
@ACROSS_BLOCKS
@given(
    data=st.data(),
    source=st.sampled_from(["arbitrary", "color-blind", "fair", "repaired"]),
    share=st.floats(0.05, 1.0),
)
def test_report_matches_the_full_argsort_lookup_across_blocks(blocks, kind, data, source, share):
    pool, rng = data.draw(tied_pools(kind=kind), label="pool")
    assert_report_matches_the_full_argsort_lookup(pool, rng, source, share)


def test_report_edges_across_blocks(blocks):
    # foreign ids inside and outside the tabulated range, and of another kind
    pool = CandidatePool([0, 1, 2, 3, 4], [0.9, 0.8, 0.7, 0.6, 0.5], [0, 1, 0, 1, 0])
    for ids in ([0, 7], [-1, 0], [0, 10**11], ["a", "b"]):
        foreign = RankedSequence(ids, [0.9, 0.5], [0, 0])
        with pytest.raises(ValueError, match="ranking contains ids not present in the pool"):
            evaluate_ranking(pool, foreign)
    strings = CandidatePool(["e", "d", "c", "b", "a"], pool.scores, pool.protected)
    with pytest.raises(ValueError, match="ranking contains ids not present in the pool"):
        evaluate_ranking(strings, RankedSequence(["e", "z"], [0.9, 0.5], [0, 0]))
    # a score range that overflows is halved first
    pool = CandidatePool([1, 2, 3, 4], [1e308, 5e307, 0.0, -1e308], [0, 1, 0, 1])
    report = evaluate_ranking(pool, RankedSequence([1, 4], [1e308, -1e308], [0, 1]))
    assert report.selection_utility_loss == pytest.approx(0.75)
    assert report.worst_selection_candidate == 2


def test_report_sorts_nothing_longer_than_the_ranking(monkeypatch):
    rng = np.random.default_rng(5)
    n, k = 10**4, 50
    pool = CandidatePool(rng.permutation(n) + 1, rng.random(n), rng.random(n) < 0.4)
    ranking = fair_topk(pool, k, 0.6, 0.1).entries
    lengths = []
    for name in ("argsort", "lexsort", "sort"):
        original = getattr(np, name)

        def spy(a, *args, _original=original, **kwargs):
            arrays = a if isinstance(a, tuple) else (a,)
            lengths.append(max(np.shape(x)[0] for x in arrays))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np, name, spy)
    evaluate_ranking(pool, ranking)
    assert lengths, "evaluate_ranking sorted nothing, so the spies saw nothing"
    assert max(lengths) <= k


def test_repair_and_report_stay_within_their_memory_budgets():
    rng = np.random.default_rng(8)
    n = 2 * 10**5
    scores = rng.integers(0, n // 10, n) / (n // 10)  # about ten rows per score
    pool = CandidatePool(rng.permutation(n), scores, rng.random(n) < 0.4)
    ranking = fair_topk(pool, 1500, 0.5, 0.1).entries

    def peak_bytes_per_row(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1] / n
        finally:
            tracemalloc.stop()

    # each budget is the peak measured with numpy 2.4 plus 1 byte a row; the
    # streamed selections hold O(k) rows and one block of the pool
    assert peak_bytes_per_row(lambda: fair_topk(pool, 1500, 0.5, 0.1)) <= 3.2
    assert peak_bytes_per_row(lambda: color_blind_topk(pool, 1500)) <= 4.4
    # the repaired scores alone hold 8 bytes a row
    assert peak_bytes_per_row(lambda: feldman_repair(pool)) <= 14.8
    # string ids of 7 characters: 28 bytes for each of about 0.4 n protected rows
    named = CandidatePool(np.array([f"c{i}" for i in pool.ids]), pool.scores, pool.protected)
    assert peak_bytes_per_row(lambda: feldman_repair(named)) <= 18.6
    # the normalized scores alone hold 8 bytes a row
    assert peak_bytes_per_row(lambda: metrics._normalized(pool)) <= 9.0
    assert peak_bytes_per_row(lambda: evaluate_ranking(pool, ranking)) <= 12.5


# ---------------------------------------------------------------------------
# invariants

@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_metric_ranges_on_arbitrary_rankings(seed):
    rng = np.random.default_rng(seed)
    pool = random_pool(rng, int(rng.integers(2, 30)))
    k = int(rng.integers(1, len(pool) + 1))
    rows = rng.choice(len(pool), size=k, replace=False)  # arbitrary order
    ranking = pool.take(rows)
    report = evaluate_ranking(pool, ranking)
    assert report.selection_utility_loss >= 0.0
    assert report.ordering_utility_loss >= 0.0
    assert 0.0 <= report.ndcg <= 1.0 + 1e-12
    assert report.max_rank_drop >= 0
    assert report.protected_share == pytest.approx(float(ranking.protected.mean()))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_ndcg_degrades_monotonically_in_p(seed):
    """A stronger constraint (larger p) never improves the constrained
    output's ndcg; checked on pools with full protected supply so every
    grid point is feasible."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 50))
    k = int(rng.integers(1, n + 1))
    pool = random_pool(rng, n, n_protected=int(rng.integers(k, n + 1)))
    values = [
        evaluate_ranking(pool, fair_topk(pool, k, p, 0.1, strict=True).entries).ndcg
        for p in (0.2, 0.35, 0.5, 0.65, 0.8)
    ]
    assert (np.diff(values) <= 1e-12).all()
