"""Baseline tests: quantile repair examples and generator calibration."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fair_topk.adjustment import adjust_significance
from fair_topk.baselines import feldman_repair, yang_stoyanovich_generate
from fair_topk.candidates import CandidatePool
from fair_topk.fairness import verify_ranked_group_fairness
from pools import ACROSS_BLOCKS, ID_KINDS, near_tie_pools, tied_pools


def two_group_pool(protected_scores, open_scores):
    scores = list(protected_scores) + list(open_scores)
    flags = [True] * len(protected_scores) + [False] * len(open_scores)
    return CandidatePool(np.arange(1, len(scores) + 1), scores, flags)


def score_changes(pool, repaired):
    """id -> (original, repaired) score of each protected candidate."""
    assert np.array_equal(repaired.pool.ids, pool.ids)
    rows = np.flatnonzero(pool.protected)
    return {
        pool.ids[row].item(): (float(pool.scores[row]), float(repaired.pool.scores[row]))
        for row in rows
    }


# ---------------------------------------------------------------------------
# quantile repair

def test_repair_equal_sized_groups_matches_exactly():
    pool = two_group_pool([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    repaired = feldman_repair(pool).pool
    assert sorted(repaired.scores[repaired.protected].tolist()) == [4.0, 5.0, 6.0]
    assert repaired.scores[~repaired.protected].tolist() == [4.0, 5.0, 6.0]


def test_repair_identical_distributions_is_identity():
    pool = two_group_pool([4.0, 5.0, 6.0], [4.0, 5.0, 6.0])
    repaired = feldman_repair(pool)
    assert repaired.pool.scores.tolist() == pool.scores.tolist()
    assert all(old == new for old, new in score_changes(pool, repaired).values())


def test_repair_single_protected_takes_top_quantile():
    pool = two_group_pool([10.0], [4.0, 5.0, 6.0])
    repaired = feldman_repair(pool)
    assert repaired.pool.scores[pool.protected].tolist() == [6.0]
    assert score_changes(pool, repaired)[1] == (10.0, 6.0)


def test_repair_replacement_map_records_originals():
    pool = two_group_pool([0.1, 0.3], [0.6, 0.9])
    repaired = feldman_repair(pool)
    assert score_changes(pool, repaired) == {1: (0.1, 0.6), 2: (0.3, 0.9)}


def test_repair_requires_both_groups():
    with pytest.raises(ValueError):
        feldman_repair(CandidatePool([1, 2], [0.5, 0.6], [True, True]))
    with pytest.raises(ValueError):
        feldman_repair(CandidatePool([1, 2], [0.5, 0.6], [False, False]))


def test_repair_tied_protected_scores_rank_by_id():
    pool = CandidatePool(
        [7, 3, 10, 11], [0.5, 0.5, 1.0, 2.0], [True, True, False, False]
    )
    repaired = feldman_repair(pool)
    # ascending rank ties break by ascending id: id 3 takes the lower quantile
    changes = score_changes(pool, repaired)
    assert changes[3] == (0.5, 1.0)
    assert changes[7] == (0.5, 2.0)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_repair_properties_on_random_pools(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 15))
    n = int(rng.integers(1, 15))
    pool = two_group_pool(rng.random(m), rng.random(n))
    repaired = feldman_repair(pool)

    # non-protected scores untouched
    assert np.array_equal(
        repaired.pool.scores[~pool.protected], pool.scores[~pool.protected]
    )
    # within-group order preserved: sorting by original score sorts the new ones
    original = pool.scores[pool.protected]
    new = repaired.pool.scores[pool.protected]
    by_original = np.argsort(original, kind="stable")
    assert (np.diff(new[by_original]) >= 0).all()
    # repaired scores are actual non-protected scores
    assert set(new.tolist()) <= set(pool.scores[~pool.protected].tolist())
    # idempotence: a second repair changes nothing
    again = feldman_repair(repaired.pool)
    assert np.array_equal(again.pool.scores, repaired.pool.scores)


def parent_repaired_scores(pool):
    """feldman_repair's scores as they were: protected rows put in (score, id)
    order by np.lexsort."""
    protected_rows = np.flatnonzero(pool.protected)
    open_rows = np.flatnonzero(~pool.protected)
    m, n = protected_rows.shape[0], open_rows.shape[0]
    order = protected_rows[np.lexsort((pool.ids[protected_rows], pool.scores[protected_rows]))]
    target = (np.arange(1, m + 1, dtype=np.int64) * n + m - 1) // m
    scores = pool.scores.copy()
    scores[order] = np.sort(pool.scores[open_rows])[target - 1]
    return scores


@settings(max_examples=300, deadline=None)
@given(drawn=tied_pools(both_groups=True))
def test_repair_matches_the_lexsort_order_on_tied_pools(drawn):
    pool, _ = drawn
    repaired = feldman_repair(pool).pool
    assert repaired.scores.tobytes() == parent_repaired_scores(pool).tobytes()
    assert repaired.ids is pool.ids and repaired.protected is pool.protected


@pytest.mark.parametrize("kind", ID_KINDS)
@ACROSS_BLOCKS
@given(data=st.data())
def test_repair_matches_the_lexsort_order_across_blocks(blocks, kind, data):
    pool, _ = data.draw(tied_pools(both_groups=True, kind=kind), label="pool")
    repaired = feldman_repair(pool).pool
    assert repaired.scores.tobytes() == parent_repaired_scores(pool).tobytes()


def edge_pool(case, seed):
    """A pool that takes each path of the repair's tie order: ids near
    +-2**62 or strings are ranked, where dense ids are coded as they are;
    negative scores have their magnitude bits flipped; and scores a few ulps
    apart beside +-1e308 share a key's prefix."""
    rng = np.random.default_rng(seed)
    sizes = {"m-much-above-n": (300, 3), "n-much-above-m": (3, 300)}
    n_protected, n_open = sizes.get(case, (25, 25))
    n = n_protected + n_open
    levels = {
        "signed-zeros": [-0.0, 0.0, 5e-324],
        "prefix-collision": [-1e308, 1e308, 0.5, np.nextafter(0.5, 1.0)],
    }.get(case, [-0.75, -0.25, 0.5])
    scores = rng.choice(levels, size=n)
    ids = rng.permutation(n) + 1
    if case == "int64-extremes":
        ids = np.where(rng.random(n) < 0.5, -(2**62) - ids, 2**62 + ids)
    if case == "string":
        ids = np.array([f"c{i}" for i in ids])
    protected = rng.permutation(np.arange(n) < n_protected)
    return CandidatePool(ids, scores, protected)


@pytest.mark.parametrize("case", [
    "int64-extremes", "string", "signed-zeros", "prefix-collision", "m-much-above-n", "n-much-above-m"
])
def test_repair_matches_the_lexsort_order_on_edge_pools(case):
    for seed in range(30):
        pool = edge_pool(case, seed)
        repaired = feldman_repair(pool).pool
        assert repaired.scores.tobytes() == parent_repaired_scores(pool).tobytes()


@pytest.mark.parametrize("kind", ID_KINDS + ("uint64",))
def test_repair_matches_the_lexsort_order_on_near_ties(monkeypatch, kind):
    # scores a few ulps apart share a key's prefix once +-1e308 or a
    # subnormal widens the range, and only the runs' argsort orders them
    score_argsorts = []
    original = np.argsort

    def spy(a, *args, **kwargs):
        if np.asarray(a).dtype.kind == "f":
            score_argsorts.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)

    @settings(max_examples=150, deadline=None)
    @given(pool=near_tie_pools(kind))
    def check(pool):
        repaired = feldman_repair(pool).pool
        assert repaired.scores.tobytes() == parent_repaired_scores(pool).tobytes()

    check()
    assert score_argsorts, "no drawn pool took the prefix-collision path"


@pytest.mark.parametrize(
    "case, sorted_kinds",
    [("dense", []), ("int64-extremes", ["i"]), ("string", ["U"]), ("prefix-collision", ["f"])],
)
def test_repair_argsorts_its_ids_only_when_the_packed_key_cannot_hold_them(
    monkeypatch, case, sorted_kinds
):
    # ids spanning at most the pool's length are coded as they are; other
    # ids are ranked by one argsort, and scores that share a key's prefix
    # are argsorted once more to number their runs
    pool = edge_pool(case, 1)
    m = pool.protected_count
    calls = []
    original = np.argsort

    def spy(a, *args, **kwargs):
        calls.append((np.asarray(a).dtype.kind, np.shape(a)))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    feldman_repair(pool)
    assert calls == [(kind, (m,)) for kind in sorted_kinds]


def test_repair_makes_no_stable_sort(monkeypatch):
    # the key sort is an array method, so the spies are methods of an array
    # type the pool's columns carry into every array the repair sorts;
    # np.sort and np.argsort reach them too
    calls = []

    class Spied(np.ndarray):
        def sort(self, axis=-1, kind=None, order=None, *, stable=None):
            calls.append(("sort", self.dtype.kind, kind, stable))
            return super().sort(axis, kind, order, stable=stable)

        def argsort(self, axis=-1, kind=None, order=None, *, stable=None):
            calls.append(("argsort", self.dtype.kind, kind, stable))
            return super().argsort(axis, kind, order, stable=stable)

    original = np.lexsort

    def lexsort(*args, **kwargs):
        calls.append(("lexsort", None, None, None))
        return original(*args, **kwargs)

    monkeypatch.setattr(np, "lexsort", lexsort)
    rng = np.random.default_rng(5)
    n = 10**4
    scores = rng.integers(0, n // 10, n) / (n // 10)
    pools = [CandidatePool(rng.permutation(n) + 1, scores, rng.random(n) < 0.4)]
    pools += [edge_pool(case, 1) for case in ("int64-extremes", "string", "prefix-collision")]
    for pool in pools:
        calls.clear()
        columns = (pool.ids.view(Spied), pool.scores.view(Spied), pool.protected)
        feldman_repair(CandidatePool._of(*columns))
        assert ("sort", "i", None, None) in calls, "the spies saw no key sort"
        assert not [c for c in calls if c[0] == "lexsort" or c[2] in ("stable", "mergesort") or c[3]]


# ---------------------------------------------------------------------------
# synthetic fair-ranking generator

def test_generator_shape_and_determinism():
    ranking = yang_stoyanovich_generate(12, 0.5, seed=5)
    assert ranking.ids.tolist() == list(range(1, 13))
    assert ranking.scores.tolist() == list(range(12, 0, -1))
    assert np.array_equal(
        ranking.protected, yang_stoyanovich_generate(12, 0.5, seed=5).protected
    )
    other = yang_stoyanovich_generate(1000, 0.5, seed=6)
    assert not np.array_equal(
        yang_stoyanovich_generate(1000, 0.5, seed=5).protected, other.protected
    )


def test_generator_degenerate_p_close_to_one():
    ranking = yang_stoyanovich_generate(1000, 0.999, seed=1)
    assert ranking.protected.mean() > 0.99


def test_generator_concentrates_at_p():
    ranking = yang_stoyanovich_generate(1000, 0.5, seed=42)
    assert abs(ranking.protected.mean() - 0.5) <= 3.0 * np.sqrt(0.25 / 1000)


def test_generator_validation():
    with pytest.raises(ValueError):
        yang_stoyanovich_generate(0, 0.5)
    with pytest.raises(ValueError):
        yang_stoyanovich_generate(5, 1.0)
    for k in (5.0, True, "5"):  # True would size a block of one ranking
        with pytest.raises(ValueError, match="k must be an integer"):
            yang_stoyanovich_generate(k, 0.5)


def test_generator_per_position_frequency():
    """Deterministic calibration check: over 10,000 rankings the protected
    frequency at every position stays within 3 standard errors of p."""
    p, k, trials = 0.5, 12, 10_000
    hits = np.zeros(k)
    for seed in range(trials):
        hits += yang_stoyanovich_generate(k, p, seed=seed).protected
    se = np.sqrt(p * (1 - p) / trials)
    assert (np.abs(hits / trials - p) <= 3.0 * se).all()


def test_generator_rejected_at_the_adjusted_rate():
    # generated rankings are fair-by-construction draws, so testing them at
    # the adjusted significance should reject about alpha of them
    k, p, alpha = 100, 0.5, 0.1
    result = adjust_significance(k, p, alpha)
    rejected = sum(
        not verify_ranked_group_fairness(
            yang_stoyanovich_generate(k, p, seed=seed), p, result.alpha_adj
        ).fair
        for seed in range(4000)
    )
    rate = rejected / 4000
    assert rate == pytest.approx(alpha, abs=0.02)
