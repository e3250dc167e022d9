"""Columnar candidate containers: coercion, validation, derived views."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fair_topk import CandidatePool, RankedSequence


def test_pool_from_candidates_roundtrip():
    pool = CandidatePool.from_candidates([(3, 0.5, True), (1, 0.9, False), (2, 0.7, False)])
    assert len(pool) == 3
    assert pool.ids.tolist() == [3, 1, 2]
    assert pool.scores.tolist() == [0.5, 0.9, 0.7]
    assert pool.protected.tolist() == [True, False, False]
    assert pool.ids.dtype == np.int64 and pool.protected.dtype == bool


def test_integer_ids_coerce_to_int64():
    pool = CandidatePool(np.array(["10", "2"], dtype=object), np.array([1.0, 2.0]), np.array([0, 1]))
    assert pool.ids.dtype == np.int64
    assert list(pool.ids) == [10, 2]


def test_non_numeric_ids_coerce_to_strings():
    pool = CandidatePool(
        np.array(["a", "b", "c10"], dtype=object),
        np.array([1.0, 2.0, 3.0]),
        np.array([0, 1, 0]),
    )
    assert pool.ids.dtype.kind == "U"
    assert list(pool.ids) == ["a", "b", "c10"]


def test_float_ids_become_integers_only_when_exact():
    exact = CandidatePool(np.array([1.0, 2.0]), np.array([0.1, 0.2]), np.array([0, 1]))
    assert exact.ids.dtype == np.int64
    assert list(exact.ids) == [1, 2]
    for ids, text in (
        ([1.5, 2.7], ["1.5", "2.7"]),
        ([1.2, 1.7], ["1.2", "1.7"]),  # distinct ids, not a truncated duplicate
        ([np.nan, 1e20], ["nan", "1e+20"]),
    ):
        pool = CandidatePool(np.array(ids), np.array([0.1, 0.2]), np.array([0, 1]))
        assert list(pool.ids) == text
    # Python floats passed through from_candidates follow the same rule
    pool = CandidatePool.from_candidates([(1.5, 0.9, False), (2.5, 0.8, True)])
    assert list(pool.ids) == ["1.5", "2.5"]
    pool = CandidatePool.from_candidates([(1.0, 0.9, False), (2, 0.8, True)])
    assert pool.ids.dtype == np.int64
    assert list(pool.ids) == [1, 2]


@pytest.mark.parametrize("flags", [["0", "1"], ["false", "true"], [0, 2], [0.5, 1], [None, 1]])
def test_protected_flags_are_booleans_or_zero_and_one(flags):
    with pytest.raises(ValueError, match="protected flags"):
        CandidatePool(np.array([1, 2]), np.array([0.1, 0.2]), flags)
    with pytest.raises(ValueError, match="protected flags"):
        CandidatePool.from_candidates([(1, 0.1, flags[0]), (2, 0.2, flags[1])])


@pytest.mark.parametrize("flags", [[False, True], [0, 1], [0.0, 1.0], np.array([0, 1], dtype=np.uint8)])
def test_accepted_protected_flags(flags):
    pool = CandidatePool(np.array([1, 2]), np.array([0.1, 0.2]), flags)
    assert pool.protected.dtype == bool
    assert list(pool.protected) == [False, True]
    assert list(CandidatePool.from_candidates(zip([1, 2], [0.1, 0.2], flags)).protected) == [
        False, True,
    ]


def test_validation_errors():
    with pytest.raises(ValueError):
        CandidatePool(np.array([1, 1]), np.array([0.1, 0.2]), np.array([0, 1]))  # dup ids
    with pytest.raises(ValueError):
        CandidatePool(np.array([1, 2]), np.array([0.1]), np.array([0, 1]))  # ragged
    with pytest.raises(ValueError):
        CandidatePool(np.array([1, 2]), np.array([0.1, np.nan]), np.array([0, 1]))
    with pytest.raises(ValueError):
        CandidatePool(np.array([1, 2]), np.array([0.1, np.inf]), np.array([0, 1]))
    with pytest.raises(ValueError, match="ids must be one-dimensional"):
        CandidatePool(np.array([[1], [2]]), np.array([0.1, 0.2]), np.array([0, 1]))


def test_columns_are_read_only():
    pool = CandidatePool.from_candidates([(1, 0.5, True)])
    with pytest.raises(ValueError):
        pool.scores[0] = 0.9
    with pytest.raises(ValueError):
        pool.protected[0] = False


def test_columns_leave_the_callers_arrays_writable():
    ids, scores, flags = np.array([1, 2]), np.array([0.5, 0.7]), np.array([False, True])
    pool = CandidatePool(ids, scores, flags)
    new_scores = np.array([0.1, 0.2])
    swapped = pool.with_scores(new_scores)
    ranked_flags = np.array([True, False])
    ranking = RankedSequence.from_flags(ranked_flags)
    for array in (ids, scores, flags, new_scores, ranked_flags):
        assert array.flags.writeable
    for column in (pool.ids, pool.scores, pool.protected, swapped.scores, ranking.protected):
        assert not column.flags.writeable
    # no copy: each column is a view of the caller's array
    assert np.shares_memory(pool.scores, scores)
    assert np.shares_memory(ranking.protected, ranked_flags)


def test_take_preserves_order():
    pool = CandidatePool.from_candidates([(1, 0.9, False), (2, 0.8, True), (3, 0.7, False)])
    ranking = pool.take([2, 0])
    assert isinstance(ranking, RankedSequence)
    assert list(ranking.ids) == [3, 1]
    assert list(ranking.scores) == [0.7, 0.9]


@pytest.mark.parametrize("cls", [CandidatePool, RankedSequence])
def test_with_scores_replaces_only_scores(cls):
    columns = cls.from_candidates([(1, 0.9, False), (2, 0.8, True)])
    swapped = columns.with_scores([0.1, 0.2])
    assert list(swapped.scores) == [0.1, 0.2]
    assert list(swapped.ids) == [1, 2]
    assert list(columns.scores) == [0.9, 0.8]  # original untouched


@pytest.mark.parametrize("cls", [CandidatePool, RankedSequence])
def test_with_scores_checks_only_the_new_scores(cls, monkeypatch):
    columns = cls.from_candidates([(1, 0.9, False), (2, 0.8, True)])

    def validate(self):
        raise AssertionError("ids and flags were checked again")

    monkeypatch.setattr(cls, "__post_init__", validate)
    assert list(columns.with_scores([0.1, 0.2]).scores) == [0.1, 0.2]
    for bad in ([0.1, np.nan], [np.inf, 0.2]):
        with pytest.raises(ValueError, match="scores must be finite"):
            columns.with_scores(bad)
    with pytest.raises(ValueError, match="ids, scores and protected must have equal length"):
        columns.with_scores([0.1, 0.2, 0.3])


@pytest.mark.parametrize("cls", [CandidatePool, RankedSequence])
def test_with_scores_shares_the_checked_columns(cls):
    columns = cls.from_candidates([(1, 0.9, False), (2, 0.8, True)])
    swapped = columns.with_scores(np.array([0.1, 0.2]))
    assert type(swapped) is cls
    assert swapped.ids is columns.ids
    assert swapped.protected is columns.protected
    for column in (swapped.ids, swapped.scores, swapped.protected):
        with pytest.raises(ValueError):
            column[0] = column[1]


def test_from_flags_synthesizes_descending_ranking():
    ranking = RankedSequence.from_flags([True, False, True])
    assert list(ranking.ids) == [1, 2, 3]
    assert list(ranking.scores) == [3.0, 2.0, 1.0]
    assert list(ranking.protected) == [True, False, True]


@given(st.lists(st.booleans(), max_size=40))
def test_from_flags_columns_equal_validated_constructor(flags):
    k = len(flags)
    built = RankedSequence.from_flags(flags)
    validated = RankedSequence(np.arange(1, k + 1), np.arange(k, 0, -1, dtype=np.float64), flags)
    for name in ("ids", "scores", "protected"):
        column, expected = getattr(built, name), getattr(validated, name)
        assert column.dtype == expected.dtype
        assert np.array_equal(column, expected)
        assert not column.flags.writeable


def test_prefix_counts_and_share():
    ranking = RankedSequence.from_flags([1, 0, 0, 1, 1])
    assert list(ranking.protected_prefix_counts()) == [1, 1, 1, 2, 3]
    assert ranking.protected_count == 3
    assert ranking.protected_share == pytest.approx(0.6)
    empty = CandidatePool(np.array([], dtype=np.int64), np.array([]), np.array([], dtype=bool))
    assert empty.protected_share == 0.0
