"""Minimum-count tables, block structure, and the prefix fairness test."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fair_topk import (
    MTable,
    RankedSequence,
    compute_mtable,
    minimum_counts,
    ranked_group_fairness_measure,
    verify_ranked_group_fairness,
)
from anchors import MTABLE_GRID_ALPHA01

# the worked example rankings: protected-group membership per position
ECONOMIST = [1, 0, 0, 0, 0, 0, 0, 0, 0, 0]  # protected = female
ANALYST = [0, 1, 0, 0, 0, 0, 0, 1, 0, 0]  # female-heavy list; protected = male
COPYWRITER = [0, 0, 0, 0, 0, 0, 1, 0, 0, 0]  # protected = female


@pytest.mark.parametrize("p", sorted(MTABLE_GRID_ALPHA01))
def test_mtable_reference_grid(p):
    table = compute_mtable(12, p, 0.1)
    assert np.array_equal(table.minima, MTABLE_GRID_ALPHA01[p])


def test_mtable_k10_row():
    assert list(compute_mtable(10, 0.5, 0.1).minima) == [0, 0, 0, 1, 1, 1, 2, 2, 3, 3]


def test_mtable_rejects_malformed_minima():
    with pytest.raises(ValueError):
        MTable(3, 0.5, 0.1, np.array([0, 1]))  # wrong length
    # a count path starts at 0 or 1 and steps by 0 or 1, so it never exceeds its prefix length
    for minima in ([1, 0, 0], [0, 2, 2], [2, 2, 2], [-1, 0, 1]):
        with pytest.raises(ValueError, match="rise by 0 or 1"):
            MTable(3, 0.5, 0.1, np.array(minima))
    with pytest.raises(ValueError, match="rise by 0 or 1"):
        MTable(2, 0.9, 0.5, np.array([1, 3]))  # exceeds prefix length


def test_mtable_rejects_fractional_minima():
    with pytest.raises(ValueError, match="minima must be integers"):
        MTable(2, 0.5, 0.1, np.array([0.5, 1.0]))
    assert MTable(2, 0.5, 0.1, np.array([0.0, 1.0])).minima.tolist() == [0, 1]


def test_blocks_reference_case():
    table = compute_mtable(12, 0.5, 0.1)
    assert list(table.inverse) == [4, 7, 9, 12]
    assert list(np.diff(table.inverse, prepend=0)) == [4, 3, 2, 3]
    assert not table.inverse.flags.writeable
    # derived from minima: neither a constructor argument nor shown
    assert "inverse" not in repr(table)
    with pytest.raises(TypeError):
        MTable(12, 0.5, 0.1, table.minima, inverse=table.inverse)


def test_mtable_leaves_the_callers_array_writable():
    minima = np.array([0, 1])
    table = MTable(2, 0.9, 0.5, minima)
    assert minima.flags.writeable
    assert not table.minima.flags.writeable


def test_blocks_small_and_empty():
    two = MTable(2, 0.9, 0.5, np.array([0, 1]))
    assert list(two.inverse) == [2] and two.inverse.dtype == np.int64
    flat = compute_mtable(12, 0.1, 0.1)
    assert flat.inverse.shape == (0,)


@given(
    k=st.integers(1, 200),
    p=st.floats(0.05, 0.95),
    alpha=st.floats(0.01, 0.4),
)
@settings(deadline=None, max_examples=60)
def test_blocks_partition_the_ranking(k, p, alpha):
    table = compute_mtable(k, p, alpha)
    blocks = np.diff(table.inverse, prepend=0)
    assert blocks.sum() == (table.inverse[-1] if len(table.inverse) else 0)
    # increment positions must be exactly where the table steps up
    recovered = np.zeros(k, dtype=np.int64)
    for position in table.inverse:
        recovered[position - 1 :] += 1
    assert np.array_equal(recovered, table.minima)


def test_fair_representation_strict_boundary():
    # F(0; 1, 0.5) = 0.5: a prefix passes only when its cdf is strictly above alpha
    assert minimum_counts(1, 0.5, 0.49).tolist() == [0]
    assert minimum_counts(1, 0.5, 0.5).tolist() == [1]
    assert minimum_counts(1, 0.5, 0.99).tolist() == [1]  # F(1; 1, 0.5) = 1
    for alpha in (1.5, -0.1, 0.0, 1.0):
        with pytest.raises(ValueError, match=r"alpha must lie in the open interval \(0, 1\)"):
            minimum_counts(1, 0.5, alpha)


def test_worked_example_sequences():
    economist = verify_ranked_group_fairness(RankedSequence.from_flags(ECONOMIST), 0.4, 0.1)
    assert not economist.fair
    assert economist.first_violation == 9
    assert economist.required == 2 and economist.observed == 1
    assert economist.required - economist.observed == 1

    copywriter = verify_ranked_group_fairness(RankedSequence.from_flags(COPYWRITER), 0.4, 0.1)
    assert not copywriter.fair
    assert copywriter.first_violation == 5
    assert copywriter.required == 1 and copywriter.observed == 0

    analyst = verify_ranked_group_fairness(RankedSequence.from_flags(ANALYST), 0.4, 0.1)
    assert analyst.fair
    assert analyst.first_violation is None
    assert analyst.required is None and analyst.observed is None

    # at the stronger proportion the same list stops being fair
    assert not verify_ranked_group_fairness(RankedSequence.from_flags(ANALYST), 0.5, 0.1).fair


def test_measure_frozen_values():
    all_protected = RankedSequence.from_flags([1, 1, 1])
    assert ranked_group_fairness_measure(all_protected, 0.5) == pytest.approx(1.0, abs=1e-12)
    none_protected = RankedSequence.from_flags([0, 0])
    # min over prefixes of F(0; i, 0.5) = 0.25 at i = 2
    assert ranked_group_fairness_measure(none_protected, 0.5) == pytest.approx(0.25, abs=1e-12)
    economist = RankedSequence.from_flags(ECONOMIST)
    # minimum sits at the full prefix: F(1; 10, 0.4) = 0.6^10 + 10*0.4*0.6^9
    assert ranked_group_fairness_measure(economist, 0.4) == pytest.approx(
        0.0463574016, abs=1e-12
    )


@given(
    flags=st.lists(st.booleans(), min_size=1, max_size=60),
    p=st.floats(0.05, 0.95),
    alpha=st.floats(0.01, 0.5),
)
@settings(deadline=None, max_examples=80)
def test_measure_thresholds_the_verdict(flags, p, alpha):
    """The measure is the supremum of passing significances."""
    ranking = RankedSequence.from_flags(flags)
    measure = ranked_group_fairness_measure(ranking, p)
    verdict = verify_ranked_group_fairness(ranking, p, alpha)
    if alpha < measure - 1e-9:
        assert verdict.fair
    elif alpha > measure + 1e-9:
        assert not verdict.fair


@given(
    flags=st.lists(st.booleans(), min_size=1, max_size=40),
    p=st.floats(0.1, 0.9),
    alpha=st.floats(0.01, 0.4),
)
@settings(deadline=None, max_examples=60)
def test_appending_protected_never_breaks_fairness(flags, p, alpha):
    ranking = RankedSequence.from_flags(flags)
    if not verify_ranked_group_fairness(ranking, p, alpha).fair:
        return
    extended = RankedSequence.from_flags(list(flags) + [True])
    assert verify_ranked_group_fairness(extended, p, alpha).fair


@given(
    k=st.integers(1, 120),
    p=st.floats(0.1, 0.9),
    alpha=st.floats(0.01, 0.4),
)
@settings(deadline=None, max_examples=60)
def test_minimally_fair_ranking_passes(k, p, alpha):
    """Placing protected candidates exactly at the increment positions is fair."""
    table = compute_mtable(k, p, alpha)
    flags = np.diff(table.minima, prepend=0) == 1
    verdict = verify_ranked_group_fairness(RankedSequence.from_flags(flags), p, alpha)
    assert verdict.fair


def test_verdict_on_empty_ranking_rejected():
    with pytest.raises(ValueError):
        verify_ranked_group_fairness(
            RankedSequence(np.array([], dtype=np.int64), np.array([]), np.array([], dtype=bool)),
            0.5,
            0.1,
        )
