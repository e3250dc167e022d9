"""The package's public names: listed once, all importable, none stale."""
import fair_topk


def test_all_has_no_duplicates():
    assert len(fair_topk.__all__) == len(set(fair_topk.__all__))


def test_every_public_name_resolves():
    missing = [name for name in fair_topk.__all__ if not hasattr(fair_topk, name)]
    assert missing == []


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from fair_topk import *", namespace)
    assert set(fair_topk.__all__) <= set(namespace)


def test_the_calibration_gate_error_is_exported_once():
    assert fair_topk.__all__.count("InfeasibleAdjustmentError") == 1
    assert fair_topk.InfeasibleAdjustmentError is fair_topk.adjustment.InfeasibleAdjustmentError
    assert issubclass(fair_topk.InfeasibleAdjustmentError, ValueError)


def test_removed_names_stay_removed():
    for name in ("BinomialParams", "BlockDecomposition", "decompose_blocks", "ExperimentReport"):
        assert name not in fair_topk.__all__
        assert not hasattr(fair_topk, name)
