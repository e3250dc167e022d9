"""The package's public names: listed once, all importable, none stale."""
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

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


# names deleted because nothing but the tests called them
REMOVED = ("BinomialParams", "BlockDecomposition", "decompose_blocks", "ExperimentReport",
           "Candidate", "fair_representation", "normalize_scores", "pmf", "pmf_vector",
           "ranked_utility", "save_candidates")
# members deleted for the same reason, kept off every container, table and verdict
REMOVED_MEMBERS = ("from_candidates", "protected_count", "protected_share", "requirement",
                   "deficit")


def test_removed_names_stay_removed():
    modules = [fair_topk] + [
        importlib.import_module(f"fair_topk.{info.name}")
        for info in pkgutil.iter_modules(fair_topk.__path__)
    ]
    for module in modules:
        for name in REMOVED:
            assert name not in getattr(module, "__all__", ()), (module.__name__, name)
            assert not hasattr(module, name), (module.__name__, name)
    assert not hasattr(fair_topk.CandidatePool, "__iter__")  # rows are read as columns
    for cls in (fair_topk.CandidatePool, fair_topk.RankedSequence, fair_topk.MTable,
                fair_topk.FairnessVerdict):
        for name in REMOVED_MEMBERS:
            assert not hasattr(cls, name), (cls.__name__, name)


def test_ndcg_scores_a_ranking_against_a_pool_and_nothing_else():
    assert list(inspect.signature(fair_topk.ndcg).parameters) == ["ranking", "pool"]


ROOT = Path(__file__).resolve().parents[1]


def _public_members(cls):
    """(class, name) of each public method or property defined in the body of
    the class or of a base inside the package; dataclass and NamedTuple
    fields are not defined as methods, so they are left out."""
    for base in cls.__mro__:
        if not base.__module__.startswith("fair_topk"):
            continue
        for name, value in vars(base).items():
            if isinstance(value, (staticmethod, classmethod)):
                value = value.__func__
            if not name.startswith("_") and (inspect.isfunction(value)
                                             or isinstance(value, property)):
                yield base.__name__, name


def test_every_public_member_has_a_caller_outside_the_tests():
    # a member only tests call buys nothing: give it a caller or delete it
    code = "\n".join(path.read_text(encoding="utf-8")
                     for folder in ("src", "scripts", "bench")
                     for path in sorted((ROOT / folder).rglob("*.py")))
    classes = [value for value in map(fair_topk.__dict__.get, fair_topk.__all__)
               if inspect.isclass(value)]
    members = {member for cls in classes for member in _public_members(cls)}
    assert ("CandidatePool", "take") in members  # the walk finds what it should
    uncalled = sorted(member for member in members
                      if not re.search(rf"\.{member[1]}\b", code))
    assert uncalled == []


README = ROOT / "README.md"
# a backticked call, then the submodule the text names for it, if any
DOCUMENTED_CALL = re.compile(r"`([A-Za-z_][\w.]*)\([^`]*`(?: \(from `(fair_topk[\w.]*)`\))?")
# call-shaped spans of the README that name no function: the table m(i), the
# binomial cdf F(x; i, p), and a loop variable over ExperimentRow
PROSE_NAMES = {"m", "F", "row"}


def test_every_call_the_readme_documents_resolves():
    calls = DOCUMENTED_CALL.findall(README.read_text(encoding="utf-8"))
    unresolved = []
    for name, module_name in calls:
        if name.split(".")[0] in PROSE_NAMES:
            continue
        value = importlib.import_module(module_name or "fair_topk")
        for part in name.split("."):
            value = getattr(value, part, None)
        if not callable(value):
            unresolved.append(name)
    assert unresolved == []
    assert {"cdf", "minimum_counts", "run_experiment", "output.write"} <= {n for n, _ in calls}
