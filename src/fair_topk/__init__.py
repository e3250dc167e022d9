"""Fairness-constrained top-k ranking: statistical tests, calibration,
re-ranking, baselines, and an experiment harness."""

from .adjustment import (
    AdjustmentResult,
    InfeasibleAdjustmentError,
    SimulationResult,
    adjust_significance,
    rejection_probability,
    simulate_rejection_rate,
)
from .baselines import RepairedPool, feldman_repair, yang_stoyanovich_generate
from .binomial import cdf, minimum_counts, percent_point
from .candidates import CandidatePool, RankedSequence
from .experiment import (
    DataLoadError,
    DatasetSpec,
    ExperimentRow,
    emit_curve_data,
    load_candidates,
    load_ranking,
    load_spec,
    run_experiment,
)
from .fairness import (
    FairnessVerdict,
    MTable,
    compute_mtable,
    ranked_group_fairness_measure,
    verify_ranked_group_fairness,
)
from .metrics import (
    OrderingResult,
    UtilityReport,
    evaluate_ranking,
    ndcg,
    ordering_utility,
    selection_utility,
)
from .ranker import (
    FairRanking,
    InfeasibleRankingError,
    color_blind_topk,
    fair_topk,
)
from .store import cached_adjustment

__version__ = "0.1.0"

__all__ = [
    "AdjustmentResult",
    "CandidatePool",
    "DataLoadError",
    "DatasetSpec",
    "ExperimentRow",
    "FairRanking",
    "FairnessVerdict",
    "InfeasibleAdjustmentError",
    "InfeasibleRankingError",
    "MTable",
    "OrderingResult",
    "RankedSequence",
    "RepairedPool",
    "SimulationResult",
    "UtilityReport",
    "adjust_significance",
    "cached_adjustment",
    "cdf",
    "color_blind_topk",
    "compute_mtable",
    "emit_curve_data",
    "evaluate_ranking",
    "fair_topk",
    "feldman_repair",
    "load_candidates",
    "load_ranking",
    "load_spec",
    "minimum_counts",
    "ndcg",
    "ordering_utility",
    "percent_point",
    "ranked_group_fairness_measure",
    "rejection_probability",
    "run_experiment",
    "selection_utility",
    "simulate_rejection_rate",
    "verify_ranked_group_fairness",
    "yang_stoyanovich_generate",
]
