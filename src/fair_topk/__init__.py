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
from .binomial import cdf, minimum_counts, percent_point, pmf
from .candidates import Candidate, CandidatePool, RankedSequence
from .experiment import (
    DataLoadError,
    DatasetSpec,
    ExperimentRow,
    emit_curve_data,
    load_candidates,
    load_ranking,
    load_spec,
    run_experiment,
    save_candidates,
)
from .fairness import (
    FairnessVerdict,
    MTable,
    compute_mtable,
    fair_representation,
    ranked_group_fairness_measure,
    verify_ranked_group_fairness,
)
from .metrics import (
    OrderingResult,
    UtilityReport,
    evaluate_ranking,
    ndcg,
    normalize_scores,
    ordering_utility,
    ranked_utility,
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
    "Candidate",
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
    "fair_representation",
    "fair_topk",
    "feldman_repair",
    "load_candidates",
    "load_ranking",
    "load_spec",
    "minimum_counts",
    "ndcg",
    "normalize_scores",
    "ordering_utility",
    "percent_point",
    "pmf",
    "ranked_group_fairness_measure",
    "ranked_utility",
    "rejection_probability",
    "run_experiment",
    "save_candidates",
    "selection_utility",
    "simulate_rejection_rate",
    "verify_ranked_group_fairness",
    "yang_stoyanovich_generate",
]
