"""Bayesian additive regression trees with constant or linear leaf models."""

from .benchmark import (BenchmarkResult, EngineConfig, FriedmanSpec,
                        friedman_generate, parameter_accounting, rmse,
                        run_benchmark)
from .data import (Dataset, DataError, ScalingInfo, SplitDictionary, load_csv,
                   split_dictionary, standardize, train_test_split)
from .leaves import (bart_log_marginal, bart_sample_mu, build_leaf_design,
                     leaf_parameter_count, linear_log_marginal, linear_sample_beta)
from .sampler import (Hyperparams, PosteriorDraws, PredictionSummary, predict,
                      predict_stored, run_classification, run_regression)
from .trees import (MoveProposal, Partition, Tree, ancestor_covariates,
                    log_tree_prior, partition, propose_move, split_cdf,
                    split_covariates)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkResult", "EngineConfig", "FriedmanSpec", "friedman_generate",
    "parameter_accounting", "rmse",
    "run_benchmark", "Dataset", "DataError", "ScalingInfo", "SplitDictionary",
    "load_csv", "split_dictionary", "standardize", "train_test_split",
    "bart_log_marginal", "bart_sample_mu", "build_leaf_design",
    "leaf_parameter_count", "linear_log_marginal", "linear_sample_beta",
    "Hyperparams", "PosteriorDraws", "PredictionSummary", "predict",
    "predict_stored", "run_classification", "run_regression", "MoveProposal",
    "Partition", "Tree", "ancestor_covariates", "log_tree_prior", "partition",
    "propose_move", "split_cdf", "split_covariates",
]
