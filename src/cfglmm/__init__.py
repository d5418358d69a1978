"""Coarse-to-fine spatial GLMM.

Spatial regression for Gaussian, Poisson, and Bernoulli responses in which
the latent spatial effect is a sum of scale-wise layers, each a product of
kernel-weighted local Gaussian experts, grown coarse to fine and accepted
only when it lowers a holdout validation deviance.
"""

from .data import Dataset, FitConfig, HvSplit, ValidationError, make_split
from .evaluate import (
    ExperimentReport,
    TrialResult,
    pearson,
    pseudo_r2,
    rmse,
    run_experiment,
    scale_correlations,
    timing_curve,
)
from .experts import LayerUnfittableError, ScaleLayer, evaluate_layer, evaluate_stack, fit_layer, layer_basis_expansion
from .families import (
    BERNOULLI,
    GAUSSIAN,
    POISSON,
    CollinearityError,
    Family,
    deviance,
    fit_glm,
    get_family,
    wls_beta,
    working_state,
)
from .geometry import bbox_diagonal, center_count, place_centers
from .learner import CfModel, ScaleRecord, accepted_scale_count, fit_cf
from .model_io import load_model, read_dataset_csv, save_model, write_dataset_csv
from .prediction import (
    Predictions,
    ScaleBandDecomposition,
    coefficient_of_variation,
    decompose,
    predict,
)
from .simulate import SimScenario, gen_binomial, gen_poisson, generate

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "FitConfig",
    "HvSplit",
    "ValidationError",
    "make_split",
    "bbox_diagonal",
    "center_count",
    "place_centers",
    "ScaleLayer",
    "LayerUnfittableError",
    "fit_layer",
    "evaluate_layer",
    "evaluate_stack",
    "layer_basis_expansion",
    "Family",
    "GAUSSIAN",
    "POISSON",
    "BERNOULLI",
    "CollinearityError",
    "get_family",
    "deviance",
    "working_state",
    "wls_beta",
    "fit_glm",
    "CfModel",
    "ScaleRecord",
    "fit_cf",
    "accepted_scale_count",
    "Predictions",
    "ScaleBandDecomposition",
    "predict",
    "coefficient_of_variation",
    "decompose",
    "SimScenario",
    "generate",
    "gen_poisson",
    "gen_binomial",
    "rmse",
    "pseudo_r2",
    "pearson",
    "scale_correlations",
    "run_experiment",
    "timing_curve",
    "TrialResult",
    "ExperimentReport",
    "save_model",
    "load_model",
    "read_dataset_csv",
    "write_dataset_csv",
]
