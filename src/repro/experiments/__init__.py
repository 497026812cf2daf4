"""Experiment harness reproducing every table and figure of the paper."""

from repro.experiments.config import (
    SCALE_PRESETS,
    ExperimentConfig,
    config_from_env,
)
from repro.experiments.pipeline import (
    MethodEvaluation,
    PreparedCase,
    Victim,
    derive_target_labels,
    evaluate_feature_attack_method,
    prepare_case,
    select_victims,
)
from repro.experiments.preliminary import (
    DegreeBinResult,
    preliminary_inspection_study,
)
from repro.experiments.reporting import (
    finite_mean,
    format_comparison_table,
    format_mean_std,
    format_series,
    format_table,
    mean_of_finite,
    summarize_reports,
)
from repro.experiments.sweeps import (
    PAPER_L_GRID,
    PAPER_LAMBDA_GRID,
    PAPER_T_GRID,
    SweepPoint,
)
from repro.experiments.table_runner import (
    METHOD_ORDER,
    ComparisonResult,
    aggregate_runs,
)

__all__ = [
    "SCALE_PRESETS",
    "ExperimentConfig",
    "config_from_env",
    "MethodEvaluation",
    "PreparedCase",
    "Victim",
    "derive_target_labels",
    "evaluate_feature_attack_method",
    "prepare_case",
    "select_victims",
    "DegreeBinResult",
    "preliminary_inspection_study",
    "finite_mean",
    "format_comparison_table",
    "format_mean_std",
    "format_series",
    "format_table",
    "mean_of_finite",
    "summarize_reports",
    "PAPER_L_GRID",
    "PAPER_LAMBDA_GRID",
    "PAPER_T_GRID",
    "SweepPoint",
    "METHOD_ORDER",
    "ComparisonResult",
    "aggregate_runs",
]
