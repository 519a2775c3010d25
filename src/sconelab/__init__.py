"""Desk-scale open-world training lab: energy-margin OOD objectives with
temporal confidence regularization on synthetic drifting streams."""

from .config import ExperimentSpec, parse_config
from .losses import Hyperparams, LossBreakdown
from .metrics import MetricsRecord, accuracy, fit_threshold, fpr_at_tpr
from .model import ModelParams, OptimizerConfig, init_params
from .scores import ScoreKind
from .stream import DomainSnapshot, StreamConfig, WildBatch
from .trainer import METHODS, RunConfig, run_stream

__all__ = [
    "ExperimentSpec",
    "parse_config",
    "Hyperparams",
    "LossBreakdown",
    "MetricsRecord",
    "accuracy",
    "fit_threshold",
    "fpr_at_tpr",
    "ModelParams",
    "OptimizerConfig",
    "init_params",
    "ScoreKind",
    "DomainSnapshot",
    "StreamConfig",
    "WildBatch",
    "METHODS",
    "RunConfig",
    "run_stream",
]
