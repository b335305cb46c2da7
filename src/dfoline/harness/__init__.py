"""Experiment harness: validated JSON configs, CSV writers, runners, CLI."""

from .config import ConfigError, config_hash, load_config, validate_config
from .runners import run_gradient_accuracy, run_optimization, run_verify_bounds
