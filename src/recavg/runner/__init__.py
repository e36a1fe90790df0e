"""Scenario runner: configuration, artifacts, sweeps, verification, CLI."""

from .artifacts import run_scenario
from .config import ConfigError, Scenario, load_config, parse_pi_value, scenario_from_dict
from .scenarios import BUILTIN_NAMES, built_in
from .sweep import run_sweep
from .verify import VerificationReport, verify_averaging

__all__ = [
    "BUILTIN_NAMES",
    "ConfigError",
    "Scenario",
    "VerificationReport",
    "built_in",
    "load_config",
    "parse_pi_value",
    "run_scenario",
    "run_sweep",
    "scenario_from_dict",
    "verify_averaging",
]
