"""Discrete-event simulator for outpatient queueing strategies.

Generates a fixed 368-patient cohort with longitudinal history records, then
compares three ways of running the morning session — token-order FCFS, static
rule-based triage, and an adaptive strategy with condition-drift monitoring
and history-driven escalation — over many seeded runs.
"""

from .engine import StrategyConfig, run_experiment, run_session
from .patients import generate_dataset

__version__ = "0.1.0"

__all__ = [
    "StrategyConfig",
    "generate_dataset",
    "run_experiment",
    "run_session",
    "__version__",
]
