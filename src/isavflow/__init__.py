"""Pseudo-spectral SAV / improved-SAV solvers for 2-D periodic gradient flows."""

from .config import ConfigError, RunConfig, config_from_dict, initial_field, load_config
from .diagnostics import StepRecord, h1_error, original_energy, record_step
from .harness import (
    EnergyLawViolation,
    SchemeRuntimeError,
    compare_schemes,
    convergence_study,
    read_snapshot,
    run_simulation,
    write_snapshot,
)
from .potentials import (
    DoubleWell,
    FloryHugginsRegularized,
    NonPositiveBulkEnergyError,
    bulk_energy,
    suggest_S,
)
from .schemes import ModelParams, Scheme, SchemeState, make_initial_state, step
from .spectral import Field, Grid, resample

__version__ = "0.1.0"
