"""Pseudo-spectral SAV / improved-SAV solvers for 2-D periodic gradient flows."""

from .config import ConfigError, RunConfig, config_from_dict, initial_field, load_config
from .diagnostics import StepRecord, e2_energy, h1_error, original_energy, record_step
from .harness import (
    SchemeRuntimeError,
    compare_schemes,
    convergence_study,
    read_snapshot,
    run_simulation,
    write_snapshot,
)
from .potentials import (
    ConstantPotential,
    DoubleWell,
    FloryHugginsRegularized,
    NonPositiveBulkEnergyError,
    bulk_energy,
    r_of_phi,
    suggest_S,
)
from .schemes import (
    EnergyLawViolation,
    ModelParams,
    RankOneSystem,
    Scheme,
    SchemeState,
    bootstrap_bdf,
    dense_solve_oracle,
    make_initial_state,
    rank_one_solve,
    step,
)
from .spectral import (
    Field,
    Grid,
    apply_symbol,
    inner,
    make_grid,
    norms,
    operator_symbols,
    resample,
)

__version__ = "0.1.0"
