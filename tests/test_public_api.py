"""The public surface, pinned: the names the package exports at its top level
and in each module's __all__. A change to either list is a deliberate API
change and updates the lists here."""

import importlib
import inspect
import pkgutil

import pytest

import isavflow

TOP_LEVEL = [
    "ConfigError", "DoubleWell", "EnergyLawViolation", "Field", "FloryHugginsRegularized",
    "Grid", "ModelParams", "NonPositiveBulkEnergyError", "RunConfig", "Scheme",
    "SchemeRuntimeError", "SchemeState", "StepRecord", "bulk_energy",
    "compare_schemes", "config_from_dict", "convergence_study", "h1_error", "initial_field",
    "load_config", "make_grid", "make_initial_state", "original_energy",
    "read_snapshot", "record_step", "resample", "run_simulation", "step", "suggest_S",
    "write_snapshot",
]

MODULE_ALL = {
    "config": ["ConfigError", "RunConfig", "load_config", "config_from_dict",
               "initial_field", "preset_summary"],
    "diagnostics": ["StepRecord", "original_energy", "h1_error", "record_step"],
    "harness": ["SchemeRuntimeError", "run_simulation", "convergence_study", "compare_schemes",
                "write_series_csv", "write_snapshot", "read_snapshot", "resolve_outdir"],
    "potentials": ["DoubleWell", "FloryHugginsRegularized", "NonPositiveBulkEnergyError",
                   "bulk_energy", "suggest_S"],
    "schemes": ["Scheme", "ModelParams", "SchemeState", "EnergyLawViolation",
                "make_initial_state", "step"],
    "spectral": ["Grid", "Field", "make_grid", "quad_form_hat", "resample"],
}


def test_top_level_names():
    public = sorted(
        name for name, value in vars(isavflow).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert public == sorted(TOP_LEVEL)
    assert len(TOP_LEVEL) == 30


@pytest.mark.parametrize("module", sorted(MODULE_ALL))
def test_module_all(module):
    mod = importlib.import_module(f"isavflow.{module}")
    assert sorted(mod.__all__) == sorted(MODULE_ALL[module])
    assert all(hasattr(mod, name) for name in mod.__all__)


def test_module_all_total():
    with_all = {
        info.name for info in pkgutil.iter_modules(isavflow.__path__)
        if hasattr(importlib.import_module(f"isavflow.{info.name}"), "__all__")
    }
    assert with_all == set(MODULE_ALL)
    assert sum(len(names) for names in MODULE_ALL.values()) == 34
