"""The public surface, pinned: the names the package exports at its top level
and in each module's __all__, and the fields of its public dataclasses. A
change to any of these is a deliberate API change and updates the lists
here. Every function, class and method of the package is exported or used."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
from collections import Counter
from pathlib import Path

import pytest

import isavflow

TOP_LEVEL = [
    "ConfigError", "DoubleWell", "EnergyLawViolation", "Field", "FloryHugginsRegularized",
    "Grid", "ModelParams", "NonPositiveBulkEnergyError", "RunConfig", "Scheme",
    "SchemeRuntimeError", "SchemeState", "StepRecord", "bulk_energy",
    "compare_schemes", "config_from_dict", "convergence_study", "h1_error", "initial_field",
    "load_config", "make_initial_state", "original_energy",
    "read_snapshot", "record_step", "resample", "run_simulation", "step", "suggest_S",
    "write_snapshot",
]

MODULE_ALL = {
    "config": ["ConfigError", "RunConfig", "load_config", "config_from_dict",
               "initial_field", "preset_summary"],
    "diagnostics": ["StepRecord", "original_energy", "h1_error", "record_step"],
    "harness": ["EnergyLawViolation", "SchemeRuntimeError", "run_simulation", "convergence_study",
                "compare_schemes", "write_series_csv", "write_snapshot", "read_snapshot",
                "resolve_outdir"],
    "potentials": ["DoubleWell", "FloryHugginsRegularized", "NonPositiveBulkEnergyError",
                   "bulk_energy", "suggest_S"],
    "schemes": ["Scheme", "ModelParams", "SchemeState", "make_initial_state", "step"],
    "spectral": ["Grid", "Field", "quad_form_hat", "resample"],
}

# In order: StepRecord's order is the series CSV's column order.
DATACLASS_FIELDS = {
    "ModelParams": ["alpha", "gamma", "S", "tau", "potential", "_symbols"],
    "SchemeState": ["scheme", "phi_n", "step_index", "phi_nm1", "r_n", "r_nm1", "r_report",
                    "F_n", "F_nm1", "e_lin", "E2"],
    "StepRecord": ["step", "t", "E_orig", "E_mod", "E2", "D_be", "D_bdf", "r_drift", "mass",
                   "min_phi", "max_phi"],
}


def test_top_level_names():
    public = sorted(
        name for name, value in vars(isavflow).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert public == sorted(TOP_LEVEL)
    assert len(TOP_LEVEL) == 29


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
    assert sum(len(names) for names in MODULE_ALL.values()) == 33


@pytest.mark.parametrize("name", sorted(DATACLASS_FIELDS))
def test_dataclass_fields(name):
    fields = [f.name for f in dataclasses.fields(getattr(isavflow, name))]
    assert fields == DATACLASS_FIELDS[name]


def test_step_only_steps():
    # a step takes the state and the parameters and returns the new state;
    # its record is record_step(new, params, state), built by the caller
    sig = inspect.signature(isavflow.step)
    assert list(sig.parameters) == ["state", "params"]
    assert sig.return_annotation == "SchemeState"


def test_every_definition_is_exported_or_named_elsewhere():
    # A definition that no module exports and no other line of src/ names
    # (a call, an override, a docstring) serves nothing a run reaches.
    sources = [path.read_text() for path in sorted(Path(isavflow.__file__).parent.glob("*.py"))]
    exported = {name for names in MODULE_ALL.values() for name in names}
    defs = Counter(
        node.name for src in sources for node in ast.walk(ast.parse(src))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    )
    text = "\n".join(sources)
    unnamed = sorted(
        name for name in defs
        if name not in exported and not (name.startswith("__") and name.endswith("__"))
        and len(re.findall(rf"\b{re.escape(name)}\b", text)) <= defs[name]
    )
    assert unnamed == []
