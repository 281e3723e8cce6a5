"""Config validation is total: whatever JSON-shaped document it is given,
validating it and setting up the run's first step either succeeds or raises
ConfigError, drawn by hypothesis. No run is started."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isavflow import ConfigError, Grid
from isavflow.config import DEFAULT_OUTPUTS, KNOWN_KEYS, PRESETS, SCHEME_NAMES, config_from_dict
from isavflow.harness import _run_params

# Numbers at and beyond the edges of what a run can take: non-finite,
# zero, negative, beyond the float range, and extremes of either sign,
# subnormals included.
EXTREMES = [5e-324, 1e-320, 1e-308, 1e-200, 1e-160, 1e-154, 1e154, 1e160, 1e200, 1e308]
# Positive extremes are drawn most, as they pass the sign checks.
edge_numbers = st.sampled_from([0, -0.0, -1, math.inf, -math.inf, math.nan, 10**400, -(10**400),
                                2**63, *(-x for x in EXTREMES), *EXTREMES, *EXTREMES])
words = st.sampled_from(["paper-preset", "double-well", "flory-huggins", "ex1", "squares",
                         "disks", "random", "file", "series.csv", *SCHEME_NAMES])
scalars = st.one_of(edge_numbers, st.floats(), st.integers(), st.booleans(), st.none(),
                    st.text(max_size=4), words)
# Any JSON value: wrong types for every field, objects and lists included.
json_values = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6,
)
any_known_key = sorted({k for keys in KNOWN_KEYS.values() for k in keys})


def full_documents():
    """Each preset as a whole document: with its preset key, and expanded."""
    for name, preset in PRESETS.items():
        for scheme in SCHEME_NAMES:
            yield {"preset": f"{name}-{scheme}", "scheme": scheme, **preset["base"],
                   "S": "paper-preset", "assert_energy": True,
                   "outputs": {**DEFAULT_OUTPUTS, "field_snapshot_times": [0.0],
                               "record_every": 2}}


def lookup(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def leaf_paths(doc, prefix=()):
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from leaf_paths(value, prefix + (key,))


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@st.composite
def documents(draw):
    """A preset document with one or two of its entries, at any depth,
    set to an edge number, scaled by an extreme, set to any JSON value or
    dropped, plus maybe a stray key, known to some section, at the top."""
    doc = draw(st.sampled_from(list(full_documents())))
    doc = {k: dict(v) if isinstance(v, dict) else v for k, v in doc.items()}
    for _ in range(draw(st.integers(1, 2))):
        paths = list(leaf_paths(doc))
        if not paths:
            break
        how = draw(st.sampled_from(["edge", "edge", "edge", "scale", "scale", "json", "drop"]))
        numeric = [p for p in paths if p == ("S",) or is_number(lookup(doc, p))]
        path = draw(st.sampled_from(numeric if how in ("edge", "scale") and numeric else paths))
        parent = lookup(doc, path[:-1])
        if how == "drop":
            del parent[path[-1]]
        elif how == "json":
            parent[path[-1]] = draw(json_values)
        elif how == "scale" and is_number(parent[path[-1]]) and abs(parent[path[-1]]) <= 1e308:
            parent[path[-1]] *= draw(st.sampled_from(EXTREMES))
        else:
            parent[path[-1]] = draw(edge_numbers)
    if draw(st.integers(0, 9)) == 0:
        doc[draw(st.sampled_from(any_known_key))] = draw(json_values)
    return doc


MINIMAL_DW = {"scheme": "isav-be", "grid": {"nx": 8, "ny": 8, "lx": 6.0, "ly": 6.0},
              "model": {"alpha": 0.0, "gamma": 0.1}, "S": 6.0, "tau": 0.1, "t_end": 0.5,
              "init": {"kind": "ex1"}}


@settings(max_examples=500)
@given(doc=documents())
@example(doc={"preset": "ex2-isav-be", "potential": {"eps": 1e-200}})
@example(doc={**MINIMAL_DW, "potential": {"kind": "double-well", "eps": 1e-200}})
@example(doc={"preset": "ex1-isav-be", "S": 1e308, "tau": 10.0, "t_end": 10.0})
@example(doc={"preset": "ex1-sav-be", "S": 1e308, "tau": 10.0, "t_end": 10.0})
@example(doc={"preset": "ex1-isav-be", "grid": {"nx": 8, "ny": 8}, "model": {"gamma": 1e308},
              "tau": 10.0, "t_end": 10.0})
@example(doc={"preset": "ex3-isav-be", "potential": {"eps": 1e-160}})
@example(doc={"preset": "ex3-isav-be", "potential": {"eps": 1e-154}})
@example(doc={"preset": "ex1-isav-be", "grid": {"nx": 10**400}})
def test_validation_raises_only_config_errors(doc):
    # config_from_dict, then the run's ModelParams, symbols and step 1's
    # solve factors on a grid of at most 8^2 (never finer than the config's
    # own, so its wavenumbers are no larger)
    try:
        cfg = config_from_dict(doc)
        g = cfg.grid
        _run_params(cfg, Grid(min(g["nx"], 8), min(g["ny"], 8), g["lx"], g["ly"]))
    except ConfigError:
        pass
