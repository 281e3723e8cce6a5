"""Run configuration: JSON schema, experiment presets, initial conditions.

A run is described by a single JSON document. A ``preset`` key expands to
the parameter set of one of the four canonical experiments before the
user's own keys are applied on top, so a minimal config can be as short as
``{"preset": "ex1-isav-be"}``. One table, KEYS, gives every key's default
and rules; validation errors carry the dotted path of the offending field
and abort with a dedicated exception that the CLI maps to exit code 2.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .potentials import DoubleWell, FloryHugginsRegularized, Potential
from .schemes import Scheme
from .spectral import Field, Grid

__all__ = [
    "ConfigError",
    "RunConfig",
    "load_config",
    "config_from_dict",
    "initial_field",
    "preset_summary",
]

TWO_PI = 2.0 * math.pi

SCHEME_NAMES = tuple(s.value for s in Scheme)


class ConfigError(ValueError):
    """Configuration file does not satisfy the schema."""


@dataclass
class RunConfig:
    """Validated run description; field order fixes the layout of asdict(cfg)."""

    scheme: str
    grid: dict
    model: dict
    potential: dict
    S: float
    tau: float
    t_end: float
    init: dict
    outputs: dict
    assert_energy: bool = False

    def n_steps(self) -> int:
        return int(round(self.t_end / self.tau))

    def make_grid(self) -> Grid:
        return Grid(**self.grid)

    def make_potential(self) -> Potential:
        p = dict(self.potential)
        kind = DoubleWell if p.pop("kind") == "double-well" else FloryHugginsRegularized
        return kind(**p)


# --- presets ---------------------------------------------------------------
#
# Each preset is a base document plus formulas for the stabilization
# coefficient and the additive bulk constant in terms of the (possibly
# user-overridden) interface parameter eps.

PRESETS = {
    "ex1": {
        "doc": "smooth relaxation on [0,2pi]^2, double well, eps=1",
        "base": {
            "grid": {"nx": 64, "ny": 64, "lx": TWO_PI, "ly": TWO_PI},
            "model": {"alpha": 0.0, "gamma": 0.1},
            "potential": {"kind": "double-well", "eps": 1.0, "c_add": 0.0},
            "tau": 0.05,
            "t_end": 0.5,
            "init": {"kind": "ex1"},
        },
        "S": lambda eps: 6.0,
        "c_add": lambda eps: 0.0,
    },
    "ex2": {
        "doc": "two squares on [0,6.4]^2, conserved flow, double well",
        "base": {
            "grid": {"nx": 128, "ny": 128, "lx": 6.4, "ly": 6.4},
            "model": {"alpha": 1.0, "gamma": 0.01},
            "potential": {"kind": "double-well", "eps": 0.04},
            "tau": 0.01,
            "t_end": 1.0,
            "init": {"kind": "squares"},
        },
        "S": lambda eps: 3.0 / eps**2,
        "c_add": lambda eps: 1.0,
    },
    "ex3": {
        "doc": "two disks on [0,2pi]^2, regularized Flory-Huggins",
        "base": {
            "grid": {"nx": 128, "ny": 128, "lx": TWO_PI, "ly": TWO_PI},
            "model": {"alpha": 0.0, "gamma": 0.5},
            "potential": {"kind": "flory-huggins", "eps": 0.04, "beta": 3.0, "sigma": 0.01},
            "tau": 0.01,
            "t_end": 1.0,
            "init": {"kind": "disks"},
        },
        "S": lambda eps: 10.0 / eps**2,
        "c_add": lambda eps: 0.06 / eps**2,
    },
}
# ex4 is ex3 started from seeded random data.
PRESETS["ex4"] = {
    **PRESETS["ex3"],
    "doc": "seeded random data, regularized Flory-Huggins",
    "base": {**PRESETS["ex3"]["base"], "init": {"kind": "random", "seed": 0}},
}


def preset_summary() -> str:
    lines = [f"{name:4s}  {p['doc']}" for name, p in PRESETS.items()]
    return "\n".join(lines + ["", "A preset may carry a scheme suffix, e.g. ex1-isav-be."])


def _expand(doc: dict) -> dict:
    """doc with its preset, if it names one, expanded: the preset's base and
    scheme suffix under doc's own keys, object by object, and the preset's
    formulas in eps for an S that is missing or "paper-preset" and for a
    missing c_add."""
    doc = dict(doc)
    raw_name = doc.pop("preset", None)
    if raw_name is None:
        return doc
    name = str(raw_name)
    scheme = next((s for s in SCHEME_NAMES if name.endswith("-" + s)), None)
    preset = PRESETS.get(name[: -len(scheme) - 1] if scheme else name)
    if preset is None:
        raise ConfigError(f"preset: unknown preset {raw_name!r}")
    base = {"scheme": scheme, **preset["base"], "S": preset["S"],
            "potential": {"c_add": preset["c_add"], **preset["base"]["potential"]}}
    doc = {**base, **{k: {**base[k], **v} if isinstance(v, dict) and isinstance(base.get(k), dict)
                      else v for k, v in doc.items()}}
    if doc["S"] == "paper-preset":
        doc["S"] = preset["S"]
    return doc


def _check(path, value, rules, config):
    """value put through rules in order. A rule (test, message), or (test,
    message, the values at which test flips), fails the document with
    "path: message" unless test(value, config) holds, config holding the keys
    checked before; message may be a function of the same two. Any other
    function of (value, config) converts the value."""
    for rule in rules:
        if callable(rule):
            value = rule(value, config)
        elif not rule[0](value, config):
            raise ConfigError(f"{path}: {rule[1](value, config) if callable(rule[1]) else rule[1]}")
    return value


def _is(*types):
    """A test that the value is of one of types, a bool being no number."""
    return lambda v, c: isinstance(v, types) and (bool in types or not isinstance(v, bool))


def _on_step(name):
    """The rule that a time is an integer multiple of tau, to 4 ulp of a finite step count."""
    def test(t, c):
        steps = t / c["tau"]
        return math.isfinite(steps) and (
            abs(steps - round(steps)) <= 4 * np.finfo(float).eps * max(1.0, steps))
    return test, lambda t, c: f"must be an integer multiple of tau ({name}/tau = {t / c['tau']})"


MAX = sys.float_info.max
# A number is finite (exactly, for any int) and a float from then on.
NUMBER = ((_is(int, float), "must be a number"),
          (lambda v, c: abs(v) <= MAX, "must be finite"),
          lambda v, c: float(v))
POSITIVE = (*NUMBER, (lambda v, c: v > 0, "must be positive", (0.0,)))
NONNEGATIVE = (*NUMBER, (lambda v, c: v >= 0, "must be nonnegative", (0.0,)))
GRID_N = ((_is(int), "must be an integer"),
          (lambda v, c: 4 <= v <= sys.maxsize and v % 2 == 0,
           f"must be even and in [4, {sys.maxsize}]", (4, sys.maxsize)))


def _max_k2(g):
    kx, ky = math.pi * g["nx"] / g["lx"], math.pi * g["ny"] / g["ly"]
    return kx * kx + ky * ky


# Rules that span keys run right after the last key they read; these check
# the whole grid, once ly is checked.
GRID_FITS = (
    # numpy allocates no array beyond sys.maxsize bytes; a run's largest takes <= 16*nx*ny
    (lambda g, c: 16 * g["nx"] * g["ny"] <= sys.maxsize,
     lambda g, c: f"nx={g['nx']} by ny={g['ny']} is too large to allocate"),
    (lambda g, c: _max_k2(g) <= MAX / 2,
     "lx or ly too small for its nx or ny: the largest |k|^2 overflows"),
    (lambda g, c: math.isfinite(g["lx"] / g["nx"] * (g["ly"] / g["ny"])),
     "lx or ly too large for its nx or ny: the cell area overflows"),
)
SNAPSHOT_TIME = (
    *NUMBER,
    (lambda t, c: 0.0 <= t <= c["t_end"],
     lambda t, c: f"must lie in [0, t_end] = [0, {c['t_end']!r}]"),
    _on_step("t"),
)


def _snapshot_times(times, c):
    """Each time checked by SNAPSHOT_TIME at its own index; no two name one step."""
    steps = {}
    for i, t in enumerate(times):
        path = f"outputs.field_snapshot_times[{i}]"
        n = round(_check(path, t, SNAPSHOT_TIME, c) / c["tau"])
        if steps.setdefault(n, i) != i:
            raise ConfigError(f"{path}: names step {n}, as entry {steps[n]} does")
    return [float(t) for t in times]


def _formula(v, c):
    """A preset's formula for S or c_add, at the checked eps."""
    return v(c["potential"]["eps"]) if callable(v) else v


def _key(*rules, default=None, kinds=None):
    return default, kinds, rules


# Every key a document may hold, by dotted path, in the order its rules run:
# (the value of a missing key, the kinds of its object that read it, None
# for all, and its rules). An object's own entry comes before its keys. A
# preset's formulas for S and c_add reach the rules as values (see _expand).
KEYS = {
    "scheme": _key((lambda v, c: v in SCHEME_NAMES, f"must be one of {SCHEME_NAMES}")),
    "grid": _key((_is(dict), "must be an object with nx, ny, lx, ly")),
    "grid.nx": _key(*GRID_N),
    "grid.ny": _key(*GRID_N),
    "grid.lx": _key(*POSITIVE),
    "grid.ly": _key(*POSITIVE,  # and then the grid as a whole
                    lambda ly, c: _check("grid", {**c["grid"], "ly": ly}, GRID_FITS, c)["ly"]),
    "model": _key((_is(dict), "must be an object with alpha, gamma")),
    "model.alpha": _key(*NUMBER, (lambda v, c: v == 0.0 or 0.0 < v <= 1.0,
                                  "must be 0 or in (0, 1]", (0.0, 1.0))),
    "model.gamma": _key(*POSITIVE),
    "potential": _key((_is(dict), "must be an object")),
    "potential.kind": _key((lambda v, c: v in ("double-well", "flory-huggins"),
                            "must be 'double-well' or 'flory-huggins'")),
    "potential.eps": _key(*POSITIVE, (
        lambda v, c: 0.0 < v * v < math.inf and 1.0 / (v * v) < math.inf,
        "must keep eps^2 and 1/eps^2 finite", (MAX ** 0.5, MAX ** -0.5))),
    "potential.beta": _key(*NUMBER, kinds=("flory-huggins",)),
    "potential.sigma": _key(*POSITIVE, (lambda v, c: v <= 0.5, "must lie in (0, 1/2]", (0.5,)),
                            kinds=("flory-huggins",)),
    "potential.c_add": _key(_formula, *NONNEGATIVE, default=0.0),
    "S": _key((lambda v, c: v != "paper-preset",
               "'paper-preset' needs a preset to resolve against"), _formula, *NONNEGATIVE),
    "tau": _key(*POSITIVE, (
        lambda v, c: math.isfinite(v * c["S"]) and math.isfinite(v * c["model"]["gamma"]),
        "tau*S and tau*gamma must be finite")),
    "t_end": _key(*POSITIVE, _on_step("t_end"), (
        lambda v, c: round(v / c["tau"]) >= 1,
        lambda v, c: f"must span at least one step of tau (t_end/tau = {v / c['tau']})")),
    "init": _key((_is(dict), "must be an object with a kind")),
    "init.kind": _key((lambda v, c: v in ("ex1", "squares", "disks", "random", "file"),
                       "must be one of ex1, squares, disks, random, file")),
    "init.seed": _key((lambda v, c: _is(int)(v, c) and v >= 0,
                       "must be a nonnegative integer", (0,)), default=0, kinds=("random",)),
    "init.path": _key((_is(str), "must be a string path"), kinds=("file",)),
    "outputs": _key((_is(dict), "must be an object"), default={}),
    "outputs.series_path": _key((_is(str), "must be a string"), default="series.csv"),
    "outputs.snapshot_dir": _key((_is(str), "must be a string"), default="snapshots"),
    "outputs.field_snapshot_times": _key((_is(list), "must be a list of times"),
                                         _snapshot_times, default=[]),
    "outputs.record_every": _key((lambda v, c: _is(int)(v, c) and v >= 1,
                                  "must be a positive integer", (1,)), default=1),
    "assert_energy": _key((_is(bool), "must be a boolean"), default=False),
}

# The keys each object of a document may hold ("" is the top level), fixed
# per object rather than per kind, so a preset's base merges with any override.
KNOWN_KEYS = {}
for _path in KEYS:
    KNOWN_KEYS.setdefault(_path.rpartition(".")[0], []).append(_path.rpartition(".")[2])
DEFAULT_OUTPUTS = {k: KEYS[f"outputs.{k}"][0] for k in KNOWN_KEYS["outputs"]}


def config_from_dict(doc: dict) -> RunConfig:
    """Validate a raw config document, expanding any preset first: no object
    may hold a key it does not know, then each key of KEYS is checked in turn."""
    if not isinstance(doc, dict):
        raise ConfigError("the top level must be a JSON object")
    doc = _expand(doc)
    for section, keys in KNOWN_KEYS.items():
        obj = doc.get(section) if section else doc
        unknown = sorted(str(k) for k in obj if k not in keys) if isinstance(obj, dict) else ()
        if unknown:
            raise ConfigError(f"{section + '.' if section else ''}{unknown[0]}: unknown field")
    config, raw = {}, {"": doc}
    for path, (default, kinds, rules) in KEYS.items():
        section, _, key = path.rpartition(".")
        obj = config[section] if section else config
        if kinds is None or obj["kind"] in kinds:
            value = _check(path, raw[section].get(key, default), rules, config)
            if isinstance(value, dict):  # an object: its own keys fill a new one
                raw[path], value = value, {}
            obj[key] = value
    return RunConfig(**config)


def load_config(path) -> RunConfig:
    """Read and validate a JSON run configuration."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"{path}: no such config file")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read ({exc.strerror or exc})") from exc
    return config_from_dict(doc)


# --- initial conditions ------------------------------------------------------


def initial_field(init: dict, grid: Grid) -> Field:
    """Sample the configured initial datum at the grid nodes.

    Indicator data (squares, disks) is sampled pointwise with no smoothing;
    the random datum draws from a seeded PCG64 generator, so a given seed
    reproduces bit-identically within this package.
    """
    kind = init["kind"]
    X, Y = grid.nodes()
    if kind == "ex1":
        return Field(grid, 1.0 + 0.5 * np.sin(X) * np.sin(Y))
    if kind == "squares":
        inside = ((np.abs(X - 3.2) <= 1.0) & (np.abs(Y - 3.2) <= 1.0)) | (
            (np.abs(X - 5.0) <= 0.36) & (np.abs(Y - 5.0) <= 0.36)
        )
        return Field(grid, np.where(inside, 1.0, -1.0))
    if kind == "disks":
        c1 = (math.pi - 0.8, math.pi, 1.4)
        c2 = (math.pi + 1.7, math.pi, 0.5)
        inside = ((X - c1[0]) ** 2 + (Y - c1[1]) ** 2 <= c1[2] ** 2) | (
            (X - c2[0]) ** 2 + (Y - c2[1]) ** 2 <= c2[2] ** 2
        )
        return Field(grid, np.where(inside, 0.7, 0.3))
    if kind == "random":
        rng = np.random.default_rng(init["seed"])
        return Field(grid, 0.5 + 0.2 * rng.uniform(-1.0, 1.0, size=grid.shape))
    if kind == "file":
        from .harness import read_snapshot

        try:
            f, _ = read_snapshot(init["path"])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"init.path: {exc}") from exc
        if f.grid != grid:
            raise ConfigError(
                f"init.path: snapshot grid {f.grid.shape} does not match config grid {grid.shape}"
            )
        return f
    raise ConfigError(f"init.kind: unknown kind {kind!r}")
