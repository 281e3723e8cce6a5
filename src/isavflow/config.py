"""Run configuration: JSON schema, experiment presets, initial conditions.

A run is described by a single JSON document. A ``preset`` key expands to
the parameter set of one of the four canonical experiments before the
user's own keys are applied on top, so a minimal config can be as short as
``{"preset": "ex1-isav-be"}``. Validation errors carry the dotted path of
the offending field and abort with a dedicated exception that the CLI maps
to exit code 2.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass
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
    """Validated run description; field order fixes the layout of to_dict."""

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
        g = self.grid
        return Grid(g["nx"], g["ny"], g["lx"], g["ly"])

    def make_potential(self) -> Potential:
        p = self.potential
        if p["kind"] == "double-well":
            return DoubleWell(eps=p["eps"], c_add=p["c_add"])
        return FloryHugginsRegularized(
            eps=p["eps"], beta=p["beta"], sigma=p["sigma"], c_add=p["c_add"]
        )

    def to_dict(self) -> dict:
        return asdict(self)


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

DEFAULT_OUTPUTS = {
    "series_path": "series.csv",
    "snapshot_dir": "snapshots",
    "field_snapshot_times": [],
    "record_every": 1,
}

# The keys each object of a document may hold ("" is the top level), fixed
# per section rather than per kind, so a preset's base merges with any override.
KNOWN_KEYS = {
    "": ("scheme", "grid", "model", "potential", "S", "tau", "t_end", "init", "outputs",
         "assert_energy"),
    "grid": ("nx", "ny", "lx", "ly"),
    "model": ("alpha", "gamma"),
    "potential": ("kind", "eps", "beta", "sigma", "c_add"),
    "init": ("kind", "seed", "path"),
    "outputs": tuple(DEFAULT_OUTPUTS),
}


def preset_summary() -> str:
    lines = [f"{name:4s}  {p['doc']}" for name, p in PRESETS.items()]
    return "\n".join(lines + ["", "A preset may carry a scheme suffix, e.g. ex1-isav-be."])


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = v
    return out


def _split_preset(name: str):
    for sch in SCHEME_NAMES:
        suffix = "-" + sch
        if name.endswith(suffix):
            return name[: -len(suffix)], sch
    return name, None


def is_step_multiple(t_end: float, tau: float) -> bool:
    """Whether t_end is an integer multiple of tau, to 4 ulp of a finite step count."""
    steps = t_end / tau
    return math.isfinite(steps) and (
        abs(steps - round(steps)) <= 4 * np.finfo(float).eps * max(1.0, steps))


def _expect(cond, path, msg):
    if not cond:
        raise ConfigError(f"{path}: {msg}")


def _number(raw, path, positive=False):
    _expect(isinstance(raw, (int, float)) and not isinstance(raw, bool), path, "must be a number")
    _expect(abs(raw) <= sys.float_info.max, path, "must be finite")  # exact for any int
    v = float(raw)
    if positive:
        _expect(v > 0, path, "must be positive")
    return v


def config_from_dict(doc: dict) -> RunConfig:
    """Validate a raw config document, expanding any preset first."""
    if not isinstance(doc, dict):
        raise ConfigError(": top level must be a JSON object")
    doc = dict(doc)
    preset = None
    raw_name = doc.pop("preset", None)
    if raw_name is not None:
        base_name, scheme_from_preset = _split_preset(str(raw_name))
        if base_name not in PRESETS:
            raise ConfigError(f"preset: unknown preset {raw_name!r}")
        preset = PRESETS[base_name]
        merged = _deep_merge(preset["base"], doc)
        if scheme_from_preset is not None and "scheme" not in doc:
            merged["scheme"] = scheme_from_preset
        doc = merged

    for section, keys in KNOWN_KEYS.items():
        obj = doc.get(section) if section else doc
        unknown = sorted(str(k) for k in obj if k not in keys) if isinstance(obj, dict) else ()
        if unknown:
            raise ConfigError(f"{section + '.' if section else ''}{unknown[0]}: unknown field")

    scheme = doc.get("scheme")
    _expect(scheme in SCHEME_NAMES, "scheme", f"must be one of {SCHEME_NAMES}")

    g = doc.get("grid")
    _expect(isinstance(g, dict), "grid", "must be an object with nx, ny, lx, ly")
    for key in ("nx", "ny"):
        n = g.get(key)
        _expect(isinstance(n, int) and not isinstance(n, bool), f"grid.{key}", "must be an integer")
        _expect(4 <= n <= sys.maxsize and n % 2 == 0, f"grid.{key}",
                f"must be even and in [4, {sys.maxsize}]")
    grid = {
        "nx": g["nx"],
        "ny": g["ny"],
        "lx": _number(g.get("lx"), "grid.lx", positive=True),
        "ly": _number(g.get("ly"), "grid.ly", positive=True),
    }
    kx, ky = (math.pi * grid[n] / grid[l] for n, l in (("nx", "lx"), ("ny", "ly")))
    _expect(kx * kx + ky * ky <= sys.float_info.max / 2, "grid",
            "lx or ly too small for its nx or ny: the largest |k|^2 overflows")

    m = doc.get("model")
    _expect(isinstance(m, dict), "model", "must be an object with alpha, gamma")
    alpha = _number(m.get("alpha"), "model.alpha")
    _expect(alpha == 0.0 or 0.0 < alpha <= 1.0, "model.alpha", "must be 0 or in (0, 1]")
    gamma = _number(m.get("gamma"), "model.gamma", positive=True)
    model = {"alpha": alpha, "gamma": gamma}

    p = doc.get("potential")
    _expect(isinstance(p, dict), "potential", "must be an object")
    kind = p.get("kind")
    _expect(kind in ("double-well", "flory-huggins"), "potential.kind",
            "must be 'double-well' or 'flory-huggins'")
    eps = _number(p.get("eps"), "potential.eps", positive=True)
    _expect(0.0 < eps * eps < math.inf and 1.0 / (eps * eps) < math.inf, "potential.eps",
            "must keep eps^2 and 1/eps^2 finite")
    potential = {"kind": kind, "eps": eps}
    if kind == "flory-huggins":
        potential["beta"] = _number(p.get("beta"), "potential.beta")
        sigma = _number(p.get("sigma"), "potential.sigma", positive=True)
        _expect(sigma <= 0.5, "potential.sigma", "must lie in (0, 1/2]")
        potential["sigma"] = sigma
    if "c_add" in p:
        potential["c_add"] = _number(p["c_add"], "potential.c_add")
        _expect(potential["c_add"] >= 0, "potential.c_add", "must be nonnegative")
    elif preset is not None:
        potential["c_add"] = preset["c_add"](eps)
    else:
        potential["c_add"] = 0.0

    raw_S = doc.get("S", "paper-preset" if preset is not None else None)
    if raw_S == "paper-preset":
        _expect(preset is not None, "S", "'paper-preset' needs a preset to resolve against")
        S = preset["S"](eps)
    else:
        S = _number(raw_S, "S")
        _expect(S >= 0, "S", "must be nonnegative")

    tau = _number(doc.get("tau"), "tau", positive=True)
    t_end = _number(doc.get("t_end"), "t_end", positive=True)
    _expect(is_step_multiple(t_end, tau), "t_end",
            f"must be an integer multiple of tau (t_end/tau = {t_end / tau})")

    init = doc.get("init")
    _expect(isinstance(init, dict), "init", "must be an object with a kind")
    kind_i = init.get("kind")
    _expect(kind_i in ("ex1", "squares", "disks", "random", "file"), "init.kind",
            "must be one of ex1, squares, disks, random, file")
    if kind_i == "random":
        seed = init.get("seed", 0)
        _expect(isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0,
                "init.seed", "must be a nonnegative integer")
        init = {"kind": "random", "seed": seed}
    elif kind_i == "file":
        _expect(isinstance(init.get("path"), str), "init.path", "must be a string path")
        init = {"kind": "file", "path": init["path"]}
    else:
        init = {"kind": kind_i}

    _expect(isinstance(doc.get("outputs", {}), dict), "outputs", "must be an object")
    outputs = _deep_merge(DEFAULT_OUTPUTS, doc.get("outputs", {}))
    _expect(isinstance(outputs["series_path"], str), "outputs.series_path", "must be a string")
    _expect(isinstance(outputs["snapshot_dir"], str), "outputs.snapshot_dir", "must be a string")
    times = outputs["field_snapshot_times"]
    _expect(isinstance(times, list), "outputs.field_snapshot_times", "must be a list of times")
    outputs["field_snapshot_times"] = []
    steps = {}
    for i, raw_t in enumerate(times):
        path = f"outputs.field_snapshot_times[{i}]"
        t = _number(raw_t, path)
        _expect(0.0 <= t <= t_end, path, f"must lie in [0, t_end] = [0, {t_end!r}]")
        _expect(is_step_multiple(t, tau), path,
                f"must be an integer multiple of tau (t/tau = {t / tau})")
        n = round(t / tau)
        _expect(n not in steps, path, f"names step {n}, as entry {steps.get(n)} does")
        steps[n] = i
        outputs["field_snapshot_times"].append(t)
    re = outputs["record_every"]
    _expect(isinstance(re, int) and not isinstance(re, bool) and re >= 1,
            "outputs.record_every", "must be a positive integer")

    assert_energy = doc.get("assert_energy", False)
    _expect(isinstance(assert_energy, bool), "assert_energy", "must be a boolean")

    return RunConfig(scheme=scheme, grid=grid, model=model, potential=potential, S=S, tau=tau,
                     t_end=t_end, init=init, outputs=outputs, assert_energy=assert_energy)


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
