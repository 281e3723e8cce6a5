"""Experiment drivers: single runs, convergence studies, scheme comparisons.

Runs emit one CSV row per recorded step with a fixed column order and
optional plain-text field snapshots that round-trip bit-exactly. A
convergence study sweeps the time step or the grid against a reference
solution and reports H1 errors with observed orders; a comparison study
runs two configs that differ only in the scheme and merges their series
for side-by-side plotting.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from .config import ConfigError, RunConfig, initial_field, is_step_multiple
from .diagnostics import StepRecord, h1_error, record_step
from .potentials import NonPositiveBulkEnergyError
from .schemes import ModelParams, Scheme, SchemeState, _solve_factors, make_initial_state, step
from .spectral import Field, Grid, NonFiniteFieldError

__all__ = [
    "EnergyLawViolation",
    "SchemeRuntimeError",
    "run_simulation",
    "convergence_study",
    "compare_schemes",
    "write_series_csv",
    "write_snapshot",
    "read_snapshot",
    "resolve_outdir",
]

SERIES_COLUMNS = tuple(f.name for f in fields(StepRecord))

OUTDIR_ENV = "ISAVFLOW_OUTDIR"

# Called by nothing: perfbench/tracing.py still resolves this name as a trace
# site. Its removal waits for ROADMAP item 1, which re-baselines those sites.
step_isav_be = step

# Relative slack for the opt-in per-step energy-law assertions.
MODIFIED_ENERGY_RTOL = 1e-12
ORIGINAL_ENERGY_RTOL = 1e-10


class EnergyLawViolation(RuntimeError):
    """Raised by the opt-in per-step checks of the discrete energy laws."""


# What a step or its check raises when the scheme itself fails, as opposed to bad input.
SCHEME_FAILURES = (NonPositiveBulkEnergyError, EnergyLawViolation, NonFiniteFieldError)


def _check_energy_laws(old, new, rec):
    """The BE energy laws of the step old -> new, rec being record_step(new,
    params, old), which has filled old's energies; BDF steps are not checked."""
    if new.scheme == Scheme.SAV_BE:
        e_mod_old = old.e_lin + old.r_n**2
        if rec.E_mod > e_mod_old + MODIFIED_ENERGY_RTOL * abs(e_mod_old):
            raise EnergyLawViolation(
                f"modified energy rose at step {new.step_index}: {e_mod_old} -> {rec.E_mod}"
            )
    elif new.scheme == Scheme.ISAV_BE and rec.D_be is not None:
        tol = ORIGINAL_ENERGY_RTOL * (1.0 + abs(old.e_lin + old.F_n))
        if rec.D_be > tol:
            raise EnergyLawViolation(
                f"original-energy decrement positive at step {new.step_index}: {rec.D_be}"
            )


class SchemeRuntimeError(RuntimeError):
    """A scheme failed mid-run: its __cause__ is a nonpositive bulk integral,
    a violated energy-law assertion or a non-finite field. Carries the failing
    step index, its time t, the scheme, and phi_min, phi_max: the range of
    the last good level (None for a failure at step 0)."""

    def __init__(self, step_index: int, cause: Exception, t: float, scheme: str,
                 last: Field | None = None):
        self.step_index, self.t, self.scheme = step_index, t, scheme
        self.phi_min = self.phi_max = None
        where = ""
        if last is not None:
            self.phi_min, self.phi_max = float(last.values.min()), float(last.values.max())
            where = f", last good level in [{self.phi_min}, {self.phi_max}]"
        super().__init__(f"scheme failed at step {step_index}: {cause}; t={t}, scheme {scheme}{where}")


class OutputWriteError(RuntimeError):
    """A step's snapshot could not be written mid-run (a full disk, the
    directory removed); carries the step index, and its __cause__ is the OSError."""

    def __init__(self, step_index: int, cause: OSError):
        self.step_index = step_index
        super().__init__(f"cannot write the snapshot of step {step_index} ({cause}); "
                         f"the series holds the rows through step {step_index}")


@dataclass
class SimulationResult:
    records: list
    final_state: SchemeState
    series_path: str | None = None
    snapshot_paths: list | None = None


def resolve_outdir(outdir=None) -> str:
    """Directory for relative output paths; the environment wins over the
    caller, which wins over the working directory. Join paths onto it with
    os.path.join, which leaves absolute paths as they are."""
    return os.environ.get(OUTDIR_ENV) or (str(outdir) if outdir is not None else ".")


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


def write_series_csv(path, rows, columns=SERIES_COLUMNS) -> None:
    """Fixed-order, locale-free CSV: a header of columns, then one line per
    mapping in rows with its cells taken by column name. Integers print as
    such, other numbers as repr(float), None as an empty cell."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        for row in rows:
            w.writerow([_fmt(row[c]) for c in columns])


def _claim_path(path, is_dir=False) -> None:
    """Create an output file's directory (or the output directory itself)
    before the steps that fill it, so that a path that cannot be written
    fails as a ConfigError up front rather than after the run or sweep."""
    if not is_dir and os.path.isdir(path):
        raise ConfigError(f"{path}: is a directory, not a file")
    try:
        os.makedirs(path if is_dir else os.path.dirname(path) or ".", exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot create its directory ({exc.strerror or exc})") from exc


def write_snapshot(path, field: Field, t: float) -> None:
    """Plain-text field dump: header 'nx ny lx ly t', then one line per x
    index holding its ny values at 17 significant digits ('%.17g'), which
    round-trips float64 exactly. The directory must exist: a run makes it
    before its first step, so one removed mid-run fails the write."""
    g = field.grid
    # One %-format call per row; '%.17g' prints the same text as
    # f"{v:.17g}" for every float64, -0.0 and subnormals included.
    line = " ".join(["%.17g"] * g.ny) + "\n"
    with open(path, "w") as fh:
        fh.write(f"{g.nx} {g.ny} {g.lx:.17g} {g.ly:.17g} {t:.17g}\n")
        for row in field.values:
            fh.write(line % tuple(row.tolist()))


def read_snapshot(path):
    """Inverse of write_snapshot; returns (Field, t)."""
    with open(path) as fh:
        head = fh.readline().split()
        if len(head) != 5:
            raise ValueError(f"snapshot header must be 'nx ny lx ly t', got {head}")
        nx, ny = int(head[0]), int(head[1])
        lx, ly, t = float(head[2]), float(head[3]), float(head[4])
        values = np.loadtxt(fh, ndmin=2)
    grid = Grid(nx, ny, lx, ly)
    if values.shape != (nx, ny):
        raise ValueError(f"snapshot body shape {values.shape} does not match header {(nx, ny)}")
    return Field(grid, values), t


def _kept_rows(cfg: RunConfig, record: bool):
    """The levels a run keeps a row for: with records on, level 0, every
    record_every-th level and the last one, for every scheme alike."""
    every, n_total = cfg.outputs["record_every"], cfg.n_steps()
    return lambda n: record and (n % every == 0 or n == n_total)


def _snapshot_steps(cfg: RunConfig) -> set:
    """The step indices of the requested snapshot times, which the config
    has checked to be distinct multiples of tau in [0, t_end]."""
    return {round(t / cfg.tau) for t in cfg.outputs["field_snapshot_times"]}


def _run_params(cfg: RunConfig, grid: Grid) -> ModelParams:
    """A run's ModelParams, with the symbols and step 1's solve factors on
    grid built here rather than in step 1, so that parameters no step can
    take (tau*S or tau*gamma beyond the float range, factors or an inverse
    mobility that overflow) are a ConfigError before any output."""
    try:
        params = ModelParams(alpha=cfg.model["alpha"], gamma=cfg.model["gamma"], S=cfg.S,
                             tau=cfg.tau, potential=cfg.make_potential())
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _solve_factors(params.symbols(grid), grid.lap_sym, cfg.tau,
                   cfg.S if Scheme(cfg.scheme).is_improved else 0.0, False)
    return params


def run_simulation(cfg: RunConfig, outdir=None, write_outputs=True, record=True) -> SimulationResult:
    """Integrate from t=0 to t_end, recording diagnostics along the way.

    With the default record_every=1 the series holds n_steps+1 rows
    including t=0; with more, it holds the rows of levels 0, the multiples
    of record_every and n_steps, and only those rows are built. With
    record=False no diagnostics are built, the series is empty and the
    energy-law assertions (which check records) are off; the trajectory is
    the same. The series and snapshot directories are made before the
    first step; a path that cannot hold them is a ConfigError. A scheme
    failure (nonpositive bulk integral, violated assertion, non-finite
    field) or a snapshot that cannot be written (OutputWriteError) aborts
    the run with the failing step and its context. Whatever stops a run
    once level 0 is built, the kept rows are written before it propagates.
    """
    grid = cfg.make_grid()
    params = _run_params(cfg, grid)
    out_base = resolve_outdir(outdir)
    kept = _kept_rows(cfg, record)
    check = record and cfg.assert_energy
    snap_at = _snapshot_steps(cfg) if write_outputs else set()
    snap_dir = os.path.join(out_base, cfg.outputs["snapshot_dir"])
    series_path = os.path.join(out_base, cfg.outputs["series_path"]) if write_outputs else None
    n_total = cfg.n_steps()
    if write_outputs:
        _claim_path(series_path)
        if snap_at:
            _claim_path(snap_dir, is_dir=True)

    snapshot_paths = []

    def snapshot(step_index, field):
        if step_index in snap_at:
            path = os.path.join(snap_dir, f"phi_step{step_index:06d}.txt")
            try:
                write_snapshot(path, field, step_index * cfg.tau)
            except OSError as exc:
                raise OutputWriteError(step_index, exc) from exc
            snapshot_paths.append(path)

    try:
        state = make_initial_state(cfg.scheme, initial_field(cfg.init, grid), params.potential)
        records = [record_step(state, params)] if kept(0) else []
    except SCHEME_FAILURES as exc:
        raise SchemeRuntimeError(0, exc, 0.0, cfg.scheme) from exc

    try:
        snapshot(0, state.phi_n)
        for n in range(1, n_total + 1):
            # Only kept rows (every row under assert_energy) are built; state
            # stays the last good level until the step's check passes.
            keep = kept(n)
            try:
                new = step(state, params)
                if keep or check:
                    rec = record_step(new, params, state)
                    if check:
                        _check_energy_laws(state, new, rec)
            except SCHEME_FAILURES as exc:
                raise SchemeRuntimeError(n, exc, n * cfg.tau, cfg.scheme, state.phi_n) from exc
            state = new
            if keep:
                records.append(rec)
            snapshot(n, state.phi_n)
    finally:
        if write_outputs:
            write_series_csv(series_path, map(vars, records))
    return SimulationResult(
        records=records,
        final_state=state,
        series_path=series_path,
        snapshot_paths=snapshot_paths or None,
    )


def _order_rows(labels, errors):
    rows = []
    prev = None
    for label, err in zip(labels, errors):
        order = math.log2(prev / err) if prev and err else None
        rows.append({"resolution": label, "h1_error": err, "order": order})
        prev = err
    return rows


def convergence_study(base_cfg: RunConfig, taus=None, grids=None,
                      ref_tau=1e-5, ref_grid_n=64, out_path=None):
    """H1-error table against a reference run.

    Temporal mode (taus given): every member shares the grid of base_cfg;
    the reference is the three-level SAV scheme at ref_tau on that grid.
    Spatial mode (grids given): every member runs at base_cfg.tau on an
    n-by-n grid; the reference is the *same* scheme at the same tau on a
    ref_grid_n^2 grid, so the temporal discretization error cancels exactly
    and the table isolates spatial accuracy.
    Orders are log2(e_coarse / e_fine) between consecutive rows, None
    where either error is 0. Every time step must be positive and divide
    t_end by the same rule as a config's tau; every grid size must be even
    and at least 4.
    """
    if (taus is None) == (grids is None):
        raise ConfigError("convergence: give exactly one of taus or grids")
    if not (taus or grids):
        raise ConfigError("convergence: the sweep has no members")
    if taus is not None:
        for tau in (ref_tau, *taus):
            if not (math.isfinite(tau) and tau > 0):
                raise ConfigError(f"convergence: time step {tau} is not positive and finite")
        if not is_step_multiple(base_cfg.t_end, ref_tau):
            raise ConfigError("convergence: t_end must be an integer multiple of ref_tau")
        for tau in taus:
            if not is_step_multiple(base_cfg.t_end, float(tau)):
                raise ConfigError(f"convergence: t_end is not a multiple of tau={tau}")
        ref_cfg = replace(base_cfg, scheme=Scheme.SAV_BDF.value, tau=ref_tau)
        members = [replace(base_cfg, tau=float(tau)) for tau in taus]
        labels = [cfg.n_steps() for cfg in members]
    else:
        for n in (ref_grid_n, *grids):
            if not (n >= 4 and n % 2 == 0):
                raise ConfigError(f"convergence: grid size {n} is not even and at least 4")
        ref_cfg, *members = (
            replace(base_cfg, grid={**base_cfg.grid, "nx": int(n), "ny": int(n)})
            for n in (ref_grid_n, *grids)
        )
        labels = [int(n) for n in grids]
    if out_path is not None:
        _claim_path(out_path)
    ref, *finals = (
        run_simulation(cfg, write_outputs=False, record=False).final_state.phi_n
        for cfg in (ref_cfg, *members)
    )
    rows = _order_rows(labels, [h1_error(phi, ref) for phi in finals])
    if out_path is not None:
        write_series_csv(out_path, rows, ("resolution", "h1_error", "order"))
    return rows


def _comparable_dict(cfg: RunConfig) -> dict:
    d = cfg.to_dict()
    d.pop("scheme")
    d.pop("outputs")
    return d


def compare_schemes(cfg_a: RunConfig, cfg_b: RunConfig, out_path=None):
    """Run two configs that differ only in the scheme; merge their series.

    The merged table holds step, t, then every series column suffixed by
    the scheme name, aligned row by row (both runs share tau and t_end by
    construction).
    """
    if cfg_a.scheme == cfg_b.scheme:
        raise ConfigError("compare: the two configs use the same scheme")
    if cfg_a.tau != cfg_b.tau or cfg_a.t_end != cfg_b.t_end:
        raise ConfigError("compare: tau and t_end must match between the configs")
    if _comparable_dict(cfg_a) != _comparable_dict(cfg_b):
        raise ConfigError("compare: configs must be identical apart from the scheme")
    if cfg_a.outputs["record_every"] != cfg_b.outputs["record_every"]:
        raise ConfigError("compare: outputs.record_every must match between the configs")
    if out_path is not None:
        _claim_path(out_path)
    # Only run A's records outlive it, not its final state, while B runs.
    records_a = run_simulation(cfg_a, write_outputs=False).records
    records_b = run_simulation(cfg_b, write_outputs=False).records
    tag_a = cfg_a.scheme.replace("-", "_")
    tag_b = cfg_b.scheme.replace("-", "_")
    data_cols = SERIES_COLUMNS[2:]
    header = ["step", "t"] + [f"{c}_{tag_a}" for c in data_cols] + [f"{c}_{tag_b}" for c in data_cols]
    rows = []
    for ra, rb in zip(records_a, records_b):
        row = {"step": ra.step, "t": ra.t}
        for c in data_cols:
            row[f"{c}_{tag_a}"] = getattr(ra, c)
            row[f"{c}_{tag_b}"] = getattr(rb, c)
        rows.append(row)
    if out_path is not None:
        write_series_csv(out_path, rows, header)
    return rows
