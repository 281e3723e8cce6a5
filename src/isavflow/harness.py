"""Experiment drivers: single runs, convergence studies, scheme comparisons,
all three stepping through levels, the one loop over a run's time levels.

Runs emit one CSV row per recorded step with a fixed column order and
optional plain-text field snapshots that round-trip bit-exactly. A
convergence study sweeps the time step or the grid against a reference
solution and reports H1 errors with observed orders; a comparison study
runs two configs that differ only in the scheme and output paths and
merges their series for side-by-side plotting.
"""

from __future__ import annotations

import csv
import math
import os
from collections import deque
from dataclasses import dataclass, fields

import numpy as np

from .config import ConfigError, RunConfig, config_from_dict, initial_field
from .diagnostics import StepRecord, _h1_norm, h1_error, record_step
from .potentials import NonPositiveBulkEnergyError
from .schemes import ModelParams, Scheme, _solve_factors, make_initial_state, step
from .spectral import Field, Grid, NonFiniteFieldError

__all__ = [
    "EnergyLawViolation",
    "SchemeRuntimeError",
    "levels",
    "run_simulation",
    "convergence_study",
    "compare_schemes",
    "write_snapshot",
    "read_snapshot",
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


def _check_energy_laws(scheme, old, rec):
    """The BE energy laws of one step of scheme, old and rec being the records
    of the levels it starts from and reaches; BDF steps are not checked."""
    if scheme == Scheme.SAV_BE:
        if rec.E_mod > old.E_mod + MODIFIED_ENERGY_RTOL * abs(old.E_mod):
            raise EnergyLawViolation(
                f"modified energy rose at step {rec.step}: {old.E_mod} -> {rec.E_mod}"
            )
    elif scheme == Scheme.ISAV_BE:
        if rec.D_be > ORIGINAL_ENERGY_RTOL * (1.0 + abs(old.E_orig)):
            raise EnergyLawViolation(
                f"original-energy decrement positive at step {rec.step}: {rec.D_be}"
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
    """An output could not be written (a full disk, its directory removed):
    a snapshot mid-run, or a series or table once its rows are in hand. Its
    __cause__ is the OSError."""


@dataclass
class SimulationResult:
    records: list
    series_path: str
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


def _write_rows(path, rows, columns=SERIES_COLUMNS) -> None:
    """write_series_csv, its OSError raised as an OutputWriteError naming
    path. The error is raised outside the handler, so a scheme failure that
    a run's partial series is written after stays its __context__."""
    try:
        write_series_csv(path, rows, columns)
        return
    except OSError as exc:
        cause = exc
    raise OutputWriteError(f"cannot write {path} ({cause.strerror or cause})") from cause


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
    np.savetxt(path, field.values, fmt="%.17g", comments="",
               header=f"{g.nx} {g.ny} {g.lx:.17g} {g.ly:.17g} {t:.17g}")


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


def levels(cfg: RunConfig, record=True):
    """Set a run up: its grid, parameters, symbols and every solve factor
    its scheme takes (backward Euler, and BDF2 for a -bdf scheme). A grid
    too large to allocate, or parameters no step can take (tau*S or
    tau*gamma beyond the float range, factors or an inverse mobility that
    overflow), is a ConfigError raised by the call itself, as is a file
    initial datum that cannot be read or does not fit the grid.

    Returns an iterator of (state, rec) for level 0 and then each step's
    level to t_end. rec is the level's StepRecord on a kept row (level 0,
    every record_every-th level and the last) and None otherwise; with
    record=False no record is built and the energy-law assertions, which
    check records, are off. Only kept rows are built, but every row under
    assert_energy, where each step's check reads the previous level's
    record. The trajectory is the same either way. A scheme failure
    (nonpositive bulk integral, violated assertion, non-finite field) is a
    SchemeRuntimeError with the failing step and the last good level.
    """
    scheme, g = Scheme(cfg.scheme), cfg.grid
    try:
        grid = cfg.make_grid()
        params = ModelParams(alpha=cfg.model["alpha"], gamma=cfg.model["gamma"], S=cfg.S,
                             tau=cfg.tau, potential=cfg.make_potential())
        ws = params.symbols(grid)
        for bdf in (False, True) if scheme.is_bdf else (False,):
            _solve_factors(ws, grid.lap_sym, cfg.tau, cfg.S if scheme.is_improved else 0.0, bdf)
    except MemoryError as exc:
        raise ConfigError(f"grid: nx={g['nx']} by ny={g['ny']} is too large to allocate") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # a file datum is read here, as the one whose sampling can fail; the
    # others are sampled at level 0, so a dropped set-up allocates no field
    phi0 = initial_field(cfg.init, grid) if cfg.init["kind"] == "file" else None
    every, n_total = cfg.outputs["record_every"], cfg.n_steps()
    check = record and cfg.assert_energy

    def run():
        state = rec = None
        for n in range(n_total + 1):
            keep = record and (n % every == 0 or n == n_total)
            try:
                new = step(state, params) if state else make_initial_state(
                    cfg.scheme, phi0 or initial_field(cfg.init, grid), params.potential)
                if keep or check:
                    old, rec = rec, record_step(new, params, state)
                    if check and old:
                        _check_energy_laws(new.scheme, old, rec)
            except SCHEME_FAILURES as exc:
                raise SchemeRuntimeError(n, exc, n * cfg.tau, cfg.scheme,
                                         state and state.level.phi) from exc
            state = new  # the last good level until the step's check passes
            yield state, rec if keep else None

    return run()


def run_simulation(cfg: RunConfig, outdir=None) -> SimulationResult:
    """Run levels(cfg) and write its kept rows as the series CSV, and the
    levels at the requested times as snapshots.

    The run is set up, then the snapshot and series directories are made:
    a path that cannot hold them, a series path that names the snapshot
    directory included, is a ConfigError before level 0. A snapshot that
    cannot be written aborts the run with an OutputWriteError. Whatever
    stops a run once level 0 is built, the kept rows are written before it
    propagates.
    """
    out_base = resolve_outdir(outdir)
    # the config has checked these times to be distinct multiples of tau in [0, t_end]
    snap_at = {round(t / cfg.tau) for t in cfg.outputs["field_snapshot_times"]}
    snap_dir = os.path.join(out_base, cfg.outputs["snapshot_dir"])
    series_path = os.path.join(out_base, cfg.outputs["series_path"])
    run = levels(cfg)
    if snap_at:
        _claim_path(snap_dir, is_dir=True)
    _claim_path(series_path)
    records, snapshot_paths = [], []
    try:
        for state, rec in run:
            if rec is not None:
                records.append(rec)
            n = state.step_index
            if n in snap_at:
                path = os.path.join(snap_dir, f"phi_step{n:06d}.txt")
                try:
                    write_snapshot(path, state.level.phi, n * cfg.tau)
                except OSError as exc:
                    raise OutputWriteError(
                        f"cannot write the snapshot of step {n} ({exc}); "
                        f"the series holds the rows through step {n}") from exc
                snapshot_paths.append(path)
    finally:
        if records:
            _write_rows(series_path, map(vars, records))
    return SimulationResult(records, series_path, snapshot_paths or None)


def _order_rows(labels, errors):
    return [{"resolution": label, "h1_error": err,
             "order": math.log2(prev / err) if prev and err else None}
            for label, err, prev in zip(labels, errors, [None, *errors])]


def _derive(cfg: RunConfig, what: str, settle=False, **changes) -> RunConfig:
    """cfg with changes and default outputs (a sweep writes none of a run's
    own), checked by the config rules and, if settle, set up by a levels
    call that is dropped; a ConfigError is raised naming what."""
    try:
        derived = config_from_dict({**vars(cfg), "outputs": {}, **changes})
        if settle:
            levels(derived)
    except ConfigError as exc:
        raise ConfigError(f"convergence: {what}: {exc}") from exc
    return derived


def _final_phi(cfg: RunConfig) -> Field:
    """phi(t_end) of a run without records or outputs."""
    return deque(levels(cfg, record=False), maxlen=1).pop()[0].level.phi


# The two Richardson columns as integer combinations of the runs u(h), u(2h),
# u(4h) and u(8h), finest first: the weights and divisor of R(h), then those
# of R(h) - R(2h), whose divisor makes its H1 norm R's estimated error.
RICHARDSON_COLUMNS = (((4, -1), 3, (4, -5, 1), 3 * 7),
                      ((32, -12, 1), 21, (32, -44, 13, -1), 21 * 15))


def _combine(arrays, weights, div):
    return sum(w * a for w, a in zip(weights, arrays)) / div


def _reference_top(t_end: float, finest_tau: float) -> float:
    """The largest step of the temporal reference: the largest of 4, 2 and
    1 times finest_tau that divides t_end into whole steps."""
    n = round(t_end / finest_tau)
    return finest_tau * next(k for k in (4, 2, 1) if n % k == 0)


def _temporal_reference(base_cfg: RunConfig, ref_tau: float, finest_tau: float):
    """A reference for a temporal sweep whose finest member steps finest_tau,
    as accurate as the three-level SAV scheme at ref_tau: (R, h, its
    estimated H1 error), R a Richardson extrapolation of that scheme's runs
    u at h and coarser steps.

    The runs step from _reference_top's H down, each pass halving h and
    adding one run. With errors C h^2 of u(h), the first column R1(h) =
    (4 u(h) - u(2h))/3 errs by O(h^3), estimated as ||R1(h) - R1(2h)||/7
    from the third run on; the second, R2(h) = (8 R1(h) - R1(2h))/7, by
    O(h^4), estimated as ||R2(h) - R2(2h)||/15 from the fourth. The loop
    returns the column with the smaller estimate at the first pass where
    that is no larger than (ref_tau/h)^2 ||u(h) - u(2h)||/3, the estimated
    error of a run at ref_tau, and at the latest once h <= ref_tau. Both
    are combinations of the last four runs' values and the spectra they
    carry, so an error against R takes no transform.
    """
    def run(tau):  # u(tau)'s values and spectrum, without the grid its run built
        u = _final_phi(_derive(base_cfg, f"reference tau={tau}",
                               scheme=Scheme.SAV_BDF.value, tau=tau))
        return u.values, u.spectrum()

    grid, h, runs = base_cfg.make_grid(), _reference_top(base_cfg.t_end, finest_tau), []
    while True:
        runs.insert(0, run(h))
        values, hats = zip(*runs)
        table = [(_h1_norm(grid, _combine(hats, diff, est_div)), weights, div)
                 for weights, div, diff, est_div in RICHARDSON_COLUMNS if len(diff) <= len(runs)]
        if table:
            est, weights, div = min(table)
            if h <= ref_tau or est <= (ref_tau / h) ** 2 * _h1_norm(grid, hats[0] - hats[1]) / 3:
                ref = Field(grid, _combine(values, weights, div), _combine(hats, weights, div))
                return ref, h, est
        h /= 2
        del runs[3:], values, hats  # free the coarsest run, which no later pass combines


def convergence_study(base_cfg: RunConfig, taus=None, grids=None,
                      ref_tau=1e-5, ref_grid_n=64, out_path=None):
    """H1-error table against a reference run: (rows, reference), reference
    being (h, its estimated H1 error) in temporal mode and None in spatial
    mode.

    Temporal mode (taus given): every member shares the grid of base_cfg.
    ref_tau sets the reference's accuracy, not its step: the reference is
    a Richardson extrapolation of the three-level SAV scheme, of the first
    or the second column, at the coarsest h where it is estimated to be as
    accurate as that scheme at ref_tau (see _temporal_reference). Its runs
    start at 4, 2 or 1 times the finest member's step, the largest that
    divides t_end; it takes at least three, and one more for each halving
    of h, down to ref_tau at the latest.
    Spatial mode (grids given): every member runs at base_cfg.tau on an
    n-by-n grid; the reference is the *same* scheme at the same tau on a
    ref_grid_n^2 grid, so the temporal discretization error cancels exactly
    and the table isolates spatial accuracy.
    Orders are log2(e_coarse / e_fine) between consecutive rows, None
    where either error is 0. Every member, the spatial reference and the
    temporal reference's first run (its largest step) are set up, and a
    base_cfg stepping ref_tau is checked by the config rules (see _derive),
    before anything runs or is written.
    """
    if (taus is None) == (grids is None):
        raise ConfigError("convergence: give exactly one of taus or grids")
    if not (taus or grids):
        raise ConfigError("convergence: the sweep has no members")
    if taus is not None:
        _derive(base_cfg, f"ref_tau={ref_tau}", tau=ref_tau)
        members = [_derive(base_cfg, f"tau={tau}", settle=True, tau=tau) for tau in taus]
        labels = [cfg.n_steps() for cfg in members]
        finest = min(cfg.tau for cfg in members)
        top = _reference_top(base_cfg.t_end, finest)
        _derive(base_cfg, f"reference tau={top}", settle=True, scheme=Scheme.SAV_BDF.value,
                tau=top)
    else:
        ref_cfg, *members = (
            _derive(base_cfg, f"grid {n}", settle=True, grid={**base_cfg.grid, "nx": n, "ny": n})
            for n in (ref_grid_n, *grids)
        )
        labels = list(grids)
    if out_path is not None:
        _claim_path(out_path)
    if taus is not None:
        ref, h, est = _temporal_reference(base_cfg, ref_tau, finest)
        reference = (h, est)
    else:
        ref, reference = _final_phi(ref_cfg), None
    rows = _order_rows(labels, [h1_error(_final_phi(cfg), ref) for cfg in members])
    if out_path is not None:
        _write_rows(out_path, rows, ("resolution", "h1_error", "order"))
    return rows, reference


def compare_schemes(cfg_a: RunConfig, cfg_b: RunConfig, out_path=None):
    """Run two configs that differ only in the scheme and output paths; merge their series.

    The merged table holds step, t, then every series column suffixed by
    the scheme name, aligned row by row (both runs keep the same levels by
    construction). Both are set up before the table's directory is made,
    and a ConfigError from B's set-up leads with B's scheme.
    """
    if cfg_a.scheme == cfg_b.scheme:
        raise ConfigError("compare: the two configs use the same scheme")
    a, b = ({**vars(cfg), "scheme": None, "outputs": None,
             "outputs.record_every": cfg.outputs["record_every"]} for cfg in (cfg_a, cfg_b))
    differ = [key for key in a if a[key] != b[key]]
    if differ:
        raise ConfigError("compare: configs must be identical apart from the scheme and their "
                          f"output paths; they differ in {', '.join(differ)}")
    # B's set-up is a trial, dropped before A's arrays are built; should it
    # fail, A's own set-up error comes first.
    try:
        levels(cfg_b)
    except ConfigError as exc:
        levels(cfg_a)
        raise ConfigError(f"{cfg_b.scheme}: {exc}") from exc
    run_a = levels(cfg_a)
    if out_path is not None:
        _claim_path(out_path)
    # One run after the other: only run A's kept records outlive it while B runs.
    records_a = [rec for _, rec in run_a if rec is not None]
    records_b = [rec for _, rec in levels(cfg_b) if rec is not None]
    tag_a, tag_b = (Scheme(cfg.scheme).name.lower() for cfg in (cfg_a, cfg_b))
    data_cols = SERIES_COLUMNS[2:]
    header = ["step", "t"] + [f"{c}_{tag_a}" for c in data_cols] + [f"{c}_{tag_b}" for c in data_cols]
    rows = [{"step": ra.step, "t": ra.t, **{f"{c}_{tag_a}": getattr(ra, c) for c in data_cols},
             **{f"{c}_{tag_b}": getattr(rb, c) for c in data_cols}}
            for ra, rb in zip(records_a, records_b)]
    if out_path is not None:
        _write_rows(out_path, rows, header)
    return rows
