"""The benchmark's three workloads: their configs, CLI calls and output checks.

Each workload is one ``isavflow`` CLI call. Its configs are generated from
the benchmark seed (only ``compare-ex4`` uses it, as ``init.seed``; the other
two are fixed paper presets), and its outputs are checked after every call.
See README.md for why each workload is here.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

CONVERGE_TAUS = (0.01, 0.005, 0.0025, 0.00125)
CONVERGE_REF_TAU = 1e-5
CONVERGE_T_END = 0.04
ORDER_BAND = (1.90, 2.15)

COARSEN_T_END = 3.0
COARSEN_SNAPSHOT_TIMES = (0.1, 1.0, 3.0)
# Final original energy of the ex2 isav-be run at t=3, committed with this
# benchmark; later changes may move it only within rounding.
COARSEN_FINAL_E_ORIG = 252.22487999468814
COARSEN_FINAL_RTOL = 1e-9
MASS_DRIFT_TOL = 1e-12

COMPARE_N = 256
COMPARE_T_END = 0.5
COMPARE_RECORD_EVERY = 10

# Same slack as the package's opt-in energy-law assertions.
ORIGINAL_ENERGY_RTOL = 1e-10
MODIFIED_ENERGY_RTOL = 1e-12
SNAPSHOT_ENERGY_RTOL = 1e-12


@dataclass(frozen=True)
class Outcome:
    """Result of checking one call's outputs."""

    failures: list
    records_kept: int


@dataclass(frozen=True)
class Workload:
    name: str
    grid_n: int
    steps: int
    configs: Callable[[int], dict]
    argv: Callable[[dict, str], list]
    check: Callable[[dict, str], Outcome]
    uses_seed: bool = False

    def write_configs(self, seed: int, config_dir: str) -> dict:
        """Write this workload's config files; returns {name: path}."""
        os.makedirs(config_dir, exist_ok=True)
        paths = {}
        for name, doc in self.configs(seed).items():
            path = os.path.join(config_dir, name)
            with open(path, "w") as fh:
                json.dump(doc, fh, indent=2)
            paths[name] = path
        return paths


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _num(cell):
    return None if cell == "" else float(cell)


def _decrement_failures(rows, d_col, e_col, label):
    out = []
    for row in rows:
        d = _num(row[d_col])
        if d is None:
            continue
        tol = ORIGINAL_ENERGY_RTOL * (1.0 + abs(float(row[e_col])))
        if d > tol:
            out.append(f"{label}: {d_col}={d!r} > {tol!r} at step {row['step']}")
    return out


# --- converge-ex1 -------------------------------------------------------------


def _converge_configs(seed):
    return {"ex1.json": {"preset": "ex1-isav-bdf", "tau": CONVERGE_TAUS[0],
                         "t_end": CONVERGE_T_END}}


def _converge_argv(paths, outdir):
    return ["converge", paths["ex1.json"],
            "--taus", ",".join(repr(t) for t in CONVERGE_TAUS),
            "--ref-tau", repr(CONVERGE_REF_TAU),
            "--out", "convergence.csv", "--outdir", outdir]


def _converge_check(paths, outdir):
    rows = _read_rows(os.path.join(outdir, "convergence.csv"))
    if len(rows) != len(CONVERGE_TAUS):
        return Outcome([f"converge: {len(rows)} rows, expected {len(CONVERGE_TAUS)}"], 0)
    lo, hi = ORDER_BAND
    failures = []
    for row in rows[1:]:
        order = _num(row["order"])
        if order is None or not lo <= order <= hi:
            failures.append(f"converge: order {order!r} at {row['resolution']} steps "
                            f"outside [{lo}, {hi}]")
    return Outcome(failures, 0)


# --- coarsen-ex2 --------------------------------------------------------------


def _coarsen_configs(seed):
    return {"ex2.json": {
        "preset": "ex2-isav-be", "tau": 0.01, "t_end": COARSEN_T_END,
        "outputs": {"series_path": "series.csv", "snapshot_dir": "snapshots",
                    "field_snapshot_times": list(COARSEN_SNAPSHOT_TIMES),
                    "record_every": 1},
    }}


def _coarsen_argv(paths, outdir):
    return ["run", paths["ex2.json"], "--outdir", outdir]


def _coarsen_check(paths, outdir):
    from isavflow import load_config, original_energy, read_snapshot

    cfg = load_config(paths["ex2.json"])
    rows = _read_rows(os.path.join(outdir, "series.csv"))
    n_rows = cfg.n_steps() + 1
    if len(rows) != n_rows:
        return Outcome([f"coarsen: {len(rows)} rows, expected {n_rows}"], len(rows))
    failures = _decrement_failures(rows, "D_be", "E_orig", "coarsen")
    mass0 = float(rows[0]["mass"])
    drift = max(abs(float(r["mass"]) - mass0) for r in rows)
    if drift > MASS_DRIFT_TOL:
        failures.append(f"coarsen: mass drift {drift!r} > {MASS_DRIFT_TOL}")
    snap_dir = os.path.join(outdir, "snapshots")
    snaps = sorted(os.listdir(snap_dir))
    if len(snaps) != len(COARSEN_SNAPSHOT_TIMES):
        failures.append(f"coarsen: {len(snaps)} snapshots, expected {len(COARSEN_SNAPSHOT_TIMES)}")
    else:
        field, t = read_snapshot(os.path.join(snap_dir, snaps[-1]))
        e_snap = original_energy(field, cfg.make_potential())
        e_last = float(rows[-1]["E_orig"])
        if t != float(rows[-1]["t"]) or abs(e_snap - e_last) > SNAPSHOT_ENERGY_RTOL * abs(e_last):
            failures.append(f"coarsen: last snapshot (t={t!r}) energy {e_snap!r} "
                            f"!= last row {e_last!r}")
    e_final = float(rows[-1]["E_orig"])
    if abs(e_final - COARSEN_FINAL_E_ORIG) > COARSEN_FINAL_RTOL * COARSEN_FINAL_E_ORIG:
        failures.append(f"coarsen: final E_orig {e_final!r}, committed {COARSEN_FINAL_E_ORIG!r}")
    return Outcome(failures, len(rows))


# --- compare-ex4 --------------------------------------------------------------

COMPARE_SCHEMES = ("sav-be", "isav-be")


def _compare_configs(seed):
    return {f"ex4-{s}.json": {
        "preset": f"ex4-{s}",
        "grid": {"nx": COMPARE_N, "ny": COMPARE_N},
        "init": {"kind": "random", "seed": seed},
        "tau": 0.01, "t_end": COMPARE_T_END,
        "outputs": {"record_every": COMPARE_RECORD_EVERY},
    } for s in COMPARE_SCHEMES}


def _compare_argv(paths, outdir):
    return ["compare", *(paths[f"ex4-{s}.json"] for s in COMPARE_SCHEMES),
            "--out", "compare.csv", "--outdir", outdir]


def _compare_check(paths, outdir):
    rows = _read_rows(os.path.join(outdir, "compare.csv"))
    n_rows = round(COMPARE_T_END / 0.01) // COMPARE_RECORD_EVERY + 1
    if len(rows) != n_rows:
        return Outcome([f"compare: {len(rows)} rows, expected {n_rows}"], 0)
    kept = len(rows) * len(COMPARE_SCHEMES)
    failures = []
    for row in rows:
        for col, cell in row.items():
            if cell != "" and not math.isfinite(float(cell)):
                failures.append(f"compare: {col}={cell} at step {row['step']}")
    e_mod = [float(r["E_mod_sav_be"]) for r in rows]
    for i, (a, b) in enumerate(zip(e_mod, e_mod[1:])):
        if b > a + MODIFIED_ENERGY_RTOL * abs(a):
            failures.append(f"compare: sav-be E_mod rose {a!r} -> {b!r} after row {i}")
    failures += _decrement_failures(rows, "D_be_isav_be", "E_orig_isav_be", "compare")
    if any(_num(r["D_be_isav_be"]) is None for r in rows[1:]):
        failures.append("compare: isav-be D_be missing")
    return Outcome(failures, kept)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="converge-ex1", grid_n=64,
            steps=round(CONVERGE_T_END / CONVERGE_REF_TAU)
            + sum(round(CONVERGE_T_END / t) for t in CONVERGE_TAUS),
            configs=_converge_configs, argv=_converge_argv, check=_converge_check,
        ),
        Workload(
            name="coarsen-ex2", grid_n=128, steps=round(COARSEN_T_END / 0.01),
            configs=_coarsen_configs, argv=_coarsen_argv, check=_coarsen_check,
        ),
        Workload(
            name="compare-ex4", grid_n=COMPARE_N,
            steps=len(COMPARE_SCHEMES) * round(COMPARE_T_END / 0.01),
            configs=_compare_configs, argv=_compare_argv, check=_compare_check,
            uses_seed=True,
        ),
    )
}
