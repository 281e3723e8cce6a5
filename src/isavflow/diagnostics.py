"""Energy functionals, decrement quantities, drift, and error norms.

The per-step record collects everything the experiment drivers plot or
assert on: the original energy E[phi] = 1/2 ||L^{1/2} phi||^2 + int F(phi),
the modified energy of the auxiliary-variable schemes, the three-level
modified energy E2 of the BDF variants, the discrete decrement quantities
E^n - E^{n-1} + tau * ||G^{1/2} mu^n||^2 whose sign certifies dissipation,
the drift between the carried/reconstructed scalar and its exact functional
value, and the field's mean and range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .potentials import Potential, bulk_quad
from .spectral import Field, quad_form_hat, resample

__all__ = [
    "StepRecord",
    "original_energy",
    "h1_error",
    "record_step",
]


@dataclass
class StepRecord:
    """Diagnostics of one time level; None marks quantities not defined yet
    (for example E2 before a BDF state has full history)."""

    step: int
    t: float
    E_orig: float
    E_mod: float | None
    E2: float | None
    D_be: float | None
    D_bdf: float | None
    r_drift: float | None
    mass: float
    min_phi: float
    max_phi: float


def original_energy(phi: Field, potential: Potential) -> float:
    """E[phi]: spectral gradient seminorm plus quadrature of the bulk density."""
    grid = phi.grid
    return 0.5 * quad_form_hat(grid, phi.spectrum(), grid.lap_sym) + bulk_quad(potential, phi)


def _e2(phi_n: Field, phi_nm1: Field, e_lin, F_n, F_nm1, S, ws=None):
    """Three-level modified energy of a consecutive pair of levels,

        1/4 (||L^{1/2} phi^n||^2 + ||L^{1/2}(2 phi^n - phi^{n-1})||^2)
        + 1/2 [ r[phi^n]^2 + (2 r[phi^n] - r[phi^{n-1}])^2 ]
        + S/2 ||phi^n - phi^{n-1}||^2,

    from the levels' spectra, e_lin = 1/2 ||L^{1/2} phi^n||^2 and the bulk
    integrals F_n, F_nm1 (r = sqrt(F)). Returns NaN if either bulk integral
    is nonpositive (the value is then meaningless but a run may still want
    to log the remaining columns). ws, a Scratch, takes the temporaries
    when given.
    """
    if not (F_n > 0.0 and F_nm1 > 0.0):
        return math.nan
    grid = phi_n.grid
    star_out, diff_out, power = (None,) * 3 if ws is None else (ws.spec[0], ws.real[0], ws.power)
    star = np.multiply(phi_n.spectrum(), 2.0, out=star_out)
    star -= phi_nm1.spectrum()
    diff = np.subtract(phi_n.values, phi_nm1.values, out=diff_out)
    r_n = math.sqrt(F_n)
    r_m = math.sqrt(F_nm1)
    return (
        0.5 * (e_lin + 0.5 * quad_form_hat(grid, star, grid.lap_sym, power))
        + 0.5 * (r_n**2 + (2.0 * r_n - r_m) ** 2)
        + 0.5 * S * grid.quad(np.multiply(diff, diff, out=diff))
    )


def h1_error(u: Field, ref: Field) -> float:
    """H1 norm of u - ref; a reference on another grid over the same domain
    is restricted/interpolated spectrally first."""
    if ref.grid != u.grid:
        ref = resample(ref, u.grid)
    grid = u.grid
    hat = grid.forward(u.values - ref.values)
    return math.sqrt(
        quad_form_hat(grid, hat) + quad_form_hat(grid, hat, grid.lap_sym)
    )


def level_energies(state, potential, S=0.0, ws=None):
    """(1/2 ||L^{1/2} phi_n||^2, int F(phi_n), E2 with damping S) of a
    state's own level; E2 is None unless the state holds two BDF levels.

    Taken from the state's diagnostics carry when the step that produced it
    recorded, else built from its carried spectra (no transform) and its
    bulk integrals, each evaluated at most once and kept on the state. ws,
    the run's Scratch, takes the temporaries when given.
    """
    F_work, power = (None, None) if ws is None else (ws.real[1:], ws.power)
    F = state.bulk_n(potential, F_work)
    if state.diag is not None:
        return state.diag.e_lin, F, state.diag.E2
    phi, phim = state.phi_n, state.phi_nm1
    grid = phi.grid
    e_lin = 0.5 * quad_form_hat(grid, phi.spectrum(), grid.lap_sym, power)
    if not state.scheme.is_bdf or phim is None:
        return e_lin, F, None
    return e_lin, F, _e2(phi, phim, e_lin, F, state.bulk_nm1(potential, F_work), S, ws)


def record_step(state, params, prev=None) -> StepRecord:
    """Build the record of a state's level.

    The decrement quantities need the chemical potential of the step that
    produced the state, which its diagnostics carry, and the energies of
    prev, the state that step started from; without either (at t=0, or for
    a state stepped without records) they are None. Every energy comes from
    level_energies, so a record costs no transform; its temporaries go into
    the run's scratch.
    """
    grid = state.phi_n.grid
    ws = params.symbols(grid)
    S = params.S if state.scheme.is_improved else 0.0
    values = state.phi_n.values
    e_lin, F, E2 = level_energies(state, params.potential, S, ws)
    E_orig = e_lin + F
    E_mod = e_lin + state.r_report**2 if state.r_report is not None else None
    r_drift = None
    if state.r_report is not None:
        r_drift = math.sqrt(F) - state.r_report if F > 0 else math.nan
    D_be = D_bdf = None
    mu_hat = None if state.diag is None else state.diag.mu_hat
    if prev is not None and mu_hat is not None:
        ghalf_sq = quad_form_hat(grid, mu_hat, ws.g_sym, ws.power)
        e_lin_prev, F_prev, E2_prev = level_energies(prev, params.potential, S, ws)
        D_be = E_orig - (e_lin_prev + F_prev) + params.tau * ghalf_sq
        if E2 is not None and E2_prev is not None:
            D_bdf = E2 - E2_prev + params.tau * ghalf_sq
    return StepRecord(
        step=state.step_index,
        t=state.step_index * params.tau,
        E_orig=E_orig,
        E_mod=E_mod,
        E2=E2,
        D_be=D_be,
        D_bdf=D_bdf,
        r_drift=r_drift,
        mass=float(values.mean()),
        min_phi=float(values.min()),
        max_phi=float(values.max()),
    )
