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

from .potentials import Potential, bulk_energy, bulk_quad
from .spectral import Field, operator_symbols, quad_form_hat, resample

__all__ = [
    "StepRecord",
    "original_energy",
    "e2_energy",
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


def e2_from_parts(half_sq_n, half_sq_star, F_n, F_nm1, S, diff_sq):
    """Three-level modified energy from precomputed pieces.

    half_sq_n and half_sq_star are 1/2 ||L^{1/2} phi^n||^2 and
    1/2 ||L^{1/2} (2 phi^n - phi^{n-1})||^2; F_n, F_nm1 the bulk integrals;
    diff_sq = ||phi^n - phi^{n-1}||^2. Returns NaN if either bulk integral
    is nonpositive (the value is then meaningless but a run may still want
    to log the remaining columns).
    """
    if not (F_n > 0.0 and F_nm1 > 0.0):
        return math.nan
    r_n = math.sqrt(F_n)
    r_m = math.sqrt(F_nm1)
    return (
        0.5 * (half_sq_n + half_sq_star)
        + 0.5 * (r_n**2 + (2.0 * r_n - r_m) ** 2)
        + 0.5 * S * diff_sq
    )


def e2_energy(phi_n: Field, phi_nm1: Field, potential: Potential, S: float) -> float:
    """Three-level modified energy of a consecutive pair of fields:

        1/4 (||L^{1/2} phi^n||^2 + ||L^{1/2}(2 phi^n - phi^{n-1})||^2)
        + 1/2 [ r[phi^n]^2 + (2 r[phi^n] - r[phi^{n-1}])^2 ]
        + S/2 ||phi^n - phi^{n-1}||^2.
    """
    grid = phi_n.grid
    if phi_nm1.grid != grid:
        raise ValueError("fields live on different grids")
    hat_n = phi_n.spectrum()
    hat_m = phi_nm1.spectrum()
    return e2_from_parts(
        0.5 * quad_form_hat(grid, hat_n, grid.lap_sym),
        0.5 * quad_form_hat(grid, 2.0 * hat_n - hat_m, grid.lap_sym),
        bulk_energy(potential, phi_n),
        bulk_energy(potential, phi_nm1),
        S,
        grid.quad((phi_n.values - phi_nm1.values) ** 2),
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


def energy_parts(state, sym, potential):
    """(1/2 ||L^{1/2} phi_n||^2, int F(phi_n)) of a state: taken from its
    diagnostics carry when the step that produced it recorded, else
    computed."""
    if state.diag is not None:
        return state.diag.e_lin, state.F_n
    phi = state.phi_n
    ws = sym.scratch(phi.grid)
    return (
        0.5 * quad_form_hat(phi.grid, phi.spectrum(), sym.lap, ws.power),
        bulk_quad(potential, phi, ws.real[:3]),
    )


def record_step(state, params, sym=None) -> StepRecord:
    """Build the full record for a state snapshot.

    Decrement quantities need the previous energies and the chemical
    potential of the step that produced the state; those travel in the
    state's diagnostics carry, so this works on the initial state (D fields
    None) and after any completed step. The energy parts and mu's spectrum
    are taken from that carry when present, so a record costs no transform;
    its temporaries go into sym.scratch(grid).
    """
    grid = state.phi_n.grid
    sym = sym or operator_symbols(grid, params.alpha, params.gamma)
    values = state.phi_n.values
    e_lin, F = energy_parts(state, sym, params.potential)
    E_orig = e_lin + F
    E_mod = e_lin + state.r_report**2 if state.r_report is not None else None
    r_drift = None
    if state.r_report is not None:
        r_drift = math.sqrt(F) - state.r_report if F > 0 else math.nan
    diag = state.diag
    ghalf_sq = None
    if diag is not None and diag.mu_hat is not None:
        ghalf_sq = quad_form_hat(grid, diag.mu_hat, sym.g_sym, sym.scratch(grid).power)
    D_be = None
    if ghalf_sq is not None and diag.prev_E_orig is not None:
        D_be = E_orig - diag.prev_E_orig + params.tau * ghalf_sq
    D_bdf = None
    if ghalf_sq is not None and diag.E2 is not None and diag.prev_E2 is not None:
        D_bdf = diag.E2 - diag.prev_E2 + params.tau * ghalf_sq
    return StepRecord(
        step=state.step_index,
        t=state.step_index * params.tau,
        E_orig=E_orig,
        E_mod=E_mod,
        E2=None if diag is None else diag.E2,
        D_be=D_be,
        D_bdf=D_bdf,
        r_drift=r_drift,
        mass=float(values.mean()),
        min_phi=float(values.min()),
        max_phi=float(values.max()),
    )
