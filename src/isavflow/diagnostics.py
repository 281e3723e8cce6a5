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


def record_step(state, params, prev=None) -> StepRecord:
    """Build the record of a state's level.

    The decrement quantities need the chemical potential of the step that
    produced the state (its mu_hat) and the energies of prev, the state
    that step started from; without either (at t=0, or for a state stepped
    without records) they are None. Every energy comes from the states'
    energies, which keep what they evaluate, so a record costs no
    transform; its temporaries go into the run's scratch.
    """
    grid = state.phi_n.grid
    ws = params.symbols(grid)
    S = params.S if state.scheme.is_improved else 0.0
    values = state.phi_n.values
    e_lin, F, E2 = state.energies(params.potential, S, ws)
    E_orig = e_lin + F
    E_mod = e_lin + state.r_report**2 if state.r_report is not None else None
    r_drift = None
    if state.r_report is not None:
        r_drift = math.sqrt(F) - state.r_report if F > 0 else math.nan
    D_be = D_bdf = None
    if prev is not None and state.mu_hat is not None:
        ghalf_sq = quad_form_hat(grid, state.mu_hat, ws.g_c, ws.spec[3])
        e_lin_prev, F_prev, E2_prev = prev.energies(params.potential, S, ws)
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
        mass=float(np.add.reduce(values, axis=None)) / values.size,  # the bits of mean()
        min_phi=float(values.min()),
        max_phi=float(values.max()),
    )
