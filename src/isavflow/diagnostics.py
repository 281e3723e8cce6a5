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

    The decrement quantities need prev, the state that the step to state
    started from; without it (at t=0) they are None. Their dissipation term
    comes from the two states alone: the step's flow equation delta = -k G
    mu, with delta = phi^{n+1} - phi^n and k = tau after a backward-Euler
    step, delta = 3 phi^{n+1} - 4 phi^n + phi^{n-1} and k = 2 tau after a
    BDF2 step, makes tau ||G^{1/2} mu||^2 = tau/k^2 ||G^{-1/2} delta||^2,
    G^{-1} being 0 on a zero mode that G does not see. Every energy comes
    from the states' energies, which keep what they evaluate, so a record
    costs no transform; its temporaries go into the run's scratch. When
    prev holds state's previous BDF level, int F there is taken once for both.
    """
    grid = state.phi_n.grid
    ws = params.symbols(grid)
    S = params.S if state.scheme.is_improved else 0.0
    if prev is not None and state.phi_nm1 is prev.phi_n:
        state.F_nm1 = prev.bulk_n(params.potential, ws.real[1:])
    values = state.phi_n.values
    e_lin, F, E2 = state.energies(params.potential, S, ws)
    E_orig = e_lin + F
    E_mod = e_lin + state.r_report**2 if state.r_report is not None else None
    r_drift = None
    if state.r_report is not None:
        r_drift = math.sqrt(F) - state.r_report if F > 0 else math.nan
    D_be = D_bdf = None
    if prev is not None:
        e_lin_prev, F_prev, E2_prev = prev.energies(params.potential, S, ws)
        delta, work = ws.spec[2], ws.spec[3]
        np.subtract(state.phi_n.spectrum(), prev.phi_n.spectrum(), out=delta)
        bdf = state.scheme.is_bdf and prev.phi_nm1 is not None
        if bdf:  # 3 (phi^{n+1} - phi^n) - phi^n + phi^{n-1}
            delta *= 3.0
            delta -= prev.phi_n.spectrum()
            delta += prev.phi_nm1.spectrum()
        dissipation = (quad_form_hat(grid, delta, ws.g_inv_c, work)
                       / ((4.0 if bdf else 1.0) * params.tau))
        D_be = E_orig - (e_lin_prev + F_prev) + dissipation
        if E2 is not None and E2_prev is not None:
            D_bdf = E2 - E2_prev + dissipation
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
