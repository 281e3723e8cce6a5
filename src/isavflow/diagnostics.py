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
from .spectral import Field, _fold_half, _map_x, quad_form_hat

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
    """H1 norm of u - ref from the fields' spectra, which a solver's fields
    carry. A reference on another grid over the same domain is folded onto
    u's half spectrum: the modes both grids resolve are copied and the
    Nyquist modes folded or split, as _map_x and _fold_half do."""
    grid, g = u.grid, ref.grid
    ref_hat = ref.spectrum()
    if g != grid:
        if not (np.isclose(g.lx, grid.lx) and np.isclose(g.ly, grid.ly)):
            raise ValueError("h1_error requires matching domain lengths")
        scale = (grid.nx * grid.ny) / (g.nx * g.ny)
        ref_hat = _map_x(_fold_half(ref_hat, grid.ny), grid.nx) * scale
    hat = u.spectrum() - ref_hat
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
    costs no transform; its temporaries go into the run's scratch. A BDF
    state shares its prev level with the state its step started from, so
    int F there is taken once for both.
    """
    level = state.level
    grid = level.phi.grid
    ws = params.symbols(grid)
    values = level.phi.values
    e_lin, F, E2 = state.energies(params)
    E_orig = e_lin + F
    D_be = D_bdf = None
    if prev is not None:
        e_lin_prev, F_prev, E2_prev = prev.energies(params)
        delta, work = ws.spec[2], ws.spec[3]
        old = prev.level.phi.spectrum()
        np.subtract(level.phi.spectrum(), old, out=delta)
        bdf = prev.prev is not None
        if bdf:  # 3 (phi^{n+1} - phi^n) - phi^n + phi^{n-1}
            delta *= 3.0
            delta -= old
            delta += prev.prev.phi.spectrum()
        dissipation = (quad_form_hat(grid, delta, ws.g_inv_c, work)
                       / ((4.0 if bdf else 1.0) * params.tau))
        D_be = E_orig - (e_lin_prev + F_prev) + dissipation
        if E2 is not None and E2_prev is not None:
            D_bdf = E2 - E2_prev + dissipation
    return StepRecord(
        step=state.step_index,
        t=state.step_index * params.tau,
        E_orig=E_orig,
        E_mod=e_lin + level.r**2,
        E2=E2,
        D_be=D_be,
        D_bdf=D_bdf,
        r_drift=math.sqrt(F) - level.r if F > 0 else math.nan,
        mass=float(np.add.reduce(values, axis=None)) / values.size,  # the bits of mean()
        min_phi=float(values.min()),
        max_phi=float(values.max()),
    )
