"""Auxiliary-variable time steppers for 2-D periodic gradient flows.

Four schemes are implemented for d(phi)/dt = -G mu with mu the variational
derivative of E[phi] = 1/2 ||L^{1/2} phi||^2 + int F(phi), where L = -Lap
and G = gamma * (-Lap)^alpha:

* ``sav-be`` / ``sav-bdf``: scalar-auxiliary-variable schemes that carry a
  discrete scalar r^n alongside the field and dissipate a modified energy
  unconditionally.
* ``isav-be`` / ``isav-bdf``: improved variants that re-evaluate the
  auxiliary scalar from the field every step (square root of the integrated
  bulk energy) and add a damping term S*(phi^{n+1} - phi^n) (second
  difference for BDF). With S at least half the peak of f' along the
  trajectory, the backward-Euler variant dissipates the *original* energy
  monotonically.

Every step reduces to one linear solve with a constant-coefficient diagonal
operator perturbed by a rank-one term, handled by :func:`rank_one_solve`
through two diagonal solves and a scalar correction. All solves are done in
Fourier space where the diagonal part is literally diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .diagnostics import e2_from_parts, record_step
from .potentials import Potential, bulk_energy, bulk_quad
from .spectral import (
    Field,
    Grid,
    OperatorSymbols,
    apply_symbol,
    dealias_mask,
    inner_hat,
    operator_symbols,
    quad_form_hat,
)

__all__ = [
    "Scheme",
    "ModelParams",
    "SchemeState",
    "RankOneSystem",
    "EnergyLawViolation",
    "rank_one_solve",
    "dense_solve_oracle",
    "make_initial_state",
    "step_sav_be",
    "step_isav_be",
    "step_sav_bdf",
    "step_isav_bdf",
    "bootstrap_bdf",
    "step",
]

# Relative slack for the opt-in per-step energy-law assertions.
MODIFIED_ENERGY_RTOL = 1e-12
ORIGINAL_ENERGY_RTOL = 1e-10


class Scheme(str, Enum):
    SAV_BE = "sav-be"
    ISAV_BE = "isav-be"
    SAV_BDF = "sav-bdf"
    ISAV_BDF = "isav-bdf"

    @property
    def is_bdf(self) -> bool:
        return self in (Scheme.SAV_BDF, Scheme.ISAV_BDF)

    @property
    def is_improved(self) -> bool:
        return self in (Scheme.ISAV_BE, Scheme.ISAV_BDF)


class EnergyLawViolation(RuntimeError):
    """Raised by the opt-in per-step checks of the discrete energy laws."""


@dataclass(frozen=True)
class ModelParams:
    """Fixed run-level parameters of the flow and its discretization.

    alpha selects the dissipation mechanism (0: pointwise relaxation, 1:
    mean-conserving flow, fractional values allowed), gamma its rate, S the
    stabilization coefficient used by the improved schemes, tau the time
    step. The stiffness operator is fixed to -Laplacian.
    """

    alpha: float
    gamma: float
    S: float
    tau: float
    potential: Potential
    assert_energy: bool = False
    dealias: bool = False

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not (self.gamma > 0):
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not (self.S >= 0):
            raise ValueError(f"S must be nonnegative, got {self.S}")
        if not (self.tau > 0):
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not (math.isfinite(self.tau * self.S) and math.isfinite(self.tau * self.gamma)):
            raise ValueError("tau*S and tau*gamma must be finite")

    def symbols(self, grid: Grid) -> OperatorSymbols:
        return operator_symbols(grid, self.alpha, self.gamma)


@dataclass
class SchemeState:
    """State advanced by the steppers plus per-step diagnostic carries.

    The SAV family carries its discrete auxiliary scalar in r_n (and r_nm1
    for the BDF variant). The improved schemes carry no scalar between
    steps; r_report only records the most recently reconstructed value for
    diagnostics. mu_hat (the spectrum of the chemical potential of the step
    that produced the state), phi_prev and the energy scalars exist so a
    fully populated record can be produced from the state alone; they are
    None on the fast path used for long reference runs. e_lin_n and F_n are
    the gradient and bulk parts of the original energy at phi_n.
    """

    scheme: Scheme
    phi_n: Field
    step_index: int = 0
    phi_nm1: Field | None = None
    r_n: float | None = None
    r_nm1: float | None = None
    r_report: float | None = None
    mu_hat: np.ndarray | None = None
    phi_prev: Field | None = None
    e_lin_n: float | None = None
    F_n: float | None = None
    prev_E_orig: float | None = None
    E2_n: float | None = None
    prev_E2: float | None = None

    @property
    def E_orig_n(self) -> float | None:
        """Original energy at phi_n, when the step computed its parts."""
        return None if self.F_n is None else self.e_lin_n + self.F_n

    @property
    def last_mu(self) -> Field | None:
        """Chemical potential of the step that produced this state."""
        if self.mu_hat is None:
            return None
        grid = self.phi_n.grid
        return Field(grid, grid.inverse(self.mu_hat), self.mu_hat)


def make_initial_state(scheme: Scheme, phi0: Field, potential: Potential) -> SchemeState:
    """State at t=0. BDF schemes additionally need bootstrap_bdf afterwards."""
    scheme = Scheme(scheme)
    F0 = bulk_energy(potential, phi0)
    r0 = math.sqrt(F0)
    return SchemeState(
        scheme=scheme,
        phi_n=phi0,
        step_index=0,
        r_n=r0 if not scheme.is_improved else None,
        r_report=r0,
        e_lin_n=0.5 * quad_form_hat(phi0.grid, phi0.spectrum(), phi0.grid.lap_sym),
        F_n=F0,
    )


# ---------------------------------------------------------------------------
# Rank-one perturbed diagonal solves
# ---------------------------------------------------------------------------


@dataclass
class RankOneSystem:
    """Linear system diag*phi + w*<b, phi>*gb = rhs.

    diag is a per-mode symbol with every entry >= 1, gb and rhs are fields,
    and <.,.> is the nodal quadrature inner product against b. When gb is a
    nonnegative diagonal operator applied to b, the solvability denominator
    1 + w*<b, diag^{-1} gb> is at least 1.
    """

    diag: np.ndarray
    gb: Field
    b: Field
    rhs: Field
    w: float


def _rank_one_core(grid: Grid, z1_hat, z2_hat, b_hat, w):
    """Sherman-Morrison step shared by every solve, entirely on the half
    spectrum: z1 = diag^{-1} gb and z2 = diag^{-1} rhs are the two diagonal
    solves, <b, z1> and <b, z2> are Parseval sums, and the only transform is
    the inverse of the solution. Returns (phi_values, phi_hat, <b, phi>).
    """
    s1 = inner_hat(grid, b_hat, z1_hat)
    s2 = inner_hat(grid, b_hat, z2_hat)
    bracket = s2 / (1.0 + w * s1)
    phi_hat = z2_hat - (w * bracket) * z1_hat
    return grid.inverse(phi_hat), phi_hat, bracket


def rank_one_solve(sys: RankOneSystem) -> Field:
    """Solve the rank-one perturbed diagonal system via two diagonal solves."""
    g = sys.rhs.grid
    if sys.diag.shape != g.spectral_shape:
        raise ValueError("diag symbol does not match the grid's spectral layout")
    phi, phi_hat, _ = _rank_one_core(
        g,
        sys.gb.spectrum() / sys.diag,
        sys.rhs.spectrum() / sys.diag,
        sys.b.spectrum(),
        sys.w,
    )
    return Field(g, phi, phi_hat)


def dense_solve_oracle(sys: RankOneSystem) -> Field:
    """Assemble the full matrix and solve densely; verification only.

    The diagonal symbol is realized column by column through transforms and
    the rank-one part through the quadrature weights, so this shares nothing
    with rank_one_solve beyond the transforms themselves.
    """
    g = sys.rhs.grid
    if g.nx > 16 or g.ny > 16:
        raise ValueError("dense oracle is restricted to grids of at most 16x16")
    n = g.nx * g.ny
    A = np.empty((n, n))
    e = np.zeros(g.shape)
    for j in range(n):
        e.flat[j] = 1.0
        A[:, j] = apply_symbol(Field(g, e), sys.diag).values.ravel()
        e.flat[j] = 0.0
    A += sys.w * np.outer(sys.gb.values.ravel(), g.cell_area * sys.b.values.ravel())
    phi = np.linalg.solve(A, sys.rhs.values.ravel())
    return Field(g, phi.reshape(g.shape))


# ---------------------------------------------------------------------------
# Shared step machinery
# ---------------------------------------------------------------------------


def _solve_factors(sym: OperatorSymbols, tau, S, bdf):
    """Diagonal-solve quotients, built once per run for each (tau, S, family).

    Returns (G/diag, c_n/diag, c_nm1/diag): c_n and c_nm1 are the symbols
    that multiply phi^n and phi^{n-1} on the right-hand side (c_nm1 is None
    for the two-level schemes). The key carries S because BDF runs take
    their bootstrap step with a different S than the run itself.
    """
    key = (tau, S, bdf)
    out = sym.solve_factors.get(key)
    if out is not None:
        return out
    g = sym.g_sym
    if bdf:
        inv_diag = 1.0 / (3.0 + 2.0 * tau * g * (sym.lap + S))
        out = (
            g * inv_diag,
            (4.0 + 4.0 * tau * S * g) * inv_diag,
            (1.0 + 2.0 * tau * S * g) * inv_diag,
        )
    else:
        inv_diag = 1.0 / (1.0 + tau * g * (sym.lap + S))
        out = (g * inv_diag, (1.0 + tau * S * g) * inv_diag, None)
    sym.solve_factors[key] = out
    return out


def _nonlinear_weight(params: ModelParams, phi: Field):
    """f(phi)/sqrt(int F(phi)) with its transform and sqrt(int F)."""
    grid = phi.grid
    r_func = math.sqrt(bulk_energy(params.potential, phi))
    b = params.potential.f(phi.values) / r_func
    b_hat = grid.forward(b)
    if params.dealias:
        b_hat = b_hat * dealias_mask(grid)
        b = grid.inverse(b_hat)
    return b, b_hat, r_func


def _finish_step(state, params, sym, new_values, new_hat, mu_hat, stash, record):
    """Assemble the successor state and, unless skipped, its record.

    The new field carries the spectrum the solve produced, and the record
    is built from spectra already in hand, so it costs no transform.
    """
    grid = state.phi_n.grid
    new_state = SchemeState(
        scheme=state.scheme,
        phi_n=Field(grid, new_values, new_hat),
        step_index=state.step_index + 1,
        phi_nm1=state.phi_n if state.scheme.is_bdf else None,
        r_n=stash.get("r_n"),
        r_nm1=stash.get("r_nm1"),
        r_report=stash["r_report"],
        phi_prev=state.phi_n,
    )
    if not record:
        return new_state, None
    new_state.mu_hat = mu_hat
    new_state.prev_E_orig = state.E_orig_n
    new_state.prev_E2 = state.E2_n
    e_lin = 0.5 * quad_form_hat(grid, new_hat, sym.lap)
    F_new = bulk_quad(params.potential, new_state.phi_n)
    new_state.e_lin_n = e_lin
    new_state.F_n = F_new
    if state.scheme.is_bdf:
        S_eff = params.S if state.scheme.is_improved else 0.0
        e_lin_star = 0.5 * quad_form_hat(grid, 2.0 * new_hat - state.phi_n.spectrum(), sym.lap)
        diff_sq = grid.quad((new_values - state.phi_n.values) ** 2)
        F_n = stash.get("F_n", state.F_n)
        if F_n is None:
            F_n = bulk_quad(params.potential, state.phi_n)
        new_state.E2_n = e2_from_parts(e_lin, e_lin_star, F_new, F_n, S_eff, diff_sq)
    rec = record_step(new_state, params, sym)
    if params.assert_energy:
        _check_energy_laws(state, new_state, params, rec, stash)
    return new_state, rec


def _check_energy_laws(old, new, params, rec, stash):
    if new.scheme == Scheme.SAV_BE:
        e_mod_old = stash["e_lin_old"] + old.r_n**2
        if rec.E_mod > e_mod_old + MODIFIED_ENERGY_RTOL * abs(e_mod_old):
            raise EnergyLawViolation(
                f"modified energy rose at step {new.step_index}: {e_mod_old} -> {rec.E_mod}"
            )
    elif new.scheme == Scheme.ISAV_BE and rec.D_be is not None:
        tol = ORIGINAL_ENERGY_RTOL * (1.0 + abs(stash["E_orig_old"]))
        if rec.D_be > tol:
            raise EnergyLawViolation(
                f"original-energy decrement positive at step {new.step_index}: {rec.D_be}"
            )


# ---------------------------------------------------------------------------
# Backward-Euler steppers
# ---------------------------------------------------------------------------


def step_sav_be(state, params, sym=None, record=True):
    """One step of the first-order SAV scheme.

    The carried scalar r^n stands in for the bulk functional inside the
    chemical potential; eliminating r^{n+1} yields

        [I + tau*G*L] phi + (tau/2) <b,phi> G b
            = phi^n - tau*(r^n - <b,phi^n>/2) G b,

    with b = f(phi^n)/sqrt(int F(phi^n)); then
    r^{n+1} = r^n + <b, phi^{n+1}-phi^n>/2 and mu = L phi^{n+1} + r^{n+1} b.
    """
    if state.scheme != Scheme.SAV_BE:
        raise ValueError(f"state carries scheme {state.scheme}, expected sav-be")
    grid = state.phi_n.grid
    sym = sym or params.symbols(grid)
    tau = params.tau
    b, b_hat, _ = _nonlinear_weight(params, state.phi_n)
    phi_hat = state.phi_n.spectrum()
    ip_b_phi = grid.quad(b * state.phi_n.values)
    g_d, c_d, _ = _solve_factors(sym, tau, 0.0, False)
    z1_hat = g_d * b_hat
    z2_hat = c_d * phi_hat - tau * (state.r_n - 0.5 * ip_b_phi) * z1_hat
    new_values, new_hat, bracket = _rank_one_core(grid, z1_hat, z2_hat, b_hat, 0.5 * tau)
    r_new = state.r_n + 0.5 * (bracket - ip_b_phi)
    mu_hat = sym.lap * new_hat + r_new * b_hat if record else None
    stash = {"r_n": r_new, "r_report": r_new}
    if params.assert_energy:
        stash["e_lin_old"] = 0.5 * quad_form_hat(grid, phi_hat, sym.lap)
    return _finish_step(state, params, sym, new_values, new_hat, mu_hat, stash, record)


def step_isav_be(state, params, sym=None, record=True):
    """One step of the first-order improved scheme.

    Same elimination as sav-be but with the exact functional value r[phi^n]
    in place of the carried scalar and the damping folded into the operator:

        [I + tau*G*(L+S)] phi + (tau/2) <b,phi> G b
            = (I + tau*S*G) phi^n - tau*(r[phi^n] - <b,phi^n>/2) G b.

    The reconstructed scalar r~^{n+1} = r[phi^n] + <b, phi^{n+1}-phi^n>/2 is
    reported but never fed back into the next step.
    """
    if state.scheme != Scheme.ISAV_BE:
        raise ValueError(f"state carries scheme {state.scheme}, expected isav-be")
    grid = state.phi_n.grid
    sym = sym or params.symbols(grid)
    tau, S = params.tau, params.S
    b, b_hat, r_func = _nonlinear_weight(params, state.phi_n)
    phi_hat = state.phi_n.spectrum()
    ip_b_phi = grid.quad(b * state.phi_n.values)
    g_d, c_d, _ = _solve_factors(sym, tau, S, False)
    z1_hat = g_d * b_hat
    z2_hat = c_d * phi_hat - tau * (r_func - 0.5 * ip_b_phi) * z1_hat
    new_values, new_hat, bracket = _rank_one_core(grid, z1_hat, z2_hat, b_hat, 0.5 * tau)
    r_tilde = r_func + 0.5 * (bracket - ip_b_phi)
    mu_hat = sym.lap * new_hat + r_tilde * b_hat + S * (new_hat - phi_hat) if record else None
    stash = {"r_report": r_tilde}
    if params.assert_energy:
        stash["E_orig_old"] = state.E_orig_n
        if stash["E_orig_old"] is None:
            stash["E_orig_old"] = 0.5 * quad_form_hat(grid, phi_hat, sym.lap) + bulk_quad(
                params.potential, state.phi_n
            )
    return _finish_step(state, params, sym, new_values, new_hat, mu_hat, stash, record)


# ---------------------------------------------------------------------------
# BDF2 steppers
# ---------------------------------------------------------------------------


def _bdf_common(state, params):
    """Pieces shared by both three-level steppers.

    The nonlinearity is evaluated at the extrapolant 2 phi^n - phi^{n-1};
    a nonpositive bulk integral there is a genuine runtime failure that is
    propagated, not clamped.
    """
    grid = state.phi_n.grid
    if state.phi_nm1 is None:
        raise ValueError("BDF step requires two history levels; bootstrap first")
    phi = state.phi_n.values
    phim = state.phi_nm1.values
    b, b_hat, _ = _nonlinear_weight(params, Field(grid, 2.0 * phi - phim))
    ip_b_hist = grid.quad(b * (4.0 * phi - phim))
    return grid, b_hat, state.phi_n.spectrum(), state.phi_nm1.spectrum(), ip_b_hist


def _bdf_solve(grid, params, sym, S, b_hat, phi_hat, phim_hat, c):
    """Solve [3 + 2*tau*G*(L+S)] phi + tau <b,phi> G b = rhs (the 2*tau-scaled
    form of the three-level update), where
    rhs = (4 + 4*tau*S*G) phi^n - (1 + 2*tau*S*G) phi^{n-1} - 2*tau*c*G b."""
    tau = params.tau
    g_d, cn_d, cm_d = _solve_factors(sym, tau, S, True)
    z1_hat = g_d * b_hat
    z2_hat = cn_d * phi_hat - cm_d * phim_hat - (2.0 * tau * c) * z1_hat
    return _rank_one_core(grid, z1_hat, z2_hat, b_hat, tau)


def step_sav_bdf(state, params, sym=None, record=True):
    """One step of the second-order SAV scheme (BDF2 in time).

    Carries r^n, r^{n-1}; eliminating
    r^{n+1} = (4 r^n - r^{n-1})/3 + <b, 3 phi^{n+1} - 4 phi^n + phi^{n-1}>/6
    gives the same rank-one solve with diagonal 3 + 2*tau*G*L and weight tau.
    """
    if state.scheme != Scheme.SAV_BDF:
        raise ValueError(f"state carries scheme {state.scheme}, expected sav-bdf")
    sym = sym or params.symbols(state.phi_n.grid)
    grid, b_hat, phi_hat, phim_hat, ip_b_hist = _bdf_common(state, params)
    c = (4.0 * state.r_n - state.r_nm1) / 3.0 - ip_b_hist / 6.0
    new_values, new_hat, bracket = _bdf_solve(grid, params, sym, 0.0, b_hat, phi_hat, phim_hat, c)
    r_new = c + 0.5 * bracket
    mu_hat = sym.lap * new_hat + r_new * b_hat if record else None
    stash = {"r_n": r_new, "r_nm1": state.r_n, "r_report": r_new}
    return _finish_step(state, params, sym, new_values, new_hat, mu_hat, stash, record)


def step_isav_bdf(state, params, sym=None, record=True):
    """One step of the second-order improved scheme.

    As sav-bdf but the history scalars are re-evaluated from the fields,
    4 r[phi^n] - r[phi^{n-1}], and the damping acts on the second difference
    S*(phi^{n+1} - 2 phi^n + phi^{n-1}). The reconstructed r~^{n+1} is
    reported for diagnostics only.
    """
    if state.scheme != Scheme.ISAV_BDF:
        raise ValueError(f"state carries scheme {state.scheme}, expected isav-bdf")
    sym = sym or params.symbols(state.phi_n.grid)
    grid, b_hat, phi_hat, phim_hat, ip_b_hist = _bdf_common(state, params)
    F_n = bulk_energy(params.potential, state.phi_n)
    F_m = bulk_energy(params.potential, state.phi_nm1)
    c = (4.0 * math.sqrt(F_n) - math.sqrt(F_m)) / 3.0 - ip_b_hist / 6.0
    new_values, new_hat, bracket = _bdf_solve(
        grid, params, sym, params.S, b_hat, phi_hat, phim_hat, c
    )
    r_tilde = c + 0.5 * bracket
    mu_hat = None
    if record:
        mu_hat = (
            sym.lap * new_hat
            + r_tilde * b_hat
            + params.S * (new_hat - 2.0 * phi_hat + phim_hat)
        )
    stash = {"r_report": r_tilde, "F_n": F_n}
    return _finish_step(state, params, sym, new_values, new_hat, mu_hat, stash, record)


def bootstrap_bdf(be_state: SchemeState, params: ModelParams, scheme: Scheme) -> SchemeState:
    """Promote the result of one isav-be step to a two-level BDF state.

    The SAV variant seeds its scalars with r^0 = r[phi^0] and r^1 set to the
    reconstructed scalar of the bootstrap step.
    """
    scheme = Scheme(scheme)
    if not scheme.is_bdf:
        raise ValueError(f"bootstrap target must be a BDF scheme, got {scheme}")
    if be_state.scheme != Scheme.ISAV_BE or be_state.step_index < 1 or be_state.phi_n is None:
        raise ValueError("bootstrap requires a completed isav-be step")
    if be_state.phi_prev is None:
        raise ValueError("bootstrap requires the pre-step field on the BE state")
    phi0, phi1 = be_state.phi_prev, be_state.phi_n
    state = SchemeState(
        scheme=scheme,
        phi_n=phi1,
        phi_nm1=phi0,
        step_index=be_state.step_index,
        r_report=be_state.r_report,
        mu_hat=be_state.mu_hat,
        phi_prev=phi0,
        e_lin_n=be_state.e_lin_n,
        F_n=be_state.F_n,
        prev_E_orig=be_state.prev_E_orig,
    )
    if scheme == Scheme.SAV_BDF:
        state.r_n = be_state.r_report
        state.r_nm1 = math.sqrt(bulk_energy(params.potential, phi0))
    if be_state.F_n is not None:
        grid = phi1.grid
        S_eff = params.S if scheme.is_improved else 0.0
        state.E2_n = e2_from_parts(
            be_state.e_lin_n,
            0.5 * quad_form_hat(grid, 2.0 * phi1.spectrum() - phi0.spectrum(), grid.lap_sym),
            be_state.F_n,
            bulk_quad(params.potential, phi0),
            S_eff,
            grid.quad((phi1.values - phi0.values) ** 2),
        )
    return state


_STEPPERS = {
    Scheme.SAV_BE: step_sav_be,
    Scheme.ISAV_BE: step_isav_be,
    Scheme.SAV_BDF: step_sav_bdf,
    Scheme.ISAV_BDF: step_isav_bdf,
}


def step(state, params, sym=None, record=True):
    """Dispatch one time step on the state's own scheme."""
    return _STEPPERS[state.scheme](state, params, sym, record)
