"""Auxiliary-variable time stepping for 2-D periodic gradient flows.

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

All four are one function, :func:`step`, driven by two choices: the time
discretization (backward Euler or BDF2) and the scalar policy (carried or
re-evaluated). Every step is one linear solve with a constant-coefficient
diagonal operator perturbed by a rank-one term, done in Fourier space by
two diagonal solves and a scalar correction (see :func:`_rank_one_core`).
The BDF2 schemes need two levels, so :func:`step` takes their first step
by backward Euler with the re-evaluated scalar; ``phi_nm1`` is BDF history
only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .diagnostics import level_energies, record_step
from .potentials import Potential, bulk_energy, bulk_quad, check_bulk
from .spectral import Field, Grid, _parseval

__all__ = [
    "Scheme",
    "ModelParams",
    "SchemeState",
    "EnergyLawViolation",
    "make_initial_state",
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
    _symbols: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def symbols(self, grid: Grid) -> Scratch:
        """What every step on grid reuses, built on first use and cached by
        grid; a copy made by dataclasses.replace builds its own."""
        ws = self._symbols.get(grid)
        if ws is None:
            ws = self._symbols[grid] = Scratch(grid, self.alpha, self.gamma)
        return ws


class Scratch:
    """What the steps of one ModelParams on one grid reuse instead of
    rebuilding or allocating: the mobility symbol g_sym = gamma*|k|^(2*alpha)
    on the rfft2 half spectrum (its zero mode is gamma for alpha = 0, the
    operator gamma*I, and vanishes for alpha > 0, which conserves the mean),
    the solve factors keyed by (S, scheme family), and work arrays: ``real``
    on the grid, ``spec`` (complex) on the half spectrum, and ``power``
    (real) on the half spectrum, where quad_form_hat builds |u_hat|^2.

    Every user writes a work array in full before reading it, and keeps
    nothing that aliases one past its return, so callers may share a Scratch.
    """

    def __init__(self, grid: Grid, alpha: float, gamma: float):
        lap = grid.lap_sym
        self.g_sym = gamma * lap**alpha if alpha != 0.0 else gamma * np.ones_like(lap)
        self.factors = {}
        self.real = tuple(np.empty(grid.shape) for _ in range(4))
        self.spec = tuple(np.empty(grid.spectral_shape, dtype=complex) for _ in range(4))
        self.power = tuple(np.empty(grid.spectral_shape) for _ in range(2))
        # The memory of spec[0] (room for nx*(ny+2) floats) seen as one
        # more real grid array, for a user that leaves spec[0] idle.
        flat = self.spec[0].view(float).reshape(-1)
        self.spec0_real = flat[: grid.nx * grid.ny].reshape(grid.shape)


@dataclass
class StepDiagnostics:
    """Energies of a state's own level that only records use, carried by
    the states of recording steps.

    e_lin is 1/2 ||L^{1/2} phi_n||^2; mu_hat the spectrum of the chemical
    potential of the step that produced the state (None at t=0); E2 the
    three-level modified energy (BDF states only).
    """

    e_lin: float
    mu_hat: np.ndarray | None = None
    E2: float | None = None


@dataclass
class SchemeState:
    """What the next step needs, plus an optional diagnostics carry.

    phi_nm1 is the previous level of a BDF state, None on BE states and at
    t=0. The SAV schemes carry their auxiliary scalar in r_n (and r_nm1 for
    BDF2); the improved schemes carry none, and r_report holds the latest
    scalar, carried or reconstructed, for records. F_n and F_nm1 are
    the bulk integrals at phi_n and phi_nm1 once evaluated (unchecked for
    positivity), else None; bulk_n and bulk_nm1 evaluate them on first use,
    so no level's integral is taken twice. diag is filled only by steps
    that record.
    """

    scheme: Scheme
    phi_n: Field
    step_index: int = 0
    phi_nm1: Field | None = None
    r_n: float | None = None
    r_nm1: float | None = None
    r_report: float | None = None
    F_n: float | None = None
    F_nm1: float | None = None
    diag: StepDiagnostics | None = None

    def bulk_n(self, potential: Potential, work=None) -> float:
        """int F(phi_n), evaluated on first use (work as for bulk_quad)."""
        if self.F_n is None:
            self.F_n = bulk_quad(potential, self.phi_n, work)
        return self.F_n

    def bulk_nm1(self, potential: Potential, work=None) -> float:
        """int F(phi_nm1), evaluated on first use (work as for bulk_quad)."""
        if self.F_nm1 is None:
            self.F_nm1 = bulk_quad(potential, self.phi_nm1, work)
        return self.F_nm1


def make_initial_state(scheme: Scheme, phi0: Field, potential: Potential) -> SchemeState:
    """State at t=0, ready for step with any of the four schemes."""
    scheme = Scheme(scheme)
    F0 = bulk_energy(potential, phi0)
    r0 = math.sqrt(F0)
    state = SchemeState(
        scheme=scheme,
        phi_n=phi0,
        r_n=r0 if not scheme.is_improved else None,
        r_report=r0,
        F_n=F0,
    )
    state.diag = StepDiagnostics(e_lin=level_energies(state, potential)[0])
    return state


# ---------------------------------------------------------------------------
# The time step
# ---------------------------------------------------------------------------


def _rank_one_core(grid: Grid, z1_hat, z2_hat, b_hat, w, work=None):
    """Sherman-Morrison solve of diag*phi + w*<b, phi>*gb = rhs, entirely on
    the half spectrum: z1 = diag^{-1} gb and z2 = diag^{-1} rhs are the two
    diagonal solves, <b, z1> and <b, z2> are Parseval sums over one
    weighted b_hat, and the only transform is the inverse of the solution.
    work, a complex array of the spectral shape, takes the temporaries.
    Returns (phi_values, phi_hat, <b, phi>).
    """
    wb_hat = np.multiply(grid.mode_weight, b_hat, out=work)
    s1 = _parseval(grid, wb_hat, z1_hat)
    s2 = _parseval(grid, wb_hat, z2_hat)
    bracket = s2 / (1.0 + w * s1)
    phi_hat = z2_hat - np.multiply(z1_hat, w * bracket, out=work)
    return grid.inverse(phi_hat, work), phi_hat, bracket


def _solve_factors(ws: Scratch, lap, tau, S, bdf):
    """Diagonal-solve quotients, built once per run for each (S, family).

    Returns (G/diag, c_n/diag, c_nm1/diag): c_n and c_nm1 are the symbols
    that multiply phi^n and phi^{n-1} on the right-hand side (c_nm1 is None
    for the two-level schemes). They are stored as complex, so that their
    products with spectra need no cast buffer (the bits are those of the
    real symbols). The key carries S because schemes that share a
    ModelParams damp with S or with 0.
    """
    key = (S, bdf)
    out = ws.factors.get(key)
    if out is not None:
        return out
    g = ws.g_sym
    if bdf:
        inv_diag = 1.0 / (3.0 + 2.0 * tau * g * (lap + S))
        out = (
            g * inv_diag,
            (4.0 + 4.0 * tau * S * g) * inv_diag,
            (1.0 + 2.0 * tau * S * g) * inv_diag,
        )
    else:
        inv_diag = 1.0 / (1.0 + tau * g * (lap + S))
        out = (g * inv_diag, (1.0 + tau * S * g) * inv_diag, None)
    out = tuple(None if a is None else a.astype(complex) for a in out)
    ws.factors[key] = out
    return out


def step(state: SchemeState, params: ModelParams, record=True):
    """Advance the state one time level with its own scheme.

    Every scheme solves [a + k*G*(L+S)] phi + (k/2) <b,phi> G b = rhs with
    b = f(phi*)/sqrt(int F(phi*)) at an extrapolant phi*. The time
    discretization fixes a, k, phi* and the history: backward Euler has
    a = 1, k = tau, phi* = phi^n; BDF2 (scaled by 2*tau) has a = 3,
    k = 2*tau, phi* = 2 phi^n - phi^{n-1}. Eliminating r^{n+1} gives

        BE:   rhs = (1 + tau*S*G) phi^n - tau*c*G b,
              c = r^n - <b,phi^n>/2,   r^{n+1} = r^n + (<b,phi^{n+1}> - <b,phi^n>)/2;
        BDF2: rhs = (4 + 4 tau S G) phi^n - (1 + 2 tau S G) phi^{n-1} - 2 tau c G b,
              c = (4 r^n - r^{n-1})/3 - <b, 4 phi^n - phi^{n-1}>/6,
              r^{n+1} = c + <b,phi^{n+1}>/2.

    A BDF state without phi^{n-1} (the state at t=0) takes the BE step
    with the re-evaluated scalar r^n = r[phi^n] and the run's own S, and
    its result carries phi^n as the history of the next, BDF2, step.

    The scalar policy fixes r^n and S: the SAV schemes use their carried
    scalars and S = 0; the improved schemes re-evaluate r[phi] = sqrt(int
    F(phi)) at the history levels, damp with S*(phi^{n+1} - phi^n) (BE) or
    S*(phi^{n+1} - 2 phi^n + phi^{n-1}) (BDF2), and only report the
    reconstructed r~^{n+1}. A nonpositive bulk integral at phi* or, for the
    improved schemes, at a history level raises NonPositiveBulkEnergyError.

    The mobility symbol, solve factors and grid-sized temporaries come
    from params.symbols(grid), built once per ModelParams; the step
    allocates only what it returns: phi^{n+1}, its spectrum, and mu's
    spectrum when recording. Where it needs int F and f at one field (phi*
    of every BDF step, phi^n of a BE step whose int F(phi^n) is not
    carried), one fused potential pass gives both. phi* stays a work
    array, so phi^{n+1} is the one field a step checks for finiteness.

    Returns (new_state, record). With record=False the record is None and
    the new state carries no diagnostics; the field is the same either
    way. A record's decrements take the previous level's energies from
    state itself, so any step may record, whether or not the one before
    it did.
    """
    scheme = state.scheme
    bdf = scheme.is_bdf and state.phi_nm1 is not None
    grid = state.phi_n.grid
    ws = params.symbols(grid)
    r0, r1, r2, r3 = ws.real
    b_hat, c1, c2, c3 = ws.spec
    F_work = (r1, r2, r3)
    pot, tau = params.potential, params.tau
    S = params.S if scheme.is_improved else 0.0
    phi, phi_hat = state.phi_n.values, state.phi_n.spectrum()
    if bdf:
        phim, phim_hat = state.phi_nm1.values, state.phi_nm1.spectrum()
        star = np.multiply(phi, 2.0, out=r0)
        star -= phim
        F_star = None
    else:
        star, F_star = phi, state.F_n
    if F_star is None:
        # F goes into b_hat's memory, idle until the forward transform.
        b = pot.f(star, r1, (r2, r3), F_out=ws.spec0_real)
        F_star = grid.quad(ws.spec0_real)
        if not bdf:
            state.F_n = F_star
    else:
        b = pot.f(star, r1, (r2, r3))
    r_star = math.sqrt(check_bulk(F_star))
    b /= r_star
    grid.forward(b, out=b_hat)
    if bdf:
        np.multiply(phi, 4.0, out=r0)
        r0 -= phim
        ip = grid.quad(np.multiply(b, r0, out=r0))
        if scheme.is_improved:
            F_n, F_m = state.bulk_n(pot, F_work), state.bulk_nm1(pot, F_work)
            r_hist = (4.0 * math.sqrt(check_bulk(F_n)) - math.sqrt(check_bulk(F_m))) / 3.0
        else:
            r_hist = (4.0 * state.r_n - state.r_nm1) / 3.0
        c = r_hist - ip / 6.0
        k = 2.0 * tau
        g_d, cn_d, cm_d = _solve_factors(ws, grid.lap_sym, tau, S, True)
        np.multiply(cn_d, phi_hat, out=c1)
        c1 -= np.multiply(cm_d, phim_hat, out=c2)
    else:
        ip = grid.quad(np.multiply(b, phi, out=r0))
        r = state.r_n if scheme is Scheme.SAV_BE else r_star
        c = r - 0.5 * ip
        k = tau
        g_d, cn_d, _ = _solve_factors(ws, grid.lap_sym, tau, S, False)
        np.multiply(cn_d, phi_hat, out=c1)
    # c1 holds the history term; subtracting (k c) z1 makes it z2.
    z1_hat = np.multiply(g_d, b_hat, out=c2)
    c1 -= np.multiply(z1_hat, k * c, out=c3)
    new_values, new_hat, bracket = _rank_one_core(grid, z1_hat, c1, b_hat, 0.5 * k, c3)
    r_new = c + 0.5 * bracket if bdf else r + 0.5 * (bracket - ip)
    new = SchemeState(
        scheme=scheme,
        phi_n=Field(grid, new_values, new_hat),
        step_index=state.step_index + 1,
        phi_nm1=state.phi_n if scheme.is_bdf else None,
        r_n=None if scheme.is_improved else r_new,
        r_nm1=state.r_n if scheme.is_bdf else None,
        r_report=r_new,
        F_nm1=state.F_n if scheme.is_bdf else None,
    )
    if not record:
        return new, None

    # Diagnostics, built from spectra already in hand: no transform.
    mu_hat = grid.lap_sym * new_hat
    mu_hat += np.multiply(b_hat, r_new, out=c1)
    if scheme.is_improved:
        if bdf:
            np.multiply(phi_hat, 2.0, out=c1)
            np.subtract(new_hat, c1, out=c1)
            c1 += phim_hat
        else:
            np.subtract(new_hat, phi_hat, out=c1)
        c1 *= S
        mu_hat += c1
    if scheme.is_bdf:
        new.F_nm1 = state.bulk_n(pot, F_work)
    e_lin, _, E2 = level_energies(new, pot, S, ws)
    new.diag = StepDiagnostics(e_lin=e_lin, mu_hat=mu_hat, E2=E2)
    rec = record_step(new, params, state)
    if params.assert_energy:
        _check_energy_laws(state, new, params, rec)
    return new, rec


def _check_energy_laws(old, new, params, rec):
    if new.scheme.is_bdf:
        return
    e_lin_old, F_old, _ = level_energies(old, params.potential)
    if new.scheme == Scheme.SAV_BE:
        e_mod_old = e_lin_old + old.r_n**2
        if rec.E_mod > e_mod_old + MODIFIED_ENERGY_RTOL * abs(e_mod_old):
            raise EnergyLawViolation(
                f"modified energy rose at step {new.step_index}: {e_mod_old} -> {rec.E_mod}"
            )
    elif new.scheme == Scheme.ISAV_BE and rec.D_be is not None:
        tol = ORIGINAL_ENERGY_RTOL * (1.0 + abs(e_lin_old + F_old))
        if rec.D_be > tol:
            raise EnergyLawViolation(
                f"original-energy decrement positive at step {new.step_index}: {rec.D_be}"
            )
