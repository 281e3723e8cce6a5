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

# Called by nothing: perfbench/tracing.py still resolves this name as a trace
# site. Its removal waits for ROADMAP item 1, which re-baselines those sites.
from .diagnostics import record_step  # noqa: F401
from .potentials import Potential, bulk_energy, bulk_quad, check_bulk
from .spectral import Field, Grid, _parseval, quad_form_hat

__all__ = [
    "Scheme",
    "ModelParams",
    "SchemeState",
    "make_initial_state",
    "step",
]


class Scheme(str, Enum):
    SAV_BE = "sav-be"
    ISAV_BE = "isav-be"
    SAV_BDF = "sav-bdf"
    ISAV_BDF = "isav-bdf"

    def __init__(self, value):
        # Plain attributes, not properties: a step reads them several times.
        self.is_bdf = value.endswith("-bdf")
        self.is_improved = value.startswith("isav-")


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
    the solve factors keyed by (S, scheme family), complex copies of the
    inverse mobility symbol g_inv (1/g_sym where g_sym > 0, 0 on a vanishing
    zero mode) and of the grid's lap_sym and mode_weight (so that their
    products with spectra need no float-to-complex cast buffer; the bits are
    those of the real symbols), and work arrays: ``real`` on the grid and
    ``spec`` (complex) on the half spectrum. A g_inv that overflows (a
    subnormal gamma*|k|^(2*alpha)) is a ConfigError.

    Every user writes a work array in full before reading it, and keeps
    nothing that aliases one past its return, so callers may share a Scratch.
    """

    def __init__(self, grid: Grid, alpha: float, gamma: float):
        lap = grid.lap_sym
        with np.errstate(over="ignore"):  # an infinite g_sym fails in _solve_factors
            self.g_sym = gamma * lap**alpha if alpha != 0.0 else gamma * np.ones_like(lap)
        try:
            with np.errstate(over="raise"):
                g_inv = np.divide(1.0, self.g_sym, out=np.zeros_like(lap), where=self.g_sym > 0)
        except FloatingPointError as exc:
            from .config import ConfigError  # config imports this module

            raise ConfigError(f"1/(gamma*|k|^(2*alpha)) overflows at gamma={gamma}") from exc
        self.g_inv_c = g_inv.astype(complex)
        self.lap_c = lap.astype(complex)
        self.weight_c = grid.mode_weight.astype(complex)
        self.factors = {}
        self.real = tuple(np.empty(grid.shape) for _ in range(4))
        self.spec = tuple(np.empty(grid.spectral_shape, dtype=complex) for _ in range(4))


@dataclass
class SchemeState:
    """What the next step needs, and a cache of its own level's energies.

    phi_nm1 is the previous level of a BDF state, None on BE states and at
    t=0. The SAV schemes carry their auxiliary scalar in r_n (and r_nm1 for
    BDF2); the improved schemes carry none, and r_report holds the latest
    scalar, carried or reconstructed, for records.

    Every energy of a level is evaluated on first use and then kept here, so
    none is taken twice; None means not evaluated yet. F_n and F_nm1 are the
    bulk integrals at phi_n and phi_nm1 (unchecked for positivity), filled
    by bulk_n and bulk_nm1; e_lin = 1/2 ||L^{1/2} phi_n||^2 and E2 (the
    S-free parts of a two-level BDF state's three-level modified energy) are
    filled by energies.
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
    e_lin: float | None = None
    E2: tuple[float, float] | None = None

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

    def energies(self, potential: Potential, S: float, ws: Scratch):
        """(e_lin, int F(phi_n), E2 with damping S) of the state's level, each
        evaluated on first use from the carried spectra (no transform), with
        ws, the run's Scratch, for temporaries, and kept. E2 is None unless
        the state holds two BDF levels; it is the three-level modified energy

            1/4 (||L^{1/2} phi^n||^2 + ||L^{1/2}(2 phi^n - phi^{n-1})||^2)
            + 1/2 [ r[phi^n]^2 + (2 r[phi^n] - r[phi^{n-1}])^2 ]
            + S/2 ||phi^n - phi^{n-1}||^2,

        r = sqrt(int F), or NaN if either bulk integral is nonpositive (a run
        may still log the other columns). The state keeps E2 without its last
        term and the node sum of (phi^n - phi^{n-1})^2, so each S gets its own.
        """
        grid, F = self.phi_n.grid, self.bulk_n(potential, ws.real[1:])
        if self.e_lin is None:
            self.e_lin = 0.5 * quad_form_hat(grid, self.phi_n.spectrum(), ws.lap_c, ws.spec[3])
        if self.E2 is None and self.scheme.is_bdf and self.phi_nm1 is not None:
            F_m = self.bulk_nm1(potential, ws.real[1:])
            self.E2 = (math.nan, math.nan)
            if F > 0.0 and F_m > 0.0:
                star = np.multiply(self.phi_n.spectrum(), 2.0, out=ws.spec[0])
                star -= self.phi_nm1.spectrum()
                diff = np.subtract(self.phi_n.values, self.phi_nm1.values, out=ws.real[0])
                r_n, r_m = math.sqrt(F), math.sqrt(F_m)
                self.E2 = (
                    0.5 * (self.e_lin + 0.5 * quad_form_hat(grid, star, ws.lap_c, ws.spec[1]))
                    + 0.5 * (r_n**2 + (2.0 * r_n - r_m) ** 2),
                    float(np.vdot(diff, diff)),
                )
        E2 = None if self.E2 is None else self.E2[0] + 0.5 * S * grid.cell_area * self.E2[1]
        return self.e_lin, F, E2


def make_initial_state(scheme: Scheme, phi0: Field, potential: Potential) -> SchemeState:
    """State at t=0, ready for step with any of the four schemes."""
    scheme = Scheme(scheme)
    F0 = bulk_energy(potential, phi0)
    r0 = math.sqrt(F0)
    phi0.spectrum()  # carried by every state, so that a step transforms only f
    return SchemeState(
        scheme=scheme,
        phi_n=phi0,
        r_n=r0 if not scheme.is_improved else None,
        r_report=r0,
        F_n=F0,
    )


# ---------------------------------------------------------------------------
# The time step
# ---------------------------------------------------------------------------


def _rank_one_core(grid: Grid, z_hat, y_hat, wu_hat, w, a=0.0, r=1.0, work=None):
    """Sherman-Morrison solve of phi + (a + w*<b, phi>) z/r = y with
    b = u/r, entirely on the half spectrum. For diag*phi + w*<b, phi>*gb =
    rhs - a*gb, z = r*diag^{-1} gb and y = diag^{-1} rhs are the two
    diagonal solves. wu_hat is u's spectrum weighted by grid.mode_weight,
    so <b, z> and <b, y> are Parseval sums over it divided by r; the one
    update of phi_hat is y - ((a + w*<b, phi>)/r) z, and the only transform
    is the inverse of the solution. work, a complex array of the spectral
    shape that may be z_hat or wu_hat, takes the temporaries.
    Returns (phi_values, phi_hat, <b, phi>).
    """
    bz = _parseval(grid, wu_hat, z_hat) / (r * r)
    bracket = (_parseval(grid, wu_hat, y_hat) / r - a * bz) / (1.0 + w * bz)
    phi_hat = y_hat - np.multiply(z_hat, (a + w * bracket) / r, out=work)
    return grid.inverse(phi_hat, work), phi_hat, bracket


def _solve_factors(ws: Scratch, lap, tau, S, bdf):
    """Diagonal-solve quotients, built once per run for each (S, family).

    Returns (G/diag, c_n/diag, c_nm1/diag): c_n and c_nm1 are the symbols
    that multiply phi^n and phi^{n-1} on the right-hand side (c_nm1 is None
    for the two-level schemes). They are stored as complex, so that their
    products with spectra need no cast buffer (the bits are those of the
    real symbols). The key carries S because schemes that share a
    ModelParams damp with S or with 0. A factor whose arithmetic overflows
    (tau*gamma too large for the grid's wavenumbers) is a ConfigError.
    """
    key = (S, bdf)
    out = ws.factors.get(key)
    if out is not None:
        return out
    g = ws.g_sym
    try:
        with np.errstate(over="raise", invalid="raise"):
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
    except FloatingPointError as exc:
        from .config import ConfigError  # config imports this module

        raise ConfigError(f"the solve factors overflow at tau={tau}, S={S}: "
                          "tau*gamma is too large for the grid") from exc
    out = tuple(None if a is None else a.astype(complex) for a in out)
    ws.factors[key] = out
    return out


def step(state: SchemeState, params: ModelParams) -> SchemeState:
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
    allocates only what it returns: phi^{n+1} and its spectrum. Where it
    needs int F and f at one field (phi* of every BDF step, phi^n of a BE
    step whose int F(phi^n) is not carried), one fused potential pass gives
    f and the node sum of F, with no F array. phi* stays a work array, so
    phi^{n+1} is the one field a step checks for finiteness.

    b itself is never formed: the forward transform takes f(phi*), and
    1/sqrt(int F(phi*)) goes into the scalars. One mode-weighted copy of
    f's spectrum gives every <b, .> as a Parseval sum, and
    _rank_one_core builds phi_hat^{n+1} = hist - ((k*c + (k/2)*<b,
    phi^{n+1}>)/r*) z in one update, with hist the history spectrum over
    the diagonal, z = (G/diag) f_hat and r* = sqrt(int F(phi*)); the
    right-hand side's own solve diag^{-1} rhs is never formed.

    Returns the new state. Its record, if wanted, is record_step(new,
    params, state), which reads only the two states.
    """
    scheme = state.scheme
    bdf = scheme.is_bdf and state.phi_nm1 is not None
    grid = state.phi_n.grid
    ws = params.symbols(grid)
    r0, r1, r2, r3 = ws.real
    f_hat, hist, z, wf = ws.spec
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
        f, F_sum = pot.f(star, r1, (r2, r3), F_sum=True)
        F_star = grid.cell_area * F_sum
        if not bdf:
            state.F_n = F_star
    else:
        f = pot.f(star, r1, (r2, r3))
    r_star = math.sqrt(check_bulk(F_star))
    grid.forward(f, out=f_hat)
    np.multiply(ws.weight_c, f_hat, out=wf)
    if bdf:
        ip = (4.0 * _parseval(grid, wf, phi_hat) - _parseval(grid, wf, phim_hat)) / r_star
        if scheme.is_improved:
            F_n, F_m = state.bulk_n(pot, (r1, r2, r3)), state.bulk_nm1(pot, (r1, r2, r3))
            r_hist = (4.0 * math.sqrt(check_bulk(F_n)) - math.sqrt(check_bulk(F_m))) / 3.0
        else:
            r_hist = (4.0 * state.r_n - state.r_nm1) / 3.0
        c = r_hist - ip / 6.0
        k = 2.0 * tau
        g_d, cn_d, cm_d = _solve_factors(ws, grid.lap_sym, tau, S, True)
        np.multiply(cn_d, phi_hat, out=hist)
        hist -= np.multiply(cm_d, phim_hat, out=z)
    else:
        ip = _parseval(grid, wf, phi_hat) / r_star
        r = state.r_n if scheme is Scheme.SAV_BE else r_star
        c = r - 0.5 * ip
        k = tau
        g_d, cn_d, _ = _solve_factors(ws, grid.lap_sym, tau, S, False)
        np.multiply(cn_d, phi_hat, out=hist)
    np.multiply(g_d, f_hat, out=z)
    new_values, new_hat, bracket = _rank_one_core(grid, z, hist, wf, 0.5 * k, k * c, r_star, wf)
    r_new = c + 0.5 * bracket if bdf else r + 0.5 * (bracket - ip)
    return SchemeState(
        scheme=scheme,
        phi_n=Field(grid, new_values, new_hat),
        step_index=state.step_index + 1,
        phi_nm1=state.phi_n if scheme.is_bdf else None,
        r_n=None if scheme.is_improved else r_new,
        r_nm1=state.r_n if scheme.is_bdf else None,
        r_report=r_new,
        F_nm1=state.F_n if scheme.is_bdf else None,
    )
