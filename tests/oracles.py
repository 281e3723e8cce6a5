"""Reference implementations the tests check the package against: slow but
obvious constructions, and a front end that drives the package's own
rank-one kernel on a system a test builds."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from isavflow import DoubleWell, Field, Scheme, bulk_energy, schemes
from isavflow.potentials import Potential
from isavflow.spectral import _parseval


@dataclass(frozen=True)
class ConstantPotential(Potential):
    """F identically c_add, f = f' = 0; handy for linear-decay checks. It
    implements the F/f contract of Potential directly: F's node sum is
    size * c_add, and f fills out when it is given."""

    def F(self, phi, work=None):
        return np.size(phi) * self.c_add

    def f(self, phi, out=None, work=None, F_sum=False):
        p = np.asarray(phi, dtype=float)
        f = np.empty_like(p) if out is None else out
        f.fill(0.0)
        f = f if f.ndim else float(f)
        return (f, self.F(p)) if F_sum else f

    def fprime(self, phi):
        return np.zeros_like(phi) if np.ndim(phi) else 0.0


def double_well_reference(pot, x):
    """(F, f) of a double well as arrays, in the order of operations the
    package used while its fused kernel still wrote an F array: F =
    ((x*x - 1)^2 / (4 eps^2)) + c_add and f = (x*x*x - x) / eps^2."""
    F = x * x - 1.0
    F *= F
    F /= 4.0 * pot.eps**2
    F += pot.c_add
    return F, (x * x * x - x) / pot.eps**2


def flory_huggins_reference(pot, x):
    """(F, f) of a regularized Flory-Huggins potential by the masked
    kernels the package used before its kernels integrated: the
    logarithmic closed form on every value, with the log arguments clipped
    at the smallest normal float, then the values on a quadratic branch
    (hi: x >= 1-sigma, lo: x <= sigma, lo winning where both hold)
    overwritten through where= ufuncs. The lo branch is the hi branch with
    x and 1-x swapped (and, for f, the sign flipped)."""
    s, b, ls = pot.sigma, pot.beta, math.log(pot.sigma)
    tiny = np.finfo(float).tiny
    q = 1.0 - x
    hi, lo = x >= 1.0 - s, x <= s
    lp, lq = np.log(np.maximum(x, tiny)), np.log(np.maximum(q, tiny))
    F, f = x * lp + q * lq, lp - lq
    for u, v, where in ((x, q, hi), (q, x, lo)):
        lu = np.log(u, out=np.zeros_like(u), where=where)
        branch = u * lu + v * v / (2.0 * s) + v * ls - s / 2.0
        np.copyto(F, branch, where=where)
        np.copyto(f, lu + 1.0 - v / s - ls, where=where)
    np.negative(f, out=f, where=lo)
    F += b * (x - x * x)
    f += b * (1.0 - 2.0 * x)
    return F / pot.eps**2 + pot.c_add, f / pot.eps**2


def reference_kernels(pot, x):
    """(F, f) pointwise, by the reference of pot's class."""
    if isinstance(pot, DoubleWell):
        return double_well_reference(pot, x)
    return flory_huggins_reference(pot, x)


def apply_symbol(field: Field, symbol: np.ndarray, sign: float = 1.0) -> Field:
    """Apply a diagonal spectral operator: inverse(symbol * forward(u)) * sign.
    The symbol must be even under k -> -k (on the half spectrum: equal
    entries at +-kx in the ky=0 and Nyquist columns) for a real result."""
    g = field.grid
    if symbol.shape != g.spectral_shape:
        raise ValueError(f"symbol shape {symbol.shape} does not match spectral layout "
                         f"{g.spectral_shape}")
    return Field(g, sign * g.inverse(symbol * field.spectrum()))


def quad(grid, values: np.ndarray) -> float:
    """Nodal quadrature of a gridded integrand over the domain, hx*hy*sum."""
    return grid.cell_area * float(values.sum())


def inner(u: Field, v: Field) -> float:
    """L2 inner product by nodal quadrature, hx*hy * sum(u*v)."""
    if u.grid != v.grid:
        raise ValueError("fields live on different grids")
    return quad(u.grid, u.values * v.values)


def inner_hat(grid, u_hat: np.ndarray, v_hat: np.ndarray) -> float:
    """L2 inner product <u, v> from the two half spectra (Parseval), the
    package's own sum over mode-weighted u_hat. Equals quad(grid, u * v) up
    to rounding: the mode weights count each interior column twice, the
    second time for its conjugate partner."""
    return _parseval(grid, grid.mode_weight * u_hat, v_hat)


def quad_form_reference(grid, hat: np.ndarray, symbol: np.ndarray | None = None) -> float:
    """sum_k w_k symbol_k |u_hat_k|^2 in quadrature normalization, written
    out term by term: |u_hat|^2 from the real and imaginary parts, times the
    Parseval mode weights, times the symbol, then one sum (six passes, two
    of them strided). The package's quad_form_hat gets the same sum from
    one product and one vdot."""
    p = hat.real * hat.real
    p += hat.imag * hat.imag
    p *= grid.mode_weight
    if symbol is not None:
        p *= symbol
    return float(grid.spectral_scale * p.sum())


def e2_energy(phi_n: Field, phi_nm1: Field, potential: Potential, S: float) -> float:
    """Three-level modified energy of a consecutive pair of fields, written
    out from the formula (r = sqrt(int F)) to check the records' E2:

        1/4 (||L^{1/2} phi^n||^2 + ||L^{1/2}(2 phi^n - phi^{n-1})||^2)
        + 1/2 [ r[phi^n]^2 + (2 r[phi^n] - r[phi^{n-1}])^2 ]
        + S/2 ||phi^n - phi^{n-1}||^2.
    """
    grid = phi_n.grid
    if phi_nm1.grid != grid:
        raise ValueError("fields live on different grids")
    r_n = math.sqrt(bulk_energy(potential, phi_n))
    r_m = math.sqrt(bulk_energy(potential, phi_nm1))
    star = 2.0 * phi_n.spectrum() - phi_nm1.spectrum()
    diff = phi_n.values - phi_nm1.values
    return (
        0.25 * (quad_form_reference(grid, phi_n.spectrum(), grid.lap_sym)
                + quad_form_reference(grid, star, grid.lap_sym))
        + 0.5 * (r_n**2 + (2.0 * r_n - r_m) ** 2)
        + 0.5 * S * quad(grid, diff * diff)
    )


def reference_mu(prev, new, params) -> np.ndarray:
    """The chemical potential of the step from prev to new, on the grid,
    from its definition: mu = L phi^{n+1} + r~^{n+1} b, plus S*(phi^{n+1} -
    phi^n) (BE) or S*(phi^{n+1} - 2 phi^n + phi^{n-1}) (BDF2) for the
    improved schemes, with b = f(phi*)/sqrt(int F(phi*)) formed at the
    step's extrapolant. The step is BE for the BE schemes and for a BDF
    state without a prev level, as in schemes.step."""
    g, pot = new.level.phi.grid, params.potential
    phi, old = new.level.phi.values, prev.level.phi.values
    bdf = new.scheme.is_bdf and prev.prev is not None
    star = 2.0 * old - prev.prev.phi.values if bdf else old
    b = pot.f(star) / math.sqrt(bulk_energy(pot, Field(g, star)))
    mu = apply_symbol(new.level.phi, g.lap_sym).values + new.level.r * b
    if new.scheme.is_improved:
        mu += params.S * (phi - 2.0 * old + prev.prev.phi.values if bdf else phi - old)
    return mu


def reference_step(state, params):
    """One step of state's scheme, (phi^{n+1} values, r^{n+1}), written
    straight from the formulas in schemes.step's docstring: b =
    f(phi*)/sqrt(int F(phi*)) formed on the grid, every <.,.> a nodal
    quadrature, z1 = diag^{-1} G b and z2 = diag^{-1} rhs formed as fields,
    then the Sherman-Morrison correction phi = z2 - (k/2) <b,z2>/(1 +
    (k/2) <b,z1>) z1. Slow, and shares nothing with the step beyond the
    transforms and the potential's F and f."""
    scheme = state.scheme
    g = state.level.phi.grid
    phi = Field(g, state.level.phi.values)  # transformed afresh, not carried
    pot, tau = params.potential, params.tau
    improved = scheme in (Scheme.ISAV_BE, Scheme.ISAV_BDF)
    bdf = scheme in (Scheme.SAV_BDF, Scheme.ISAV_BDF) and state.prev is not None
    S = params.S if improved else 0.0
    lap = g.lap_sym
    G = params.gamma * lap**params.alpha  # 0**0 = 1: G = gamma*I for alpha = 0

    def r_of(values):
        return math.sqrt(g.cell_area * pot.F(values))

    if bdf:
        phim = Field(g, state.prev.phi.values)
        star = 2.0 * phi.values - phim.values
        a, k = 3.0, 2.0 * tau
    else:
        star = phi.values
        a, k = 1.0, tau
    b = Field(g, pot.f(star) / r_of(star))
    if bdf:
        r_n, r_m = ((r_of(phi.values), r_of(phim.values)) if improved
                    else (state.level.r, state.prev.r))
        c = (4.0 * r_n - r_m) / 3.0 - inner(b, Field(g, 4.0 * phi.values - phim.values)) / 6.0
        hist = (apply_symbol(phi, 4.0 + 4.0 * tau * S * G).values
                - apply_symbol(phim, 1.0 + 2.0 * tau * S * G).values)
    else:
        r_n = state.level.r if scheme is Scheme.SAV_BE else r_of(phi.values)
        c = r_n - 0.5 * inner(b, phi)
        hist = apply_symbol(phi, 1.0 + tau * S * G).values
    gb = apply_symbol(b, G)
    rhs = Field(g, hist - k * c * gb.values)
    diag = a + k * G * (lap + S)
    z1, z2 = apply_symbol(gb, 1.0 / diag), apply_symbol(rhs, 1.0 / diag)
    w = 0.5 * k
    new = z2.values - w * inner(b, z2) / (1.0 + w * inner(b, z1)) * z1.values
    b_new = inner(b, Field(g, new))
    r_new = c + 0.5 * b_new if bdf else r_n + 0.5 * (b_new - inner(b, phi))
    return new, r_new


@dataclass
class RankOneSystem:
    """Linear system diag*phi + w*<b, phi>*gb = rhs: diag a per-mode symbol
    >= 1, gb, b and rhs fields, <.,.> the nodal quadrature inner product.
    When gb is a nonnegative diagonal operator applied to b, the solvability
    denominator 1 + w*<b, diag^{-1} gb> is at least 1."""

    diag: np.ndarray
    gb: Field
    b: Field
    rhs: Field
    w: float


def rank_one_solve(sys: RankOneSystem) -> Field:
    """Solve the system with the package's own Sherman-Morrison kernel,
    schemes._rank_one_core, after the two diagonal solves it expects."""
    g = sys.rhs.grid
    if sys.diag.shape != g.spectral_shape:
        raise ValueError("diag symbol does not match the grid's spectral layout")
    phi, phi_hat, _ = schemes._rank_one_core(
        g, sys.gb.spectrum() / sys.diag, sys.rhs.spectrum() / sys.diag,
        g.mode_weight * sys.b.spectrum(), sys.w)
    return Field(g, phi, phi_hat)


def dense_solve_oracle(sys: RankOneSystem) -> Field:
    """Assemble the full matrix and solve densely. The diagonal symbol is
    realized column by column through transforms and the rank-one part
    through the quadrature weights: nothing is shared with rank_one_solve
    beyond the transforms themselves."""
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


def _axis_map(n_src: int, n_dst: int) -> np.ndarray:
    """Mode-copy matrix (n_dst x n_src) between FFT orderings of even sizes:
    a downsample folds the target's +-Nyquist pair into one bin, an upsample
    splits the source's Nyquist bin in half between the target's +-Nyquist."""
    R = np.zeros((n_dst, n_src))
    if n_dst == n_src:
        np.fill_diagonal(R, 1.0)
        return R
    if n_dst < n_src:
        m = n_dst
        for j in range(m // 2):
            R[j, j] = 1.0
        R[m // 2, m // 2] = 1.0
        R[m // 2, n_src - m // 2] = 1.0
        for q in range(1, m // 2):
            R[m // 2 + q, n_src - m // 2 + q] = 1.0
        return R
    n = n_src
    for j in range(n // 2):
        R[j, j] = 1.0
    R[n // 2, n // 2] = 0.5
    R[n_dst - n // 2, n // 2] = 0.5
    for j in range(n // 2 + 1, n):
        R[n_dst - n + j, j] = 1.0
    return R
