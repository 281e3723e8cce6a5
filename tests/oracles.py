"""Reference implementations the tests check the package against: slow but
obvious constructions, and a front end that drives the package's own
rank-one kernel on a system a test builds."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from isavflow import Field, bulk_energy, schemes
from isavflow.potentials import Potential, _as_array, _as_input, _output
from isavflow.spectral import _parseval, quad_form_hat


@dataclass(frozen=True)
class ConstantPotential(Potential):
    """F identically c_add, f = f' = 0; handy for linear-decay checks."""

    def F(self, phi, out=None, work=None):
        out = _output(_as_array(phi), out)
        out.fill(self.c_add)
        return _as_input(out, phi)

    def f(self, phi, out=None, work=None, F_out=None):
        out = _output(_as_array(phi), out)
        out.fill(0.0)
        if F_out is not None:
            F_out.fill(self.c_add)
        return _as_input(out, phi)

    def fprime(self, phi):
        return _as_input(np.zeros_like(_as_array(phi)), phi)


def apply_symbol(field: Field, symbol: np.ndarray, sign: float = 1.0) -> Field:
    """Apply a diagonal spectral operator: inverse(symbol * forward(u)) * sign.
    The symbol must be even under k -> -k (on the half spectrum: equal
    entries at +-kx in the ky=0 and Nyquist columns) for a real result."""
    g = field.grid
    if symbol.shape != g.spectral_shape:
        raise ValueError(f"symbol shape {symbol.shape} does not match spectral layout "
                         f"{g.spectral_shape}")
    return Field(g, sign * g.inverse(symbol * field.spectrum()))


def inner(u: Field, v: Field) -> float:
    """L2 inner product by nodal quadrature, hx*hy * sum(u*v)."""
    if u.grid != v.grid:
        raise ValueError("fields live on different grids")
    return u.grid.quad(u.values * v.values)


def inner_hat(grid, u_hat: np.ndarray, v_hat: np.ndarray) -> float:
    """L2 inner product <u, v> from the two half spectra (Parseval), the
    package's own sum over mode-weighted u_hat. Equals grid.quad(u * v) up
    to rounding: the mode weights count each interior column twice, the
    second time for its conjugate partner."""
    return _parseval(grid, grid.mode_weight * u_hat, v_hat)


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
        0.25 * (quad_form_hat(grid, phi_n.spectrum(), grid.lap_sym)
                + quad_form_hat(grid, star, grid.lap_sym))
        + 0.5 * (r_n**2 + (2.0 * r_n - r_m) ** 2)
        + 0.5 * S * grid.quad(diff * diff)
    )


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
        g, sys.gb.spectrum() / sys.diag, sys.rhs.spectrum() / sys.diag, sys.b.spectrum(), sys.w)
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
