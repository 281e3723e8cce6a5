"""Periodic grid, real-FFT transforms, and diagonal spectral operators.

Everything here works on uniform nx-by-ny grids with periodic boundary
conditions. Linear operators (the Laplacian-based stiffness and mobility
operators) are diagonal in Fourier space, so applying them is a forward
transform, a pointwise multiply by a per-mode symbol, and an inverse
transform. Real fields are kept real by construction through the
rfft2/irfft2 pair; all symbols used in this package are even functions
of the wavenumber.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "make_grid",
    "quad_form_hat",
    "resample",
]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, lx) x [0, ly).

    nx, ny must be even and at least 4 so the Nyquist mode is well-defined.
    Wavenumbers follow the standard FFT ordering: index j maps to
    k_j = 2*pi/l * (j if j <= n/2 else j - n).
    """

    nx: int
    ny: int
    lx: float
    ly: float

    def __post_init__(self):
        for name, n in (("nx", self.nx), ("ny", self.ny)):
            if int(n) != n or n < 4:
                raise ValueError(f"{name} must be an integer >= 4, got {n}")
            if n % 2 != 0:
                raise ValueError(f"{name} must be even, got {n}")
        for name, l in (("lx", self.lx), ("ly", self.ly)):
            if not (l > 0):
                raise ValueError(f"{name} must be positive, got {l}")
        object.__setattr__(self, "hx", self.lx / self.nx)
        object.__setattr__(self, "hy", self.ly / self.ny)
        # Signed wavenumbers in FFT ordering along x; y takes the
        # half-spectrum layout used by rfft2.
        kx = 2.0 * np.pi * np.fft.fftfreq(self.nx, d=self.hx)
        ky_half = 2.0 * np.pi * np.fft.rfftfreq(self.ny, d=self.hy)
        object.__setattr__(self, "kx", kx)
        object.__setattr__(self, "lap_sym", kx[:, None] ** 2 + ky_half[None, :] ** 2)
        # Parseval weights for the rfft2 half-spectrum: interior columns
        # stand for a conjugate pair, the ky=0 and Nyquist columns do not.
        w = np.full((self.nx, self.ny // 2 + 1), 2.0)
        w[:, 0] = 1.0
        w[:, -1] = 1.0
        object.__setattr__(self, "mode_weight", w)
        object.__setattr__(self, "cell_area", self.hx * self.hy)
        object.__setattr__(self, "spectral_scale", self.hx * self.hy / (self.nx * self.ny))

    @property
    def shape(self):
        return (self.nx, self.ny)

    @property
    def spectral_shape(self):
        return (self.nx, self.ny // 2 + 1)

    def nodes(self):
        """Node coordinate arrays X, Y of shape (nx, ny)."""
        x = np.arange(self.nx) * self.hx
        y = np.arange(self.ny) * self.hy
        return np.meshgrid(x, y, indexing="ij")

    def forward(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """rfft2 of the values, written into out when given. Taken axis by
        axis as rfft2 itself does (rfft along y, then fft along x in
        place), without its n-D argument handling."""
        hat = np.fft.rfft(values, axis=1, out=out)
        return np.fft.fft(hat, axis=0, out=hat)

    def inverse(self, hat: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
        """irfft2 of a half spectrum, taken axis by axis as irfft2 itself
        does, so the intermediate transform along x can go into work (a
        complex array of the spectral shape) instead of a new array."""
        return np.fft.irfft(np.fft.ifft(hat, self.nx, axis=0, out=work), self.ny, axis=1)

    def quad(self, values: np.ndarray) -> float:
        """Nodal quadrature of a gridded integrand over the domain."""
        return float(self.cell_area * values.sum())


def make_grid(nx: int, ny: int, lx: float, ly: float) -> Grid:
    """Build a periodic grid, rejecting odd or tiny sizes."""
    return Grid(nx, ny, lx, ly)


class NonFiniteFieldError(ValueError):
    """A field would hold NaN or Inf entries."""


@dataclass
class Field:
    """Real scalar field sampled at the grid nodes, shape (nx, ny).

    Values are stored row-major over (x, y); NaN/Inf entries are rejected
    at construction, which also covers every transform round-trip since
    those return new Fields.

    hat optionally carries the rfft2 spectrum of the values, so a field is
    transformed at most once: a solver that already holds the spectrum
    passes it in, otherwise spectrum() fills it on first use. Fields are
    never written in place, so the carried spectrum cannot go stale.
    """

    grid: Grid
    values: np.ndarray
    hat: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise ValueError(f"field shape {v.shape} does not match grid {self.grid.shape}")
        if not np.isfinite(v).all():
            raise NonFiniteFieldError("field contains NaN or Inf entries")
        self.values = v

    def spectrum(self) -> np.ndarray:
        """The rfft2 spectrum of the values, transformed on first use only."""
        if self.hat is None:
            self.hat = self.grid.forward(self.values)
        return self.hat


def quad_form_hat(grid: Grid, hat: np.ndarray, symbol: np.ndarray | None = None,
                  work=None) -> float:
    """Quadratic form sum_k symbol_k |u_hat_k|^2 in quadrature normalization.

    With symbol None this equals grid.quad(u * u) by Parseval. work, when
    given, is a pair of real arrays of the spectral shape that take the
    products.
    """
    if work is None:
        work = (np.empty(hat.shape), np.empty(hat.shape))
    p, q = work
    np.multiply(hat.real, hat.real, out=p)
    np.multiply(hat.imag, hat.imag, out=q)
    p += q
    p *= grid.mode_weight
    if symbol is not None:
        p *= symbol
    return float(grid.spectral_scale * p.sum())


def _parseval(grid: Grid, wu_hat: np.ndarray, v_hat: np.ndarray) -> float:
    """<u, v> from v's half spectrum and u's weighted by grid.mode_weight."""
    return float(grid.spectral_scale * np.vdot(wu_hat, v_hat).real)


def _map_x(hat: np.ndarray, nx_dst: int) -> np.ndarray:
    """Map the x axis (full FFT ordering) of a spectrum to nx_dst points.

    The modes resolved on both grids are copied as two slices. A downsample
    folds the target's +-Nyquist pair into its one Nyquist row; an upsample
    splits the source's Nyquist row in half between the target's +-Nyquist
    rows. Both keep real fields real and reproduce nodal values of the
    trigonometric interpolant.
    """
    n_src = hat.shape[0]
    if nx_dst == n_src:
        return hat
    m = min(n_src, nx_dst) // 2
    out = np.zeros((nx_dst, hat.shape[1]), dtype=complex)
    out[:m] = hat[:m]
    out[nx_dst - m + 1 :] = hat[n_src - m + 1 :]
    if nx_dst < n_src:
        np.add(hat[m], hat[n_src - m], out=out[m])
    else:
        np.multiply(hat[m], 0.5, out=out[m])
        out[nx_dst - m] = out[m]
    return out


def _fold_half(hat: np.ndarray, ny_dst: int) -> np.ndarray:
    """Map the y axis of an rfft2 half spectrum to a grid of ny_dst points.

    The half-spectrum form of _map_x: resolved columns are copied, and the
    Nyquist column is folded or split the same way. On the half spectrum
    the source's -Nyquist column is the conjugate of its +Nyquist column at
    -kx, which is what a fold adds.
    """
    m_src, m_dst = hat.shape[1] - 1, ny_dst // 2
    m = min(m_src, m_dst)
    out = np.zeros((hat.shape[0], m_dst + 1), dtype=complex)
    out[:, : m + 1] = hat[:, : m + 1]
    if m_dst < m_src:
        out[:, m] += np.conj(hat[-np.arange(hat.shape[0]), m])
    elif m_dst > m_src:
        out[:, m] *= 0.5
    return out


def resample(field: Field, new_grid: Grid) -> Field:
    """Spectral restriction/interpolation of a field onto another grid.

    Both grids must cover the same physical domain. The result samples the
    trigonometric interpolant of the input at the new grid's nodes. The
    transforms are the grids' own, on the rfft2 half spectrum.
    """
    g = field.grid
    if not (np.isclose(g.lx, new_grid.lx) and np.isclose(g.ly, new_grid.ly)):
        raise ValueError("resample requires matching domain lengths")
    if g.shape == new_grid.shape:
        return Field(new_grid, field.values.copy())
    hat_new = _map_x(_fold_half(field.spectrum(), new_grid.ny), new_grid.nx)
    scale = (new_grid.nx * new_grid.ny) / (g.nx * g.ny)
    return Field(new_grid, new_grid.inverse(hat_new) * scale)
