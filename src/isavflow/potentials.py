"""Bulk free-energy densities and the scalar auxiliary functional.

Two production potentials are provided: the classical double well
(phi^2-1)^2/(4 eps^2) and a regularized Flory-Huggins mixing energy whose
logarithmic branches are replaced outside [sigma, 1-sigma] by quadratic
extensions, giving a C2 function defined on all of R. Both accept an
additive constant c_add used to keep the integrated bulk energy strictly
positive, which the auxiliary-variable schemes require.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import Field

__all__ = [
    "DoubleWell",
    "FloryHugginsRegularized",
    "ConstantPotential",
    "NonPositiveBulkEnergyError",
    "bulk_energy",
    "r_of_phi",
    "suggest_S",
]


class NonPositiveBulkEnergyError(RuntimeError):
    """Raised when the integrated bulk energy is not strictly positive."""


def _as_array(phi):
    a = np.asarray(phi, dtype=float)
    if np.isnan(a).any():
        raise ValueError("potential evaluated at NaN")
    return a


def _as_input(out, phi):
    return out if np.ndim(phi) else float(out)


@dataclass(frozen=True)
class Potential:
    """Base for bulk densities: F(phi), f = F', and f' as closed forms."""

    c_add: float = 0.0

    def F(self, phi):
        raise NotImplementedError

    def f(self, phi):
        raise NotImplementedError

    def fprime(self, phi):
        raise NotImplementedError

    def breakpoints(self) -> tuple:
        """Interior points where f' may peak; used by suggest_S."""
        return ()


@dataclass(frozen=True)
class DoubleWell(Potential):
    """F(phi) = (phi^2 - 1)^2 / (4 eps^2) + c_add."""

    eps: float = 1.0

    def __post_init__(self):
        if not (self.eps > 0):
            raise ValueError(f"eps must be positive, got {self.eps}")

    def F(self, phi):
        p = _as_array(phi)
        return _as_input((p**2 - 1.0) ** 2 / (4.0 * self.eps**2) + self.c_add, phi)

    def f(self, phi):
        p = _as_array(phi)
        return _as_input((p * p * p - p) / self.eps**2, phi)

    def fprime(self, phi):
        p = _as_array(phi)
        return _as_input((3.0 * p**2 - 1.0) / self.eps**2, phi)


@dataclass(frozen=True)
class FloryHugginsRegularized(Potential):
    """Regularized logarithmic mixing energy, scaled by 1/eps^2.

    On [sigma, 1-sigma] this is phi*ln(phi) + (1-phi)*ln(1-phi)
    + beta*(phi - phi^2); outside, each log is continued quadratically so
    that F, f, and f' are continuous at sigma and 1-sigma and the function
    is defined for every real phi.
    """

    eps: float = 1.0
    beta: float = 0.0
    sigma: float = 0.5

    def __post_init__(self):
        if not (self.eps > 0):
            raise ValueError(f"eps must be positive, got {self.eps}")
        if not (0.0 < self.sigma <= 0.5):
            raise ValueError(f"sigma must lie in (0, 1/2], got {self.sigma}")

    def _masks(self, p):
        hi = p >= 1.0 - self.sigma
        lo = p <= self.sigma
        return hi, lo, ~(hi | lo)

    def F(self, phi):
        p = _as_array(phi)
        s, b = self.sigma, self.beta
        out = np.empty_like(p)
        hi, lo, mid = self._masks(p)
        ph = p[hi]
        out[hi] = ph * np.log(ph) + (1.0 - ph) ** 2 / (2.0 * s) + (1.0 - ph) * math.log(s) - s / 2.0
        pl = p[lo]
        out[lo] = (1.0 - pl) * np.log(1.0 - pl) + pl**2 / (2.0 * s) + pl * math.log(s) - s / 2.0
        pm = p[mid]
        out[mid] = pm * np.log(pm) + (1.0 - pm) * np.log(1.0 - pm)
        out += b * (p - p**2)
        return _as_input(out / self.eps**2 + self.c_add, phi)

    def f(self, phi):
        p = _as_array(phi)
        s, b = self.sigma, self.beta
        out = np.empty_like(p)
        hi, lo, mid = self._masks(p)
        ph = p[hi]
        out[hi] = np.log(ph) + 1.0 - (1.0 - ph) / s - math.log(s)
        pl = p[lo]
        out[lo] = -np.log(1.0 - pl) - 1.0 + pl / s + math.log(s)
        pm = p[mid]
        out[mid] = np.log(pm) - np.log(1.0 - pm)
        out += b * (1.0 - 2.0 * p)
        return _as_input(out / self.eps**2, phi)

    def fprime(self, phi):
        p = _as_array(phi)
        s, b = self.sigma, self.beta
        out = np.empty_like(p)
        hi, lo, mid = self._masks(p)
        out[hi] = 1.0 / p[hi] + 1.0 / s
        out[lo] = 1.0 / (1.0 - p[lo]) + 1.0 / s
        pm = p[mid]
        out[mid] = 1.0 / pm + 1.0 / (1.0 - pm)
        out -= 2.0 * b
        return _as_input(out / self.eps**2, phi)

    def breakpoints(self):
        return (self.sigma, 1.0 - self.sigma)


@dataclass(frozen=True)
class ConstantPotential(Potential):
    """F identically c_add, f = f' = 0; handy for linear-decay checks."""

    def F(self, phi):
        p = _as_array(phi)
        return _as_input(np.full_like(p, self.c_add), phi)

    def f(self, phi):
        p = _as_array(phi)
        return _as_input(np.zeros_like(p), phi)

    def fprime(self, phi):
        p = _as_array(phi)
        return _as_input(np.zeros_like(p), phi)


def bulk_quad(potential: Potential, phi: Field) -> float:
    """Nodal quadrature of F(phi) over the domain, no positivity check."""
    return phi.grid.quad(potential.F(phi.values))


def check_bulk(val: float) -> float:
    """Return an integrated bulk energy, raising unless it is strictly positive."""
    if not (val > 0.0):
        raise NonPositiveBulkEnergyError(
            f"integrated bulk energy is {val}; add a constant to the potential"
        )
    return val


def bulk_energy(potential: Potential, phi: Field) -> float:
    """Integrated bulk energy; must be strictly positive for the schemes."""
    return check_bulk(bulk_quad(potential, phi))


def r_of_phi(potential: Potential, phi: Field) -> float:
    """Square root of the integrated bulk energy (the auxiliary scalar)."""
    return math.sqrt(bulk_energy(potential, phi))


def suggest_S(potential: Potential, phi_range: tuple[float, float], samples: int = 10_000) -> float:
    """Half the maximum of f' over a value bracket.

    Samples the bracket densely and also checks its endpoints and any branch
    breakpoints, which is where the piecewise-smooth f' of both potentials
    can peak. The returned value can be negative for brackets inside a
    concave region of f; clamp at zero before using it as a stabilization
    coefficient.
    """
    lo, hi = phi_range
    if not (lo < hi):
        raise ValueError(f"need lo < hi, got ({lo}, {hi})")
    pts = np.linspace(lo, hi, samples)
    extra = [lo, hi] + [b for b in potential.breakpoints() if lo <= b <= hi]
    vals = potential.fprime(np.concatenate([pts, np.asarray(extra)]))
    return 0.5 * float(np.max(vals))
