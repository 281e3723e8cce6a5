"""Bulk free-energy densities and the scalar auxiliary functional.

Two production potentials are provided: the classical double well
(phi^2-1)^2/(4 eps^2) and a regularized Flory-Huggins mixing energy whose
logarithmic branches are replaced outside [sigma, 1-sigma] by quadratic
extensions, giving a C2 function defined on all of R. Both accept an
additive constant c_add used to keep the integrated bulk energy strictly
positive, which the auxiliary-variable schemes require.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import Field

__all__ = [
    "DoubleWell",
    "FloryHugginsRegularized",
    "NonPositiveBulkEnergyError",
    "bulk_energy",
    "suggest_S",
]


class NonPositiveBulkEnergyError(RuntimeError):
    """Raised when the integrated bulk energy is not strictly positive."""


def _as_array(phi, trusted=False):
    a = np.asarray(phi, dtype=float)
    if not trusted and np.isnan(a).any():
        raise ValueError("potential evaluated at NaN")
    return a


@dataclass(frozen=True)
class Potential:
    """Base for bulk densities, as a run uses them: the node sum of F, f = F'
    and f'. F(phi, work=None) returns the node sum of F over phi's values,
    the form every bulk integral takes, and may overwrite work, three arrays
    shaped like phi. f(phi, out=None, work=None, F_sum=False) returns f(phi),
    written into out when it is given (else into a new array), and may
    overwrite work, a pair of arrays shaped like phi; with F_sum=True it
    returns (f(phi), the node sum of F) from what the two share. None of out
    and work may be phi itself or overlap another; phi is an array, and f
    and fprime return numpy values of its shape. A subclass implements F
    and f to this contract, and fprime and, where f' has kinks, breakpoints.

    Inputs are scanned for NaN (ValueError), except in calls that hand in
    work arrays: that is the form a time step uses, on the values of a
    Field (finite by construction) or a combination of two of them.
    """

    c_add: float = 0.0

    def fprime(self, phi):
        raise NotImplementedError

    def breakpoints(self) -> tuple:
        """The points where f' may fail to be smooth. f' must be convex
        between consecutive breakpoints and beyond the outermost ones, so
        that its maximum over a bracket lies at an endpoint or an interior
        breakpoint; suggest_S relies on this."""
        return ()


@dataclass(frozen=True)
class DoubleWell(Potential):
    """F(phi) = (phi^2 - 1)^2 / (4 eps^2) + c_add, f = (phi^2 - 1) phi / eps^2,
    both from s = phi^2 - 1; the node sum of F is s.s / (4 eps^2) + N c_add."""

    eps: float = 1.0

    def __post_init__(self):
        if not (self.eps > 0):
            raise ValueError(f"eps must be positive, got {self.eps}")

    def _sum(self, s) -> float:
        return float(np.vdot(s, s)) / (4.0 * self.eps**2) + s.size * self.c_add

    def F(self, phi, work=None):
        p = _as_array(phi, work is not None)
        s = np.multiply(p, p, out=np.empty_like(p) if work is None else work[0])
        s -= 1.0
        return self._sum(s)

    def f(self, phi, out=None, work=None, F_sum=False):
        p = _as_array(phi, work is not None)
        out = np.empty_like(p) if out is None else out
        s = out if not F_sum else np.empty_like(p) if work is None else work[0]
        np.multiply(p, p, out=s)
        s -= 1.0
        total = self._sum(s) if F_sum else None
        np.multiply(s, p, out=out)
        out /= self.eps**2
        return (out, total) if F_sum else out

    def fprime(self, phi):
        p = _as_array(phi)
        return (3.0 * p**2 - 1.0) / self.eps**2


@dataclass(frozen=True)
class FloryHugginsRegularized(Potential):
    """Regularized logarithmic mixing energy, scaled by 1/eps^2.

    F = (G(phi) + G(1-phi) + beta*phi*(1-phi)) / eps^2 + c_add, where G(x)
    is x ln x from sigma up and its second-order Taylor extension below:
    with x_c = max(x, sigma) and d = x - x_c,

        G(x) = x ln x_c + d + d^2/(2 sigma),    G'(x) = 1 + ln x_c + d/sigma,

    so F, f and f' are continuous and F is defined for every real phi. The
    node sum of F is three dot products over both logs, phi and 1-phi, plus
    the sums and squares of the offsets d when any value lies outside
    (sigma, 1-sigma); no F array is written.
    """

    eps: float = 1.0
    beta: float = 0.0
    sigma: float = 0.5

    def __post_init__(self):
        if not (self.eps > 0):
            raise ValueError(f"eps must be positive, got {self.eps}")
        if not (0.0 < self.sigma <= 0.5):
            raise ValueError(f"sigma must lie in (0, 1/2], got {self.sigma}")

    def _logs(self, p, q, out, t):
        """q = 1-p, out = ln max(p, sigma), t = ln max(q, sigma); returns
        whether any value lies outside (sigma, 1-sigma). When none does,
        the logs are taken of p and q themselves."""
        s = self.sigma
        np.subtract(1.0, p, out=q)
        if s < p.min() and p.max() < 1.0 - s:
            np.log(p, out=out)
            np.log(q, out=t)
            return False
        np.log(np.maximum(p, s, out=out), out=out)
        np.log(np.maximum(q, s, out=t), out=t)
        return True

    def _offsets(self, p, q, d, summed):
        """d = min(p, sigma) - sigma and q = min(q, sigma) - sigma (q = 1-p
        on entry): the offsets of p and 1-p. Returns the node sum of d +
        d^2/(2 sigma) over both when summed, else 0."""
        s = self.sigma
        np.minimum(p, s, out=d)
        d -= s
        np.minimum(q, s, out=q)
        q -= s
        if not summed:
            return 0.0
        linear = np.add.reduce(d, axis=None) + np.add.reduce(q, axis=None)
        return float(linear + (np.vdot(d, d) + np.vdot(q, q)) / (2.0 * s))

    def _log_sum(self, p, q, lp, lq) -> float:
        """Node sum of p ln p_c + q ln q_c + beta p q from _logs' arrays."""
        return float(np.vdot(lp, p) + np.vdot(lq, q) + self.beta * np.vdot(p, q))

    def _scaled(self, total, p) -> float:
        return total / self.eps**2 + p.size * self.c_add

    def F(self, phi, work=None):
        p = _as_array(phi, work is not None)
        lp, t, q = work or (np.empty_like(p), np.empty_like(p), np.empty_like(p))
        clipped = self._logs(p, q, lp, t)
        total = self._log_sum(p, q, lp, t)
        if clipped:
            total += self._offsets(p, q, lp, True)
        return self._scaled(total, p)

    def f(self, phi, out=None, work=None, F_sum=False):
        p = _as_array(phi, work is not None)
        out = np.empty_like(p) if out is None else out
        t, q = work or (np.empty_like(p), np.empty_like(p))
        clipped = self._logs(p, q, out, t)
        total = self._log_sum(p, q, out, t) if F_sum else 0.0
        out -= t
        if clipped:
            total += self._offsets(p, q, t, F_sum)
            t -= q
            t /= self.sigma
            out += t
        np.multiply(p, 2.0, out=t)
        np.subtract(1.0, t, out=t)
        t *= self.beta
        out += t
        out /= self.eps**2
        return (out, self._scaled(total, p)) if F_sum else out

    def fprime(self, phi):
        p = _as_array(phi)
        s = self.sigma
        out = 1.0 / np.maximum(p, s) + 1.0 / np.maximum(1.0 - p, s) - 2.0 * self.beta
        return out / self.eps**2

    def breakpoints(self):
        return (self.sigma, 1.0 - self.sigma)


def bulk_quad(potential: Potential, phi: Field, work=None) -> float:
    """Nodal quadrature of F(phi) over the domain, no positivity check;
    work, when given, is F's three grid-shaped temporaries."""
    return phi.grid.cell_area * potential.F(phi.values, work)


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


def suggest_S(potential: Potential, phi_range: tuple[float, float]) -> float:
    """Half the maximum of f' over a value bracket.

    f' is convex between the potential's breakpoints (the contract of
    Potential.breakpoints), so its maximum over [lo, hi] is at lo, hi or a
    breakpoint inside: at most four evaluations, and exact. The returned
    value can be negative for brackets inside a concave region of f; clamp
    at zero before using it as a stabilization coefficient.
    """
    lo, hi = phi_range
    if not (lo < hi):
        raise ValueError(f"need lo < hi, got ({lo}, {hi})")
    pts = [lo, hi] + [b for b in potential.breakpoints() if lo < b < hi]
    return 0.5 * float(np.max(potential.fprime(np.array(pts))))
