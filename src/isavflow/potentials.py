"""Bulk free-energy densities and the scalar auxiliary functional.

Two production potentials are provided: the classical double well
(phi^2-1)^2/(4 eps^2) and a regularized Flory-Huggins mixing energy whose
logarithmic branches are replaced outside [sigma, 1-sigma] by quadratic
extensions, giving a C2 function defined on all of R. Both accept an
additive constant c_add used to keep the integrated bulk energy strictly
positive, which the auxiliary-variable schemes require.
"""

from __future__ import annotations

import functools
import inspect
import math
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


def _as_input(out, phi):
    return out if np.ndim(phi) else float(out)


_TINY = np.finfo(float).tiny


def _output(p, out):
    return np.empty_like(p) if out is None else out


def _pair(p, work):
    return (np.empty_like(p), np.empty_like(p)) if work is None else work


def _F_then_f(f):
    """A subclass's f without F_out, extended to take one: F goes into
    F_out in a pass of its own before f runs."""

    @functools.wraps(f)
    def f_with_F(self, phi, out=None, work=None, F_out=None):
        if F_out is not None:
            self.F(phi, F_out, work)
        return f(self, phi, out, work)

    return f_with_F


@dataclass(frozen=True)
class Potential:
    """Base for bulk densities: F(phi), f = F', and f' as closed forms.

    F and f are in-place kernels: they write into out when it is given
    (else into a new array) and may overwrite the arrays in work, a pair
    shaped like phi, instead of allocating temporaries. f(phi, out, work,
    F_out) also writes F(phi) into F_out, sharing what the two have in
    common in one pass; the results equal separate F and f calls bit for
    bit. A subclass whose f takes no F_out still accepts it: the base
    class then calls F before f. None of out, work and F_out may be phi
    itself or overlap another.

    Inputs are scanned for NaN (ValueError), except in calls that hand in
    work arrays: that is the form a time step uses, on the values of a
    Field (finite by construction) or a combination of two of them.
    """

    c_add: float = 0.0

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        f = vars(cls).get("f")
        if f is not None and "F_out" not in inspect.signature(f).parameters:
            cls.f = _F_then_f(f)

    def F(self, phi, out=None, work=None):
        raise NotImplementedError

    def f(self, phi, out=None, work=None, F_out=None):
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

    def _F_of_square(self, out):
        """out = p*p on entry, F(p) on return."""
        out -= 1.0
        np.multiply(out, out, out=out)
        out /= 4.0 * self.eps**2
        out += self.c_add

    def F(self, phi, out=None, work=None):
        p = _as_array(phi, work is not None)
        out = _output(p, out)
        np.multiply(p, p, out=out)
        self._F_of_square(out)
        return _as_input(out, phi)

    def f(self, phi, out=None, work=None, F_out=None):
        p = _as_array(phi, work is not None)
        out = _output(p, out)
        square = np.multiply(p, p, out=out if F_out is None else F_out)
        np.multiply(square, p, out=out)
        if F_out is not None:
            self._F_of_square(F_out)
        out -= p
        out /= self.eps**2
        return _as_input(out, phi)

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

    F and f evaluate the logarithmic closed form on every value, with the
    log arguments clipped so that values outside its domain stay finite,
    then overwrite the values on a quadratic branch (hi: phi >= 1-sigma,
    lo: phi <= sigma; lo wins where both hold, at 1/2 when sigma = 1/2)
    through masked ufuncs. The lo branch is the hi branch with phi and
    1-phi swapped (and, for f, the sign flipped). Each value goes through
    the same operations as in a branch-by-branch evaluation, so results
    are bit-identical to it. With F_out, f shares the range check, both
    logs, 1-phi and the branch masks with F.
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

    def _logs(self, p, q, out, t):
        """q = 1-p, out = ln p and t = ln q (q may be t itself); returns
        the (hi, lo) masks, or None when every value lies inside (sigma,
        1-sigma). With masks, the log arguments are clipped to stay
        positive: the caller overwrites the values on a quadratic branch."""
        s = self.sigma
        np.subtract(1.0, p, out=q)
        if s < p.min() and p.max() < 1.0 - s:
            np.log(p, out=out)
            np.log(q, out=t)
            return None
        np.log(np.maximum(p, _TINY, out=out), out=out)
        np.log(np.maximum(q, _TINY, out=t), out=t)
        return p >= 1.0 - s, p <= s

    def _branch(self, x, y, out, t, where):
        """out = x ln x + y^2/(2 sigma) + y ln sigma - sigma/2 where set."""
        s = self.sigma
        np.log(x, out=out, where=where)
        np.multiply(x, out, out=out, where=where)
        np.multiply(y, y, out=t, where=where)
        np.divide(t, 2.0 * s, out=t, where=where)
        np.add(out, t, out=out, where=where)
        np.multiply(y, math.log(s), out=t, where=where)
        np.add(out, t, out=out, where=where)
        np.subtract(out, s / 2.0, out=out, where=where)

    def _branch_slope(self, x, y, out, t, where):
        """out = ln x + 1 - y/sigma - ln sigma where set."""
        s = self.sigma
        np.log(x, out=out, where=where)
        np.add(out, 1.0, out=out, where=where)
        np.divide(y, s, out=t, where=where)
        np.subtract(out, t, out=out, where=where)
        np.subtract(out, math.log(s), out=out, where=where)

    def _F_of_logs(self, p, q, out, t, branches):
        """out = ln p, t = ln q and q = 1-p on entry (with _logs' branch
        masks); out = F(p) on return, t overwritten."""
        out *= p
        t *= q
        out += t
        if branches is not None:
            hi, lo = branches
            self._branch(p, q, out, t, hi)
            self._branch(q, p, out, t, lo)
        np.multiply(p, p, out=t)
        np.subtract(p, t, out=t)
        t *= self.beta
        out += t
        out /= self.eps**2
        out += self.c_add

    def F(self, phi, out=None, work=None):
        p = _as_array(phi, work is not None)
        out = _output(p, out)
        t, q = _pair(p, work)
        self._F_of_logs(p, q, out, t, self._logs(p, q, out, t))
        return _as_input(out, phi)

    def f(self, phi, out=None, work=None, F_out=None):
        p = _as_array(phi, work is not None)
        out = _output(p, out)
        t, q = _pair(p, work)
        if F_out is None:
            branches = self._logs(p, t, out, t)
            out -= t
            if branches is not None:
                np.subtract(1.0, p, out=q)
        else:
            branches = self._logs(p, q, F_out, t)
            np.subtract(F_out, t, out=out)
            self._F_of_logs(p, q, F_out, t, branches)
        if branches is not None:
            hi, lo = branches
            self._branch_slope(p, q, out, t, hi)
            self._branch_slope(q, p, out, t, lo)
            np.negative(out, out=out, where=lo)
        np.multiply(p, 2.0, out=t)
        np.subtract(1.0, t, out=t)
        t *= self.beta
        out += t
        out /= self.eps**2
        return _as_input(out, phi)

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


def bulk_quad(potential: Potential, phi: Field, work=None) -> float:
    """Nodal quadrature of F(phi) over the domain, no positivity check.

    work, when given, is three arrays shaped like the grid: F goes into the
    first, the other two are the kernel's temporaries.
    """
    out, tmp = (None, None) if work is None else (work[0], work[1:])
    return phi.grid.quad(potential.F(phi.values, out, tmp))


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
