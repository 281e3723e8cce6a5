"""Bulk densities, derivatives, the auxiliary functional, S guidance."""

import math

import numpy as np
import pytest

from isavflow import (
    DoubleWell,
    Field,
    FloryHugginsRegularized,
    NonPositiveBulkEnergyError,
    bulk_energy,
    make_grid,
    suggest_S,
)
from isavflow.config import initial_field

from conftest import TWO_PI


class TestDoubleWell:
    def test_point_values(self):
        p = DoubleWell(eps=1.0)
        assert p.F(0.0) == pytest.approx(0.25)
        assert p.f(1.0) == 0.0
        assert p.fprime(0.0) == pytest.approx(-1.0)

    def test_eps_scaling(self):
        assert DoubleWell(eps=0.5).F(0.0) == pytest.approx(1.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            DoubleWell(eps=1.0).f(np.array([0.0, np.nan]))


def fh_branches(beta, sigma):
    """Independent transcription of the three-branch construction (before
    the interface scaling), used as the continuity oracle."""
    ls = math.log(sigma)

    def upper(x):
        return (
            x * np.log(x) + (1 - x) ** 2 / (2 * sigma) + (1 - x) * ls - sigma / 2
            + beta * (x - x**2),
            np.log(x) + 1 - (1 - x) / sigma - ls + beta * (1 - 2 * x),
            1 / x + 1 / sigma - 2 * beta,
        )

    def middle(x):
        return (
            x * np.log(x) + (1 - x) * np.log(1 - x) + beta * (x - x**2),
            np.log(x) - np.log(1 - x) + beta * (1 - 2 * x),
            1 / x + 1 / (1 - x) - 2 * beta,
        )

    def lower(x):
        return (
            (1 - x) * np.log(1 - x) + x**2 / (2 * sigma) + x * ls - sigma / 2
            + beta * (x - x**2),
            -np.log(1 - x) - 1 + x / sigma + ls + beta * (1 - 2 * x),
            1 / (1 - x) + 1 / sigma - 2 * beta,
        )

    return upper, middle, lower


class TestFloryHuggins:
    p = FloryHugginsRegularized(eps=0.04, beta=3.0, sigma=0.01)

    def test_c2_continuity_at_breakpoints(self):
        # both branch formulas evaluated at the same point must agree; a
        # one-ulp straddle would instead measure curvature there
        upper, middle, lower = fh_branches(self.p.beta, self.p.sigma)
        for a, b in zip(lower(self.p.sigma), middle(self.p.sigma)):
            assert abs(a - b) <= 1e-12
        for a, b in zip(middle(1 - self.p.sigma), upper(1 - self.p.sigma)):
            assert abs(a - b) <= 1e-12

    def test_implementation_matches_branch_transcription(self, rng):
        upper, middle, lower = fh_branches(self.p.beta, self.p.sigma)
        eps2 = self.p.eps**2
        samples = {
            upper: rng.uniform(1 - self.p.sigma, 3.0, 200),
            middle: rng.uniform(self.p.sigma, 1 - self.p.sigma, 200),
            lower: rng.uniform(-2.0, self.p.sigma, 200),
        }
        for branch, pts in samples.items():
            F, f, fp = branch(pts)
            assert np.allclose(self.p.F(pts) * eps2, F, rtol=1e-13, atol=1e-13)
            assert np.allclose(self.p.f(pts) * eps2, f, rtol=1e-13, atol=1e-13)
            assert np.allclose(self.p.fprime(pts) * eps2, fp, rtol=1e-13, atol=1e-13)

    def test_derivative_consistency(self, rng):
        # central differences of F against f, and of f against f'
        pts = rng.uniform(-1.0, 2.0, 1000)
        h = 1e-5
        fd_f = (self.p.F(pts + h) - self.p.F(pts - h)) / (2 * h)
        scale = np.maximum(np.abs(self.p.f(pts)), 1.0)
        assert np.max(np.abs(fd_f - self.p.f(pts)) / scale) < 1e-6
        fd_fp = (self.p.f(pts + h) - self.p.f(pts - h)) / (2 * h)
        scale = np.maximum(np.abs(self.p.fprime(pts)), 1.0)
        assert np.max(np.abs(fd_fp - self.p.fprime(pts)) / scale) < 1e-6

    def test_double_well_derivative_consistency(self, rng):
        p = DoubleWell(eps=0.3)
        pts = rng.uniform(-2.0, 2.0, 1000)
        h = 1e-5
        fd = (p.F(pts + h) - p.F(pts - h)) / (2 * h)
        scale = np.maximum(np.abs(p.f(pts)), 1.0)
        assert np.max(np.abs(fd - p.f(pts)) / scale) < 1e-6

    def test_fprime_lower_bound(self):
        # middle branch gives f' = (1/phi + 1/(1-phi) - 2 beta)/eps^2 >= (4-2beta)/eps^2
        pts = np.linspace(-1.0, 2.0, 100_000)
        bound = -2 * self.p.beta / self.p.eps**2
        assert np.min(self.p.fprime(pts)) >= bound

    def test_defined_on_all_reals(self):
        vals = self.p.F(np.array([-50.0, -1.0, 0.0, 0.5, 1.0, 50.0]))
        assert np.isfinite(vals).all()

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            FloryHugginsRegularized(eps=1.0, beta=1.0, sigma=0.6)


def fh_masked(pot, x):
    """F and f of the regularized Flory-Huggins potential evaluated branch
    by branch through boolean-mask gathers and scatters, in the kernels'
    order of operations: hi is phi >= 1-sigma, lo is phi <= sigma and wins
    where both hold, mid is the rest."""
    s, b, ls = pot.sigma, pot.beta, math.log(pot.sigma)
    hi, lo = x >= 1.0 - s, x <= s
    mid = ~(hi | lo)
    F, f = np.empty_like(x), np.empty_like(x)
    ph, pl, pm = x[hi], x[lo], x[mid]
    F[hi] = ph * np.log(ph) + (1.0 - ph) ** 2 / (2.0 * s) + (1.0 - ph) * ls - s / 2.0
    F[lo] = (1.0 - pl) * np.log(1.0 - pl) + pl**2 / (2.0 * s) + pl * ls - s / 2.0
    F[mid] = pm * np.log(pm) + (1.0 - pm) * np.log(1.0 - pm)
    F += b * (x - x**2)
    f[hi] = np.log(ph) + 1.0 - (1.0 - ph) / s - ls
    f[lo] = -np.log(1.0 - pl) - 1.0 + pl / s + ls
    f[mid] = np.log(pm) - np.log(1.0 - pm)
    f += b * (1.0 - 2.0 * x)
    return F / pot.eps**2 + pot.c_add, f / pot.eps**2


def around(v):
    return [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf), v - 1e-9, v + 1e-9]


class TestInPlaceKernels:
    @pytest.mark.parametrize("sigma", [0.01, 0.2, 0.5])
    def test_flory_huggins_branches_are_bit_identical(self, sigma, rng):
        # at and around both breakpoints, below 0 and above 1; with
        # sigma = 1/2 the hi and lo masks overlap at 1/2
        pot = FloryHugginsRegularized(eps=0.04, beta=3.0, sigma=sigma, c_add=37.5)
        x = np.array(around(sigma) + around(1.0 - sigma) + around(0.0) + around(1.0)
                     + [-50.0, -0.3, 0.5, 1.7, 50.0])
        x = np.concatenate([x, rng.uniform(-2.0, 3.0, 500)])
        F, f = fh_masked(pot, x)
        assert np.array_equal(pot.F(x), F)
        assert np.array_equal(pot.f(x), f)
        # in place, with every buffer holding garbage first
        out, work = np.full_like(x, np.nan), (np.full_like(x, 7.0), np.full_like(x, -1.0))
        assert pot.F(x, out, work) is out
        assert np.array_equal(out, F)
        assert pot.f(x, out, work) is out
        assert np.array_equal(out, f)

    def test_flory_huggins_inside_only(self, rng):
        # every value inside (sigma, 1-sigma): no branch masks are built
        pot = FloryHugginsRegularized(eps=0.04, beta=3.0, sigma=0.01, c_add=37.5)
        x = 0.5 + 0.2 * rng.uniform(-1.0, 1.0, (16, 16))
        F, f = fh_masked(pot, x)
        assert np.array_equal(pot.F(x), F)
        assert np.array_equal(pot.f(x), f)
        assert pot.F(0.3) == fh_masked(pot, np.array([0.3]))[0][0]
        # a breakpoint itself is on a quadratic branch
        for edge in (pot.sigma, 1.0 - pot.sigma):
            x = np.array([0.5, edge])
            F, f = fh_masked(pot, x)
            assert np.array_equal(pot.F(x), F)
            assert np.array_equal(pot.f(x), f)

    def test_double_well_in_place(self, rng):
        pot = DoubleWell(eps=0.04, c_add=0.3)
        x = rng.standard_normal((16, 16))
        out = np.full_like(x, np.nan)
        assert pot.F(x, out) is out
        assert np.array_equal(out, (x**2 - 1.0) ** 2 / (4.0 * pot.eps**2) + pot.c_add)
        assert pot.f(x, out) is out
        assert np.array_equal(out, (x * x * x - x) / pot.eps**2)


class TestBulkEnergy:
    def test_constant_field(self):
        g = make_grid(16, 16, TWO_PI, TWO_PI)
        phi = Field(g, np.zeros(g.shape))
        assert bulk_energy(DoubleWell(eps=1.0), phi) == pytest.approx(np.pi**2, rel=1e-13)

    def test_nonpositive_raises(self):
        g = make_grid(16, 16, TWO_PI, TWO_PI)
        phi = Field(g, np.ones(g.shape))
        with pytest.raises(NonPositiveBulkEnergyError):
            bulk_energy(DoubleWell(eps=1.0), phi)

    def test_additive_constant(self):
        g = make_grid(16, 16, TWO_PI, TWO_PI)
        phi = Field(g, np.ones(g.shape))
        assert bulk_energy(DoubleWell(eps=1.0, c_add=1.0), phi) == pytest.approx(
            4 * np.pi**2, rel=1e-13
        )

    def test_constant_shift_is_exact(self, rng):
        g = make_grid(12, 12, 2.0, 3.0)
        phi = Field(g, rng.standard_normal(g.shape))
        for c in (0.5, 2.0, 17.0):
            shifted = bulk_energy(DoubleWell(eps=0.7, c_add=c), phi)
            base = g.quad(DoubleWell(eps=0.7).F(phi.values))
            assert shifted - base == pytest.approx(c * 6.0, rel=1e-12)


class TestAuxiliaryScalar:
    def test_constant_fields(self):
        g = make_grid(16, 16, TWO_PI, TWO_PI)
        zeros, ones = Field(g, np.zeros(g.shape)), Field(g, np.ones(g.shape))
        assert math.sqrt(bulk_energy(DoubleWell(eps=1.0), zeros)) == pytest.approx(np.pi)
        assert math.sqrt(bulk_energy(DoubleWell(eps=1.0, c_add=1.0), ones)) == pytest.approx(
            2 * np.pi
        )

    def test_grid_refinement_agreement(self):
        # the smooth initial datum is a low-degree trig polynomial, so the
        # nodal quadrature is already exact on the coarse grid
        p = DoubleWell(eps=1.0)
        coarse = initial_field({"kind": "ex1"}, make_grid(64, 64, TWO_PI, TWO_PI))
        fine = initial_field({"kind": "ex1"}, make_grid(256, 256, TWO_PI, TWO_PI))
        rc, rf = math.sqrt(bulk_energy(p, coarse)), math.sqrt(bulk_energy(p, fine))
        assert rc == pytest.approx(rf, rel=1e-10)


class TestSuggestS:
    def test_double_well_endpoints(self):
        assert suggest_S(DoubleWell(eps=1.0), (-1.5, 1.5)) == pytest.approx(2.875)

    def test_double_well_stiff(self):
        got = suggest_S(DoubleWell(eps=0.04), (-1.5, 1.5))
        assert got == pytest.approx(2.875 / 0.0016, rel=1e-12)
        # the canonical run-level choice 3/eps^2 = 1875 exceeds this bracket value
        assert got < 3.0 / 0.04**2 + 80.0

    def test_flory_huggins_finite(self):
        got = suggest_S(
            FloryHugginsRegularized(eps=0.04, beta=3.0, sigma=0.01), (-0.5, 1.5)
        )
        assert math.isfinite(got) and got > 0

    def test_monotone_in_range(self):
        p = FloryHugginsRegularized(eps=0.1, beta=3.0, sigma=0.05)
        brackets = [(-0.1, 1.1), (-0.5, 1.5), (-1.0, 2.0), (-2.0, 3.0)]
        vals = [suggest_S(p, b) for b in brackets]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError, match="lo < hi"):
            suggest_S(DoubleWell(eps=1.0), (1.0, 1.0))
