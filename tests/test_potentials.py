"""Bulk densities, derivatives, the auxiliary functional, S guidance."""

import math
import tracemalloc

import numpy as np
import pytest

from isavflow import (
    DoubleWell,
    Field,
    FloryHugginsRegularized,
    Grid,
    NonPositiveBulkEnergyError,
    bulk_energy,
    suggest_S,
)
from isavflow.config import initial_field

from conftest import TWO_PI
from oracles import double_well_reference, flory_huggins_reference, quad


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

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan])
    def test_rejects_nonpositive_eps(self, eps):
        # the library's own guard; a validated config never reaches it
        with pytest.raises(ValueError, match="^eps must be positive, got"):
            DoubleWell(eps=eps)


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
            assert np.allclose(pointwise_F(self.p, pts) * eps2, F, rtol=1e-13, atol=1e-13)
            assert np.allclose(self.p.f(pts) * eps2, f, rtol=1e-13, atol=1e-13)
            assert np.allclose(self.p.fprime(pts) * eps2, fp, rtol=1e-13, atol=1e-13)

    def test_derivative_consistency(self, rng):
        # central differences of F against f, and of f against f'
        pts = rng.uniform(-1.0, 2.0, 1000)
        h = 1e-5
        F_lo, F_hi = (flory_huggins_reference(self.p, x)[0] for x in (pts - h, pts + h))
        fd_f = (F_hi - F_lo) / (2 * h)
        scale = np.maximum(np.abs(self.p.f(pts)), 1.0)
        assert np.max(np.abs(fd_f - self.p.f(pts)) / scale) < 1e-6
        fd_fp = (self.p.f(pts + h) - self.p.f(pts - h)) / (2 * h)
        scale = np.maximum(np.abs(self.p.fprime(pts)), 1.0)
        assert np.max(np.abs(fd_fp - self.p.fprime(pts)) / scale) < 1e-6

    def test_double_well_derivative_consistency(self, rng):
        p = DoubleWell(eps=0.3)
        pts = rng.uniform(-2.0, 2.0, 1000)
        h = 1e-5
        F_lo, F_hi = (double_well_reference(p, x)[0] for x in (pts - h, pts + h))
        fd = (F_hi - F_lo) / (2 * h)
        scale = np.maximum(np.abs(p.f(pts)), 1.0)
        assert np.max(np.abs(fd - p.f(pts)) / scale) < 1e-6

    def test_fprime_lower_bound(self):
        # middle branch gives f' = (1/phi + 1/(1-phi) - 2 beta)/eps^2 >= (4-2beta)/eps^2
        pts = np.linspace(-1.0, 2.0, 100_000)
        bound = -2 * self.p.beta / self.p.eps**2
        assert np.min(self.p.fprime(pts)) >= bound

    def test_defined_on_all_reals(self):
        vals = pointwise_F(self.p, np.array([-50.0, -1.0, 0.0, 0.5, 1.0, 50.0]))
        assert np.isfinite(vals).all()

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            FloryHugginsRegularized(eps=1.0, beta=1.0, sigma=0.6)

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan])
    def test_rejects_nonpositive_eps(self, eps):
        # the library's own guard; a validated config never reaches it
        with pytest.raises(ValueError, match="^eps must be positive, got"):
            FloryHugginsRegularized(eps=eps, beta=1.0, sigma=0.5)


def around(v):
    return [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf), v - 1e-9, v + 1e-9]


def pointwise_F(pot, x):
    """F at each value of x: F's node sum over that one value."""
    return np.array([pot.F(v) for v in x.ravel()]).reshape(x.shape)


def assert_close(got, ref):
    """Within 1e-13 of the reference, relative to max(1, |ref|) per value."""
    assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


class TestInPlaceKernels:
    @pytest.mark.parametrize("sigma", [0.01, 0.2, 0.5])
    def test_flory_huggins_branches_match_masked_kernels(self, sigma, rng):
        # at and around both breakpoints, below 0 and above 1; with
        # sigma = 1/2 the hi and lo masks of the reference overlap at 1/2
        pot = FloryHugginsRegularized(eps=0.04, beta=3.0, sigma=sigma, c_add=37.5)
        x = np.array(around(sigma) + around(1.0 - sigma) + around(0.0) + around(1.0)
                     + [-50.0, -0.3, 0.5, 1.7, 50.0])
        x = np.concatenate([x, rng.uniform(-2.0, 3.0, 500)])
        F, f = flory_huggins_reference(pot, x)
        assert_close(pointwise_F(pot, x), F)
        assert_close(pot.f(x), f)
        # in place, with every buffer holding garbage first: the same bits
        out, work = np.full_like(x, np.nan), (np.full_like(x, 7.0), np.full_like(x, -1.0))
        assert pot.F(x, (out, *work)) == pot.F(x)
        assert pot.f(x, out, work) is out
        assert np.array_equal(out, pot.f(x))

    def test_flory_huggins_inside_only(self, rng):
        # every value inside (sigma, 1-sigma): the kernels skip the clipping
        # and keep the masked kernels' bits
        pot = FloryHugginsRegularized(eps=0.04, beta=3.0, sigma=0.01, c_add=37.5)
        x = 0.5 + 0.2 * rng.uniform(-1.0, 1.0, (16, 16))
        F, f = flory_huggins_reference(pot, x)
        assert_close(pointwise_F(pot, x), F)
        assert np.array_equal(pot.f(x), f)
        assert pot.F(0.3) == flory_huggins_reference(pot, np.array([0.3]))[0][0]
        # a breakpoint itself takes the clipped form
        for edge in (pot.sigma, 1.0 - pot.sigma):
            x = np.array([0.5, edge])
            F, f = flory_huggins_reference(pot, x)
            assert_close(pointwise_F(pot, x), F)
            assert_close(pot.f(x), f)

    def test_double_well_in_place(self, rng):
        pot = DoubleWell(eps=0.04, c_add=0.3)
        x = rng.standard_normal((16, 16))
        F, f = double_well_reference(pot, x)
        assert_close(pointwise_F(pot, x), F)
        out = np.full_like(x, np.nan)
        assert pot.F(x, (out, out.copy(), out.copy())) == pot.F(x)
        assert pot.f(x, out) is out
        # f is taken from x*x - 1, the array the node sum of F needs
        assert np.array_equal(out, (x * x - 1.0) * x / pot.eps**2)
        assert_close(out, f)

    @pytest.mark.parametrize("pot", [
        FloryHugginsRegularized(eps=0.04, beta=3.0, sigma=0.01, c_add=37.5),
        FloryHugginsRegularized(eps=0.04, beta=3.0, sigma=0.5, c_add=37.5),
        DoubleWell(eps=0.04, c_add=0.3),
    ])
    def test_out_of_range_kernels_allocate_no_grid_temporary(self, pot, rng):
        # about 30% of the values outside (0.01, 0.99), all of them outside
        # the empty (1/2, 1/2); with out and work given, no kernel allocates
        # anything grid-sized, not even a boolean mask (an eighth of a float
        # array)
        x = 0.5 + 0.7 * rng.uniform(-1.0, 1.0, (256, 256))
        out, work = np.empty_like(x), (np.empty_like(x), np.empty_like(x))
        calls = (lambda: pot.F(x, (out, *work)),
                 lambda: pot.f(x, out, work), lambda: pot.f(x, out, work, F_sum=True))
        for call in calls:
            call()  # first calls may set up module-level state
        for call in calls:
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < x.size // 16


class TestBulkEnergy:
    def test_constant_field(self):
        g = Grid(16, 16, TWO_PI, TWO_PI)
        phi = Field(g, np.zeros(g.shape))
        assert bulk_energy(DoubleWell(eps=1.0), phi) == pytest.approx(np.pi**2, rel=1e-13)

    def test_nonpositive_raises(self):
        g = Grid(16, 16, TWO_PI, TWO_PI)
        phi = Field(g, np.ones(g.shape))
        with pytest.raises(NonPositiveBulkEnergyError):
            bulk_energy(DoubleWell(eps=1.0), phi)

    def test_additive_constant(self):
        g = Grid(16, 16, TWO_PI, TWO_PI)
        phi = Field(g, np.ones(g.shape))
        assert bulk_energy(DoubleWell(eps=1.0, c_add=1.0), phi) == pytest.approx(
            4 * np.pi**2, rel=1e-13
        )

    def test_constant_shift_is_exact(self, rng):
        g = Grid(12, 12, 2.0, 3.0)
        phi = Field(g, rng.standard_normal(g.shape))
        for c in (0.5, 2.0, 17.0):
            shifted = bulk_energy(DoubleWell(eps=0.7, c_add=c), phi)
            base = quad(g, double_well_reference(DoubleWell(eps=0.7), phi.values)[0])
            assert shifted - base == pytest.approx(c * 6.0, rel=1e-12)


class TestAuxiliaryScalar:
    def test_constant_fields(self):
        g = Grid(16, 16, TWO_PI, TWO_PI)
        zeros, ones = Field(g, np.zeros(g.shape)), Field(g, np.ones(g.shape))
        assert math.sqrt(bulk_energy(DoubleWell(eps=1.0), zeros)) == pytest.approx(np.pi)
        assert math.sqrt(bulk_energy(DoubleWell(eps=1.0, c_add=1.0), ones)) == pytest.approx(
            2 * np.pi
        )

    def test_grid_refinement_agreement(self):
        # the smooth initial datum is a low-degree trig polynomial, so the
        # nodal quadrature is already exact on the coarse grid
        p = DoubleWell(eps=1.0)
        coarse = initial_field({"kind": "ex1"}, Grid(64, 64, TWO_PI, TWO_PI))
        fine = initial_field({"kind": "ex1"}, Grid(256, 256, TWO_PI, TWO_PI))
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
