"""Grid, transforms, diagonal operators, inner products, resampling."""

import numpy as np
import pytest

from isavflow import DoubleWell, Field, ModelParams, make_grid, resample
from isavflow.spectral import quad_form_hat

from conftest import TWO_PI, even_symbol, random_field
from oracles import apply_symbol, inner


def g_sym(g, alpha, gamma):
    """The mobility symbol gamma*|k|^(2*alpha) that steps on g use."""
    params = ModelParams(alpha=alpha, gamma=gamma, S=0.0, tau=1.0, potential=DoubleWell())
    return params.symbols(g).g_sym


class TestGrid:
    def test_wavenumber_ordering(self):
        g = make_grid(4, 4, TWO_PI, TWO_PI)
        assert np.array_equal(g.kx, [0.0, 1.0, -2.0, -1.0])

    def test_spacing(self):
        g = make_grid(8, 8, 6.4, 6.4)
        assert g.hx == pytest.approx(0.8)

    def test_rejects_odd(self):
        with pytest.raises(ValueError, match="even"):
            make_grid(5, 8, 1.0, 1.0)

    def test_rejects_tiny(self):
        with pytest.raises(ValueError, match=">= 4"):
            make_grid(2, 8, 1.0, 1.0)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError, match="positive"):
            make_grid(8, 8, 0.0, 1.0)

    def test_equality_ignores_derived_arrays(self):
        assert make_grid(8, 8, 1.0, 2.0) == make_grid(8, 8, 1.0, 2.0)
        assert make_grid(8, 8, 1.0, 2.0) != make_grid(8, 8, 1.0, 3.0)


class TestField:
    def test_rejects_nan(self):
        g = make_grid(4, 4, 1.0, 1.0)
        values = np.zeros(g.shape)
        values[0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            Field(g, values)

    def test_rejects_shape_mismatch(self):
        g = make_grid(4, 4, 1.0, 1.0)
        with pytest.raises(ValueError, match="shape"):
            Field(g, np.zeros((4, 6)))


class TestApplySymbol:
    def test_laplacian_eigenfunction(self):
        g = make_grid(16, 16, TWO_PI, TWO_PI)
        X, Y = g.nodes()
        u = Field(g, np.sin(X) * np.sin(Y))
        out = apply_symbol(u, g.lap_sym)
        assert np.abs(out.values - 2.0 * u.values).max() < 1e-12

    def test_mobility_symbol(self):
        g = make_grid(16, 16, TWO_PI, TWO_PI)
        X, _ = g.nodes()
        u = Field(g, np.cos(X))
        out = apply_symbol(u, g_sym(g, alpha=1.0, gamma=0.01))
        assert np.abs(out.values - 0.01 * u.values).max() < 1e-14

    def test_zero_field(self, rng):
        g = make_grid(8, 8, 1.0, 1.0)
        s = even_symbol(g, rng, 0.0, 5.0)
        out = apply_symbol(Field(g, np.zeros(g.shape)), s)
        assert np.all(out.values == 0.0)

    def test_shape_mismatch(self):
        g = make_grid(8, 8, 1.0, 1.0)
        with pytest.raises(ValueError, match="symbol shape"):
            apply_symbol(Field(g, np.zeros(g.shape)), np.ones((8, 8)))

    def test_single_mode_laplacian_analytic(self, rng):
        g = make_grid(16, 16, TWO_PI, TWO_PI)
        X, Y = g.nodes()
        for _ in range(10):
            jx = int(rng.integers(-7, 8))
            jy = int(rng.integers(-7, 8))
            u = Field(g, np.cos(jx * X + jy * Y))
            out = apply_symbol(u, g.lap_sym)
            expected = (jx**2 + jy**2) * u.values
            scale = max(1.0, np.abs(expected).max())
            assert np.abs(out.values - expected).max() < 1e-10 * scale


class TestOperatorSymbols:
    def test_zero_mode_convention(self):
        g = make_grid(8, 8, 1.0, 1.0)
        assert g_sym(g, alpha=1.0, gamma=0.3)[0, 0] == 0.0
        assert g_sym(g, alpha=0.5, gamma=0.3)[0, 0] == 0.0
        assert g_sym(g, alpha=0.0, gamma=0.3)[0, 0] == pytest.approx(0.3)

    def test_symbols_nonnegative(self):
        g = make_grid(12, 8, 2.0, 3.0)
        for arr in (g.lap_sym, g_sym(g, alpha=0.7, gamma=2.0)):
            assert np.all(arr >= 0.0)


class TestInnerAndNorms:
    def test_constant_inner(self):
        g = make_grid(16, 16, TWO_PI, TWO_PI)
        one = Field(g, np.ones(g.shape))
        assert inner(one, one) == pytest.approx(4 * np.pi**2, rel=1e-14)

    def test_sine_inner(self):
        g = make_grid(16, 16, TWO_PI, TWO_PI)
        X, Y = g.nodes()
        u = Field(g, np.sin(X) * np.sin(Y))
        assert inner(u, u) == pytest.approx(np.pi**2, rel=1e-13)

    def test_orthogonality(self):
        g = make_grid(16, 16, TWO_PI, TWO_PI)
        X, _ = g.nodes()
        assert abs(inner(Field(g, np.sin(X)), Field(g, np.cos(X)))) < 1e-13

    def test_grid_mismatch(self, rng):
        a = random_field(make_grid(8, 8, 1.0, 1.0), rng)
        b = random_field(make_grid(8, 8, 2.0, 1.0), rng)
        with pytest.raises(ValueError, match="different grids"):
            inner(a, b)

    def test_gradient_seminorm(self):
        g = make_grid(32, 32, TWO_PI, TWO_PI)
        X, Y = g.nodes()
        hat = Field(g, np.sin(X) * np.sin(Y)).spectrum()
        grad_sq = quad_form_hat(g, hat, g.lap_sym)
        assert grad_sq == pytest.approx(2 * np.pi**2, rel=1e-13)
        h1 = np.sqrt(quad_form_hat(g, hat) + grad_sq)
        assert h1 == pytest.approx(np.sqrt(np.pi**2 + 2 * np.pi**2), rel=1e-13)

    def test_constant_has_no_seminorms(self):
        g = make_grid(16, 16, TWO_PI, TWO_PI)
        hat = Field(g, np.full(g.shape, 3.7)).spectrum()
        assert quad_form_hat(g, hat, g.lap_sym) == 0.0
        assert quad_form_hat(g, hat, g_sym(g, alpha=1.0, gamma=0.5)) == 0.0

    def test_mobility_seminorm_alpha_zero(self):
        # brute-force quadrature oracle: 0.1 * int cos(x)^2 = 0.1 * 2 pi^2
        g = make_grid(32, 32, TWO_PI, TWO_PI)
        X, _ = g.nodes()
        u = Field(g, np.cos(X))
        oracle = g.quad(0.1 * np.cos(X) ** 2)
        assert oracle == pytest.approx(0.2 * np.pi**2, rel=1e-13)
        assert quad_form_hat(g, u.spectrum(), g_sym(g, alpha=0.0, gamma=0.1)) == pytest.approx(oracle, rel=1e-12)


class TestTransformProperties:
    def test_round_trip(self, rng):
        g = make_grid(24, 16, 2.0, 5.0)
        for _ in range(5):
            u = random_field(g, rng)
            back = g.inverse(g.forward(u.values))
            ref = np.sqrt(inner(u, u))
            assert np.sqrt(g.quad((back - u.values) ** 2)) <= 1e-12 * ref

    def test_plancherel(self, rng):
        g = make_grid(16, 20, 1.0, 3.0)
        for _ in range(5):
            u = random_field(g, rng)
            direct = inner(u, u)
            spectral = quad_form_hat(g, g.forward(u.values))
            assert spectral == pytest.approx(direct, rel=1e-10)

    def test_self_adjointness(self, rng):
        g = make_grid(12, 12, 2.0, 2.0)
        for alpha in (0.0, 0.5, 1.0):
            for s in (g.lap_sym, g_sym(g, alpha=alpha, gamma=1.3)):
                u, v = random_field(g, rng), random_field(g, rng)
                lhs = inner(apply_symbol(u, s), v)
                rhs = inner(u, apply_symbol(v, s))
                assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


class TestResample:
    def test_exact_on_resolved_modes(self):
        fine = make_grid(64, 64, TWO_PI, TWO_PI)
        coarse = make_grid(16, 16, TWO_PI, TWO_PI)
        X, Y = fine.nodes()
        u = Field(fine, np.sin(3 * X) * np.cos(2 * Y) + 0.5 * np.cos(5 * X))
        down = resample(u, coarse)
        Xc, Yc = coarse.nodes()
        exact = np.sin(3 * Xc) * np.cos(2 * Yc) + 0.5 * np.cos(5 * Xc)
        assert np.abs(down.values - exact).max() < 1e-12

    def test_matches_nodal_subsampling_when_nested(self, rng):
        fine = make_grid(64, 64, 1.0, 1.0)
        coarse = make_grid(16, 16, 1.0, 1.0)
        # smooth band-limited field: random modes below the coarse Nyquist
        hat = np.zeros(fine.spectral_shape, dtype=complex)
        hat[:5, :5] = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        hat[0, 0] = hat[0, 0].real
        u = Field(fine, fine.inverse(hat))
        down = resample(u, coarse)
        assert np.abs(down.values - u.values[::4, ::4]).max() < 1e-12

    def test_up_down_round_trip(self, rng):
        coarse = make_grid(8, 8, 1.0, 1.0)
        fine = make_grid(32, 32, 1.0, 1.0)
        u = random_field(coarse, rng)
        back = resample(resample(u, fine), coarse)
        assert np.abs(back.values - u.values).max() < 1e-13

    def test_domain_mismatch(self, rng):
        u = random_field(make_grid(8, 8, 1.0, 1.0), rng)
        with pytest.raises(ValueError, match="domain"):
            resample(u, make_grid(8, 8, 2.0, 1.0))
