"""Rank-one perturbed diagonal solves against the dense oracle."""

import numpy as np
import pytest

from isavflow import Field, Grid

from conftest import even_symbol, random_field
from oracles import (RankOneSystem, apply_symbol, dense_solve_oracle, inner, inner_hat, quad,
                     rank_one_solve)


def random_system(grid, rng, w=None):
    diag = 1.0 + even_symbol(grid, rng, 0.0, 3.0)
    b = random_field(grid, rng)
    mobility = even_symbol(grid, rng, 0.0, 2.0)
    gb = apply_symbol(b, mobility)
    rhs = random_field(grid, rng)
    if w is None:
        w = float(rng.uniform(0.05, 2.0))
    return RankOneSystem(diag=diag, gb=gb, b=b, rhs=rhs, w=w)


class TestRankOneSolve:
    def test_no_rank_one_part(self, rng):
        g = Grid(8, 8, 1.0, 1.0)
        diag = 1.0 + even_symbol(g, rng, 0.0, 4.0)
        rhs = random_field(g, rng)
        zero = Field(g, np.zeros(g.shape))
        sys_ = RankOneSystem(diag=diag, gb=zero, b=zero, rhs=rhs, w=1.0)
        got = rank_one_solve(sys_)
        expected = g.inverse(g.forward(rhs.values) / diag)
        assert np.abs(got.values - expected).max() < 1e-13

    def test_one_dimensional_identity(self, rng):
        # diag = 1, gb = b, rhs = b: phi = b / (1 + Q) with Q the quadrature norm
        g = Grid(8, 8, 2.0, 2.0)
        b = random_field(g, rng)
        Q = inner(b, b)
        sys_ = RankOneSystem(diag=np.ones(g.spectral_shape), gb=b, b=b, rhs=b, w=1.0)
        got = rank_one_solve(sys_)
        assert np.abs(got.values - b.values / (1.0 + Q)).max() < 1e-13

    def test_residual(self, rng):
        g = Grid(8, 8, 1.0, 3.0)
        for _ in range(10):
            sys_ = random_system(g, rng)
            phi = rank_one_solve(sys_)
            res = (
                apply_symbol(phi, sys_.diag).values
                + sys_.w * inner(sys_.b, phi) * sys_.gb.values
                - sys_.rhs.values
            )
            rhs_norm = np.sqrt(quad(g, sys_.rhs.values**2))
            assert np.sqrt(quad(g, res**2)) <= 1e-10 * rhs_norm

    def test_solvability_denominator(self, rng):
        # gb built from a nonnegative diagonal applied to b keeps the
        # Sherman-Morrison denominator at least 1
        g = Grid(8, 8, 1.0, 1.0)
        for _ in range(20):
            sys_ = random_system(g, rng)
            z1 = g.inverse(g.forward(sys_.gb.values) / sys_.diag)
            s1 = quad(g, sys_.b.values * z1)
            assert 1.0 + sys_.w * s1 >= 1.0 - 1e-12

    def test_matches_dense_oracle(self, rng):
        g = Grid(8, 8, 1.0, 1.0)
        for _ in range(10):
            sys_ = random_system(g, rng)
            fast = rank_one_solve(sys_)
            dense = dense_solve_oracle(sys_)
            scale = np.abs(dense.values).max()
            assert np.abs(fast.values - dense.values).max() <= 1e-10 * scale


# Non-square grids, each axis with its own Nyquist mode: the half-spectrum
# weights of the ky=0 and ky=Nyquist columns are where a Parseval slip hides.
NON_SQUARE = [(8, 12), (12, 6)]


class TestNonSquareGrids:
    @pytest.mark.parametrize("nx,ny", NON_SQUARE)
    def test_spectral_inner_product(self, nx, ny, rng):
        g = Grid(nx, ny, 1.0, 2.5)
        for _ in range(10):
            b, z = random_field(g, rng), random_field(g, rng)
            nodal = quad(g, b.values * z.values)
            spectral = inner_hat(g, g.forward(b.values), g.forward(z.values))
            assert spectral == pytest.approx(nodal, rel=1e-12, abs=1e-13)

    @pytest.mark.parametrize("nx,ny", NON_SQUARE)
    def test_matches_dense_oracle(self, nx, ny, rng):
        g = Grid(nx, ny, 1.0, 2.5)
        for _ in range(10):
            sys_ = random_system(g, rng)
            fast = rank_one_solve(sys_)
            dense = dense_solve_oracle(sys_)
            scale = np.abs(dense.values).max()
            assert np.abs(fast.values - dense.values).max() <= 1e-10 * scale


class TestDenseOracle:
    def test_pure_diagonal(self, rng):
        g = Grid(8, 8, 1.0, 1.0)
        rhs = random_field(g, rng)
        zero = Field(g, np.zeros(g.shape))
        sys_ = RankOneSystem(
            diag=2.0 * np.ones(g.spectral_shape), gb=zero, b=zero, rhs=rhs, w=1.0
        )
        got = dense_solve_oracle(sys_)
        assert np.abs(got.values - rhs.values / 2.0).max() < 1e-13

    def test_well_conditioned(self, rng):
        g = Grid(8, 8, 1.0, 1.0)
        sys_ = random_system(g, rng)
        n = g.nx * g.ny
        A = np.empty((n, n))
        e = np.zeros(g.shape)
        for j in range(n):
            e.flat[j] = 1.0
            A[:, j] = apply_symbol(Field(g, e), sys_.diag).values.ravel()
            e.flat[j] = 0.0
        A += sys_.w * np.outer(sys_.gb.values.ravel(), g.cell_area * sys_.b.values.ravel())
        assert np.isfinite(np.linalg.cond(A))

    def test_rejects_large_grids(self, rng):
        g = Grid(32, 32, 1.0, 1.0)
        zero = Field(g, np.zeros(g.shape))
        sys_ = RankOneSystem(
            diag=np.ones(g.spectral_shape), gb=zero, b=zero, rhs=random_field(g, rng), w=1.0
        )
        with pytest.raises(ValueError, match="16x16"):
            dense_solve_oracle(sys_)
