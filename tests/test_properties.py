"""Property tests of the rank-one solve and of spectral resampling, over
random even grids (non-square included) drawn by hypothesis."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given
from hypothesis import strategies as st

from isavflow import Field, make_grid, resample
from isavflow.spectral import _fold_half

from conftest import even_symbol, random_field
from oracles import RankOneSystem, _axis_map, apply_symbol, dense_solve_oracle, rank_one_solve

seeds = st.integers(0, 2**32 - 1)


def even(lo, hi):
    return st.integers(lo // 2, hi // 2).map(lambda k: 2 * k)


@given(nx=even(4, 16), ny=even(4, 16), seed=seeds)
def test_rank_one_solve_matches_dense_oracle(nx, ny, seed):
    rng = np.random.default_rng(seed)
    g = make_grid(nx, ny, 1.0, 2.5)
    b = random_field(g, rng)
    sys_ = RankOneSystem(
        diag=1.0 + even_symbol(g, rng, 0.0, 3.0),
        gb=apply_symbol(b, even_symbol(g, rng, 0.0, 2.0)),
        b=b,
        rhs=random_field(g, rng),
        w=float(rng.uniform(0.05, 2.0)),
    )
    fast = rank_one_solve(sys_)
    dense = dense_solve_oracle(sys_)
    scale = np.abs(dense.values).max()
    assert np.abs(fast.values - dense.values).max() <= 1e-10 * scale


def resample_by_matrix(field, new_grid):
    """resample with the x axis mapped by the dense mode-copy matrix."""
    g = field.grid
    hat = _axis_map(g.nx, new_grid.nx) @ _fold_half(field.spectrum(), new_grid.ny)
    return new_grid.inverse(hat) * ((new_grid.nx * new_grid.ny) / (g.nx * g.ny))


@given(src=st.tuples(even(4, 128), even(4, 128)), dst=st.tuples(even(4, 128), even(4, 128)),
       seed=seeds)
def test_resample_matches_mode_copy_matrix(src, dst, seed):
    assume(src != dst)
    rng = np.random.default_rng(seed)
    u = random_field(make_grid(*src, 1.0, 2.0), rng)
    new_grid = make_grid(*dst, 1.0, 2.0)
    assert np.array_equal(resample(u, new_grid).values, resample_by_matrix(u, new_grid))


@given(coarse=st.tuples(even(4, 16), even(4, 16)), extra=st.tuples(even(0, 48), even(0, 48)),
       seed=seeds)
def test_resample_up_down_round_trip(coarse, extra, seed):
    rng = np.random.default_rng(seed)
    g = make_grid(*coarse, 1.0, 3.0)
    fine = make_grid(coarse[0] + extra[0], coarse[1] + extra[1], 1.0, 3.0)
    u = random_field(g, rng)
    back = resample(resample(u, fine), g)
    assert np.abs(back.values - u.values).max() < 1e-13
