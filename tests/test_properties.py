"""Property tests of the rank-one solve and of spectral resampling, over
random even grids (non-square included), and of the fused potential
kernel, over values on every branch, drawn by hypothesis."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isavflow import (DoubleWell, Field, FloryHugginsRegularized, ModelParams, Scheme,
                      make_grid, make_initial_state, resample, step)
from isavflow.spectral import _fold_half

from conftest import even_symbol, random_field
from oracles import (ConstantPotential, RankOneSystem, _axis_map, apply_symbol,
                     dense_solve_oracle, rank_one_solve)

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


GARBAGE = st.sampled_from([math.nan, math.inf, -1e300, 7.0])


@st.composite
def potential_and_values(draw):
    """A potential with the Flory-Huggins breakpoints sigma in {0.01, 0.2,
    1/2}, and values below 0, inside (sigma, 1-sigma) (all of them, at
    times, so that no branch mask is built), above 1 and at and next to
    the breakpoints."""
    sigma = draw(st.sampled_from([0.01, 0.2, 0.5]))
    pot = draw(st.sampled_from([
        FloryHugginsRegularized(eps=0.04, beta=3.0, sigma=sigma, c_add=37.5),
        DoubleWell(eps=0.04, c_add=0.3),
    ]))
    edges = [e for v in (sigma, 1.0 - sigma, 0.0, 1.0)
             for e in (np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf))]
    inside = st.floats(sigma, 1.0 - sigma, exclude_min=True, exclude_max=True)
    anywhere = st.one_of(st.floats(-50.0, 0.0, exclude_max=True), st.sampled_from(edges),
                         st.floats(1.0, 50.0, exclude_min=True),
                         *([inside] if sigma < 0.5 else []))
    values = inside if sigma < 0.5 and draw(st.booleans()) else anywhere
    return pot, np.array(draw(st.lists(values, min_size=1, max_size=40)))


@settings(max_examples=200)
@given(case=potential_and_values(), garbage=st.tuples(GARBAGE, GARBAGE, GARBAGE, GARBAGE))
def test_fused_kernel_matches_separate_calls(case, garbage):
    pot, x = case
    F, f = pot.F(x), pot.f(x)
    out, F_out, *work = (np.full_like(x, g) for g in garbage)
    assert pot.f(x, out, tuple(work), F_out=F_out) is out
    assert np.array_equal(out, f) and np.array_equal(F_out, F)
    # without work arrays, and with a fresh output
    F_out.fill(garbage[0])
    assert np.array_equal(pot.f(x, F_out=F_out), f) and np.array_equal(F_out, F)
    # public calls still reject NaN
    bad = x.copy()
    bad[len(x) // 2] = math.nan
    for call in (pot.F, pot.f, lambda v: pot.f(v, F_out=F_out)):
        with pytest.raises(ValueError, match="NaN"):
            call(bad)


@pytest.mark.parametrize("scheme", [Scheme.SAV_BDF, Scheme.ISAV_BDF])
def test_potential_without_fused_f_still_steps(scheme, rng, monkeypatch):
    # ConstantPotential shares no work between F and f; its f fills F_out
    # itself, and every BDF step makes one such fused call at its
    # extrapolant
    pot = ConstantPotential(c_add=1.0)
    g = make_grid(8, 8, 2.0, 3.0)
    x = rng.standard_normal(g.shape)
    F_out = np.full_like(x, math.nan)
    assert np.array_equal(pot.f(x, None, None, F_out), np.zeros_like(x))
    assert np.array_equal(F_out, np.ones_like(x))
    fused, f = [], ConstantPotential.f
    monkeypatch.setattr(ConstantPotential, "f", lambda self, phi, out=None, work=None, F_out=None:
                        fused.append(F_out is not None) or f(self, phi, out, work, F_out))
    params = ModelParams(alpha=1.0, gamma=0.2, S=0.0, tau=0.05, potential=pot)
    state = make_initial_state(scheme, random_field(g, rng), pot)
    state, _ = step(state, params, record=False)
    state, _ = step(state, params, record=False)
    assert fused == [False, True]
    assert state.r_report == pytest.approx(math.sqrt(6.0))
    for _ in range(3):
        state, rec = step(state, params)
        assert rec.E_orig == pytest.approx(rec.E_mod)
