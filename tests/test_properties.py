"""Property tests of the rank-one solve, of spectral resampling and of the
energy quadratic form, over random even grids (non-square included), of
the integrating potential kernels, over values on every branch, and of
suggest_S's exact bracket rule, drawn by hypothesis."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isavflow import (DoubleWell, Field, FloryHugginsRegularized, Grid, ModelParams, Scheme,
                      make_initial_state, resample, step, suggest_S)
from isavflow.spectral import _fold_half, quad_form_hat

from conftest import even_symbol, random_field, step_and_record
from oracles import (ConstantPotential, RankOneSystem, _axis_map, apply_symbol,
                     dense_solve_oracle, quad_form_reference, rank_one_solve, reference_kernels)

seeds = st.integers(0, 2**32 - 1)


def even(lo, hi):
    return st.integers(lo // 2, hi // 2).map(lambda k: 2 * k)


@given(nx=even(4, 16), ny=even(4, 16), seed=seeds)
def test_rank_one_solve_matches_dense_oracle(nx, ny, seed):
    rng = np.random.default_rng(seed)
    g = Grid(nx, ny, 1.0, 2.5)
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


@given(nx=st.sampled_from([4, 6, 16, 64]), ny=st.sampled_from([4, 6, 16, 64]), seed=seeds,
       with_symbol=st.booleans())
def test_quad_form_matches_six_pass_reference(nx, ny, seed, with_symbol):
    # any half spectrum (not only that of a real field), any even symbol
    rng = np.random.default_rng(seed)
    g = Grid(nx, ny, 1.0, 2.5)
    scale = 10.0 ** rng.uniform(-6, 6)
    hat = scale * (rng.standard_normal(g.spectral_shape) + 1j * rng.standard_normal(g.spectral_shape))
    symbol = even_symbol(g, rng) if with_symbol else None
    ref = quad_form_reference(g, hat, symbol)
    fast = quad_form_hat(g, hat, symbol)
    assert abs(fast - ref) <= 1e-13 * ref
    if with_symbol:
        # a complex copy of the symbol, through a work array, gives the same bits
        work = np.empty(g.spectral_shape, dtype=complex)
        assert quad_form_hat(g, hat, symbol.astype(complex), work) == fast
        assert np.array_equal(work, symbol * hat)


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
    u = random_field(Grid(*src, 1.0, 2.0), rng)
    new_grid = Grid(*dst, 1.0, 2.0)
    assert np.array_equal(resample(u, new_grid).values, resample_by_matrix(u, new_grid))


@given(coarse=st.tuples(even(4, 16), even(4, 16)), extra=st.tuples(even(0, 48), even(0, 48)),
       seed=seeds)
def test_resample_up_down_round_trip(coarse, extra, seed):
    rng = np.random.default_rng(seed)
    g = Grid(*coarse, 1.0, 3.0)
    fine = Grid(coarse[0] + extra[0], coarse[1] + extra[1], 1.0, 3.0)
    u = random_field(g, rng)
    back = resample(resample(u, fine), g)
    assert np.abs(back.values - u.values).max() < 1e-13


GARBAGE = st.sampled_from([math.nan, math.inf, -1e300, 7.0])


@st.composite
def potential_and_values(draw):
    """A potential with the Flory-Huggins breakpoints sigma in {0.01, 0.2,
    1/2}, and values below 0, inside (sigma, 1-sigma) (all of them, at
    times, so that the kernels skip the clipping), above 1 and at and next
    to the breakpoints."""
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
@given(case=potential_and_values(), garbage=st.tuples(GARBAGE, GARBAGE, GARBAGE))
def test_fused_kernel_matches_separate_calls(case, garbage):
    pot, x = case
    f, total = pot.f(x), pot.F(x)
    out, *work = (np.full_like(x, g) for g in garbage)
    fused, fused_total = pot.f(x, out, tuple(work), F_sum=True)
    assert fused is out and np.array_equal(out, f) and fused_total == total
    # the sum alone, with garbage in every buffer, and without work arrays
    out.fill(garbage[0])
    assert pot.F(x, (out, *work)) == total
    fused, fused_total = pot.f(x, F_sum=True)
    assert np.array_equal(fused, f) and fused_total == total
    # public calls still reject NaN
    bad = x.copy()
    bad[len(x) // 2] = math.nan
    for call in (pot.F, pot.f, lambda v: pot.f(v, F_sum=True)):
        with pytest.raises(ValueError, match="NaN"):
            call(bad)


@settings(max_examples=200)
@given(case=potential_and_values())
def test_integrating_kernels_match_references(case):
    # the references write the F array and sum it; the kernels take the sum
    # from dot products, and out of (sigma, 1-sigma) from the clipped form
    pot, x = case
    F_ref, f_ref = reference_kernels(pot, x)
    total_ref = float(np.add.reduce(F_ref))
    f, total = pot.f(x, F_sum=True)
    assert np.all(np.abs(f - f_ref) <= 1e-13 * np.maximum(1.0, np.abs(f_ref)))
    assert abs(total - total_ref) <= 1e-13 * max(1.0, abs(total_ref))
    inside = isinstance(pot, FloryHugginsRegularized) and (
        pot.sigma < x.min() and x.max() < 1.0 - pot.sigma)
    if inside:
        assert np.array_equal(f, f_ref)


@pytest.mark.parametrize("scheme", [Scheme.SAV_BDF, Scheme.ISAV_BDF])
def test_potential_without_fused_f_still_steps(scheme, rng, monkeypatch):
    # ConstantPotential implements the F/f contract itself, and every BDF
    # step makes one fused call at its extrapolant
    pot = ConstantPotential(c_add=1.0)
    g = Grid(8, 8, 2.0, 3.0)
    x = rng.standard_normal(g.shape)
    f, total = pot.f(x, None, None, F_sum=True)
    assert np.array_equal(f, np.zeros_like(x)) and total == 64.0
    fused, f = [], ConstantPotential.f
    monkeypatch.setattr(ConstantPotential, "f", lambda self, phi, out=None, work=None, F_sum=False:
                        fused.append(F_sum) or f(self, phi, out, work, F_sum))
    params = ModelParams(alpha=1.0, gamma=0.2, S=0.0, tau=0.05, potential=pot)
    state = make_initial_state(scheme, random_field(g, rng), pot)
    state = step(state, params)
    state = step(state, params)
    assert fused == [False, True]
    assert state.r_report == pytest.approx(math.sqrt(6.0))
    for _ in range(3):
        state, rec = step_and_record(state, params)
        assert rec.E_orig == pytest.approx(rec.E_mod)


@settings(max_examples=200)
@given(pot=st.sampled_from([
           FloryHugginsRegularized(eps=0.04, beta=3.0, sigma=0.01),
           FloryHugginsRegularized(eps=1.0, beta=0.5, sigma=0.3),
           FloryHugginsRegularized(eps=0.1, beta=3.0, sigma=0.5),
           DoubleWell(eps=0.04),
       ]),
       lo=st.floats(-3.0, 4.0), width=st.floats(1e-6, 5.0))
def test_suggest_S_is_the_dense_maximum(pot, lo, width):
    # f' is convex between breakpoints, so no sampled value beats the
    # endpoints and interior breakpoints suggest_S evaluates
    hi = lo + width
    assume(lo < hi)
    exact = suggest_S(pot, (lo, hi))
    dense = 0.5 * float(np.max(pot.fprime(np.linspace(lo, hi, 10_001))))
    assert dense <= exact
