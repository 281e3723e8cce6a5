"""A level's energies are evaluated at most once and kept on its state, and
the opt-in energy-law check reads them without changing anything."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from isavflow import DoubleWell, ModelParams, Scheme, make_initial_state, record_step, step
from isavflow import diagnostics, schemes
from isavflow.config import initial_field
from isavflow.harness import levels
from isavflow.spectral import Grid

from conftest import ex1_config, step_and_record
from oracles import e2_energy

SCHEMES = [s.value for s in Scheme]


def count_calls(monkeypatch):
    """Count the bulk integrals (F's node sums, fused or not) and the
    quadratic forms by the id of the array they are taken of, and the
    forward transforms in total."""
    bulk, quad, forward = Counter(), Counter(), Counter()
    F, f, fwd = DoubleWell.F, DoubleWell.f, Grid.forward

    def counted_F(self, phi, work=None):
        bulk[id(phi)] += 1
        return F(self, phi, work)

    def counted_f(self, phi, out=None, work=None, F_sum=False):
        bulk[id(phi)] += F_sum
        return f(self, phi, out, work, F_sum)

    def counted_forward(self, *args, **kwargs):
        forward["all"] += 1
        return fwd(self, *args, **kwargs)

    def counted_quad(grid, hat, *args, _real=schemes.quad_form_hat):
        quad[id(hat)] += 1
        return _real(grid, hat, *args)

    monkeypatch.setattr(DoubleWell, "F", counted_F)
    monkeypatch.setattr(DoubleWell, "f", counted_f)
    monkeypatch.setattr(Grid, "forward", counted_forward)
    for module in (schemes, diagnostics):
        monkeypatch.setattr(module, "quad_form_hat", counted_quad)
    return bulk, quad, forward


@pytest.mark.parametrize("nx", [8, 16])
@pytest.mark.parametrize("every", [1, 3])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_no_level_energy_is_evaluated_twice(scheme, every, nx, monkeypatch):
    cfg = ex1_config(scheme, 0.0, 0.05, nx=nx)
    n_total = cfg.n_steps()
    pot = cfg.make_potential()
    params = ModelParams(alpha=cfg.model["alpha"], gamma=cfg.model["gamma"], S=cfg.S,
                         tau=cfg.tau, potential=pot)
    phi0 = initial_field(cfg.init, cfg.make_grid())
    bulk, quad, forward = count_calls(monkeypatch)

    # the run loop, keeping every level alive so that array ids stay unique
    state = make_initial_state(scheme, phi0, pot)
    record_step(state, params)
    states = [state]
    for n in range(1, n_total + 1):
        new = step(state, params)
        if n % every == 0 or n == n_total:
            record_step(new, params, state)
        state = new
        states.append(state)
    ws = params.symbols(phi0.grid)

    for level in states:
        assert bulk[id(level.level.phi.values)] <= 1  # its int F
        assert quad[id(level.level.phi.hat)] <= 1  # its e_lin
    # every E2 is one quadratic form of the work spectrum 2 phi^n - phi^{n-1}
    n_E2 = sum(level.E2 is not None for level in states)
    assert quad[id(ws.spec[0])] == n_E2
    assert (n_E2 > 0) == Scheme(scheme).is_bdf

    forward.clear()
    for level in states:
        first = level.energies(params)
        bulk.clear(), quad.clear()
        assert level.energies(params) == first
        assert not (+bulk or +quad)  # a pure cache read
    assert not +forward  # built from the carried spectra


@pytest.mark.parametrize("every", [1, 10])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_energy_assertions_change_nothing(scheme, every):
    cfg = ex1_config(scheme, 0.0, 0.025, nx=16)
    cfg = replace(cfg, outputs={**cfg.outputs, "record_every": every})
    plain, checked = (list(levels(c)) for c in (cfg, replace(cfg, assert_energy=True)))
    assert len(plain) == len(checked) == cfg.n_steps() + 1
    for (state_p, rec_p), (state_c, rec_c) in zip(plain, checked):
        assert np.array_equal(state_c.level.phi.values, state_p.level.phi.values)
        assert rec_c == rec_p
    assert sum(rec is not None for _, rec in plain) == cfg.n_steps() // every + 1


def test_each_call_gets_the_E2_of_its_own_S():
    cfg = ex1_config("isav-bdf", 0.0, 0.05, nx=8)
    pot = cfg.make_potential()
    params = ModelParams(alpha=cfg.model["alpha"], gamma=cfg.model["gamma"], S=cfg.S,
                         tau=cfg.tau, potential=pot)
    state = make_initial_state("isav-bdf", initial_field(cfg.init, cfg.make_grid()), pot)
    for _ in range(2):
        state, _ = step_and_record(state, params)
    undamped_params = replace(params, S=0.0)

    def fresh(p):  # the E2 of a copy of the state that has kept nothing
        return replace(state, E2=None).energies(p)[2]

    damped, undamped = fresh(params), fresh(undamped_params)
    assert damped > undamped
    assert state.energies(params)[2] == damped
    assert state.energies(undamped_params)[2] == undamped
    assert state.energies(params)[2] == damped
    assert undamped == pytest.approx(e2_energy(state.level.phi, state.prev.phi, pot, 0.0),
                                     rel=1e-12)
