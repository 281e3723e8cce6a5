"""Energies, decrement bookkeeping, error norms, record assembly."""

import math

import numpy as np
import pytest

from isavflow import (
    DoubleWell,
    Field,
    ModelParams,
    NonPositiveBulkEnergyError,
    Scheme,
    h1_error,
    make_grid,
    make_initial_state,
    original_energy,
    record_step,
    step,
)
from isavflow.config import config_from_dict, initial_field
from isavflow.harness import run_simulation
from isavflow.spectral import quad_form_hat

from conftest import TWO_PI, random_field
from oracles import ConstantPotential, e2_energy


class TestOriginalEnergy:
    def test_minimizer_is_zero(self):
        g = make_grid(16, 16, TWO_PI, TWO_PI)
        assert original_energy(Field(g, np.ones(g.shape)), DoubleWell(eps=1.0)) == pytest.approx(0.0, abs=1e-14)

    def test_gradient_part(self):
        g = make_grid(32, 32, TWO_PI, TWO_PI)
        X, Y = g.nodes()
        phi = Field(g, np.sin(X) * np.sin(Y))
        pot = ConstantPotential(c_add=0.0)
        assert original_energy(phi, pot) == pytest.approx(np.pi**2, rel=1e-13)

    def test_stable_under_refinement(self):
        pot = DoubleWell(eps=1.0)
        vals = []
        for n in (64, 256):
            g = make_grid(n, n, TWO_PI, TWO_PI)
            vals.append(original_energy(initial_field({"kind": "ex1"}, g), pot))
        assert vals[0] == pytest.approx(vals[1], rel=1e-10)


class TestE2Energy:
    def test_degenerate_history_collapses_to_bulk(self):
        g = make_grid(16, 16, TWO_PI, TWO_PI)
        pot = DoubleWell(eps=1.0, c_add=1.0)
        c = Field(g, np.full(g.shape, 0.4))
        from isavflow import bulk_energy

        assert e2_energy(c, c, pot, S=123.0) == pytest.approx(bulk_energy(pot, c), rel=1e-13)

    def test_damping_term_vanishes_for_equal_fields(self, rng):
        g = make_grid(16, 16, TWO_PI, TWO_PI)
        pot = DoubleWell(eps=0.5, c_add=1.0)
        u = Field(g, rng.uniform(-0.5, 0.5, g.shape))
        assert e2_energy(u, u, pot, S=0.0) == pytest.approx(e2_energy(u, u, pot, S=50.0))

    def test_nonpositive_bulk_raises(self):
        g = make_grid(8, 8, TWO_PI, TWO_PI)
        ones = Field(g, np.ones(g.shape))
        with pytest.raises(NonPositiveBulkEnergyError):
            e2_energy(ones, ones, DoubleWell(eps=1.0), S=0.0)

    def test_near_steady_state_matches_original_energy(self):
        # long coarse run of the conserved-flow experiment: once consecutive
        # fields agree, the three-level energy collapses onto the original one
        cfg = config_from_dict({
            "preset": "ex2-isav-be",
            "grid": {"nx": 32, "ny": 32, "lx": 6.4, "ly": 6.4},
            "tau": 0.1, "t_end": 100.0,
        })
        prev = run_simulation(cfg, write_outputs=False, record=False).final_state
        pot = cfg.make_potential()
        p = ModelParams(alpha=cfg.model["alpha"], gamma=cfg.model["gamma"], S=cfg.S,
                        tau=cfg.tau, potential=pot)
        st, _ = step(prev, p, record=False)
        e2 = e2_energy(st.phi_n, prev.phi_n, pot, cfg.S)
        eo = original_energy(st.phi_n, pot)
        assert e2 == pytest.approx(eo, rel=1e-6)


class TestH1Error:
    def test_zero_for_identical(self, rng):
        g = make_grid(16, 16, 1.0, 1.0)
        u = random_field(g, rng)
        assert h1_error(u, u) == 0.0

    def test_analytic_perturbation(self):
        g = make_grid(32, 32, TWO_PI, TWO_PI)
        X, _ = g.nodes()
        ref = Field(g, np.full(g.shape, 0.3))
        for c in (0.25, 1.5):
            u = Field(g, ref.values + c * np.sin(X))
            assert h1_error(u, ref) == pytest.approx(2 * np.pi * c, rel=1e-13)

    def test_triangle_inequality(self, rng):
        g = make_grid(12, 12, 2.0, 2.0)
        for _ in range(20):
            u, v, w = (random_field(g, rng) for _ in range(3))
            assert h1_error(u, w) <= h1_error(u, v) + h1_error(v, w) + 1e-12

    def test_scaling_homogeneity(self, rng):
        g = make_grid(12, 12, 2.0, 2.0)
        zero = Field(g, np.zeros(g.shape))
        for _ in range(10):
            u = random_field(g, rng)
            c = float(rng.uniform(0.1, 5.0))
            assert h1_error(Field(g, c * u.values), zero) == pytest.approx(
                c * h1_error(u, zero), rel=1e-12)

    def test_cross_grid_reference(self):
        fine = make_grid(64, 64, TWO_PI, TWO_PI)
        coarse = make_grid(16, 16, TWO_PI, TWO_PI)
        Xf, Yf = fine.nodes()
        Xc, Yc = coarse.nodes()
        ref = Field(fine, np.sin(Xf) * np.sin(Yf))
        u = Field(coarse, np.sin(Xc) * np.sin(Yc))
        assert h1_error(u, ref) < 1e-12


class TestRecordStep:
    def setup_state(self, rng):
        g = make_grid(16, 16, TWO_PI, TWO_PI)
        pot = DoubleWell(eps=0.5, c_add=1.0)
        p = ModelParams(alpha=1.0, gamma=0.2, S=2.0, tau=0.05, potential=pot)
        phi0 = Field(g, rng.uniform(-0.6, 0.6, g.shape))
        return g, pot, p, make_initial_state(Scheme.ISAV_BE, phi0, pot)

    def test_initial_record(self, rng):
        g, pot, p, state = self.setup_state(rng)
        rec = record_step(state, p)
        assert rec.step == 0 and rec.t == 0.0
        assert rec.E_orig == pytest.approx(original_energy(state.phi_n, pot), rel=1e-13)
        assert rec.E_mod == pytest.approx(rec.E_orig, rel=1e-13)
        assert rec.r_drift == 0.0
        assert rec.D_be is None and rec.D_bdf is None and rec.E2 is None

    def test_decrement_matches_independent_recomputation(self, rng):
        g, pot, p, state = self.setup_state(rng)
        sym = p.symbols(g)
        new, rec = step(state, p)
        e_new = original_energy(new.phi_n, pot)
        e_old = original_energy(state.phi_n, pot)
        ghalf_sq = quad_form_hat(g, Field(g, g.inverse(new.diag.mu_hat)).spectrum(), sym.g_sym)
        assert rec.D_be == pytest.approx(e_new - e_old + p.tau * ghalf_sq, rel=1e-10, abs=1e-12)
        assert rec.E_orig == pytest.approx(e_new, rel=1e-12)

    def test_record_of_a_state_stepped_without_records(self, rng):
        # a fast-path state carries no energy parts; the record rebuilds them
        # and lands on the values the recording step computed
        g, pot, p, state = self.setup_state(rng)
        fast, none = step(state, p, record=False)
        _, rec = step(state, p)
        late = record_step(fast, p)
        assert none is None
        assert (late.E_orig, late.E_mod, late.r_drift) == (rec.E_orig, rec.E_mod, rec.r_drift)
        assert late.D_be is None

    def test_drift_sign_convention(self, rng):
        from isavflow import bulk_energy

        g, pot, p, state = self.setup_state(rng)
        new, rec = step(state, p)
        r_exact = math.sqrt(bulk_energy(pot, new.phi_n))
        assert rec.r_drift == pytest.approx(r_exact - new.r_report, abs=1e-14)

    def test_mass_and_range(self, rng):
        g, pot, p, state = self.setup_state(rng)
        rec = record_step(state, p)
        assert rec.mass == pytest.approx(state.phi_n.values.mean())
        assert rec.min_phi == state.phi_n.values.min()
        assert rec.max_phi == state.phi_n.values.max()
