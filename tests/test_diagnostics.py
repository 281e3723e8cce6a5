"""Energies, decrement bookkeeping, error norms, record assembly."""

import math

import numpy as np
import pytest

from isavflow import (
    DoubleWell,
    Field,
    Grid,
    ModelParams,
    NonPositiveBulkEnergyError,
    Scheme,
    h1_error,
    make_initial_state,
    original_energy,
    record_step,
    step,
)
from isavflow.config import config_from_dict, initial_field
from isavflow.harness import run_simulation
from isavflow.spectral import quad_form_hat

from conftest import TWO_PI, random_field, step_and_record
from oracles import (ConstantPotential, e2_energy, quad, quad_form_reference, reference_kernels,
                     reference_mu)


class TestOriginalEnergy:
    def test_minimizer_is_zero(self):
        g = Grid(16, 16, TWO_PI, TWO_PI)
        assert original_energy(Field(g, np.ones(g.shape)), DoubleWell(eps=1.0)) == pytest.approx(0.0, abs=1e-14)

    def test_gradient_part(self):
        g = Grid(32, 32, TWO_PI, TWO_PI)
        X, Y = g.nodes()
        phi = Field(g, np.sin(X) * np.sin(Y))
        pot = ConstantPotential(c_add=0.0)
        assert original_energy(phi, pot) == pytest.approx(np.pi**2, rel=1e-13)

    def test_stable_under_refinement(self):
        pot = DoubleWell(eps=1.0)
        vals = []
        for n in (64, 256):
            g = Grid(n, n, TWO_PI, TWO_PI)
            vals.append(original_energy(initial_field({"kind": "ex1"}, g), pot))
        assert vals[0] == pytest.approx(vals[1], rel=1e-10)


class TestE2Energy:
    def test_degenerate_history_collapses_to_bulk(self):
        g = Grid(16, 16, TWO_PI, TWO_PI)
        pot = DoubleWell(eps=1.0, c_add=1.0)
        c = Field(g, np.full(g.shape, 0.4))
        from isavflow import bulk_energy

        assert e2_energy(c, c, pot, S=123.0) == pytest.approx(bulk_energy(pot, c), rel=1e-13)

    def test_damping_term_vanishes_for_equal_fields(self, rng):
        g = Grid(16, 16, TWO_PI, TWO_PI)
        pot = DoubleWell(eps=0.5, c_add=1.0)
        u = Field(g, rng.uniform(-0.5, 0.5, g.shape))
        assert e2_energy(u, u, pot, S=0.0) == pytest.approx(e2_energy(u, u, pot, S=50.0))

    def test_nonpositive_bulk_raises(self):
        g = Grid(8, 8, TWO_PI, TWO_PI)
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
        st = step(prev, p)
        e2 = e2_energy(st.phi_n, prev.phi_n, pot, cfg.S)
        eo = original_energy(st.phi_n, pot)
        assert e2 == pytest.approx(eo, rel=1e-6)


class TestH1Error:
    def test_zero_for_identical(self, rng):
        g = Grid(16, 16, 1.0, 1.0)
        u = random_field(g, rng)
        assert h1_error(u, u) == 0.0

    def test_analytic_perturbation(self):
        g = Grid(32, 32, TWO_PI, TWO_PI)
        X, _ = g.nodes()
        ref = Field(g, np.full(g.shape, 0.3))
        for c in (0.25, 1.5):
            u = Field(g, ref.values + c * np.sin(X))
            assert h1_error(u, ref) == pytest.approx(2 * np.pi * c, rel=1e-13)

    def test_triangle_inequality(self, rng):
        g = Grid(12, 12, 2.0, 2.0)
        for _ in range(20):
            u, v, w = (random_field(g, rng) for _ in range(3))
            assert h1_error(u, w) <= h1_error(u, v) + h1_error(v, w) + 1e-12

    def test_scaling_homogeneity(self, rng):
        g = Grid(12, 12, 2.0, 2.0)
        zero = Field(g, np.zeros(g.shape))
        for _ in range(10):
            u = random_field(g, rng)
            c = float(rng.uniform(0.1, 5.0))
            assert h1_error(Field(g, c * u.values), zero) == pytest.approx(
                c * h1_error(u, zero), rel=1e-12)

    def test_cross_grid_reference(self):
        fine = Grid(64, 64, TWO_PI, TWO_PI)
        coarse = Grid(16, 16, TWO_PI, TWO_PI)
        Xf, Yf = fine.nodes()
        Xc, Yc = coarse.nodes()
        ref = Field(fine, np.sin(Xf) * np.sin(Yf))
        u = Field(coarse, np.sin(Xc) * np.sin(Yc))
        assert h1_error(u, ref) < 1e-12


class TestRecordStep:
    def setup_state(self, rng):
        g = Grid(16, 16, TWO_PI, TWO_PI)
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
        new, rec = step_and_record(state, p)
        e_new = original_energy(new.phi_n, pot)
        e_old = original_energy(state.phi_n, pot)
        ghalf_sq = quad_form_hat(g, Field(g, reference_mu(state, new, p)).spectrum(), sym.g_sym)
        assert rec.D_be == pytest.approx(e_new - e_old + p.tau * ghalf_sq, rel=1e-10, abs=1e-12)
        assert rec.E_orig == pytest.approx(e_new, rel=1e-12)

    def test_record_of_a_state_stepped_without_records(self, rng):
        # a fast-path state carries no energy parts; the record rebuilds them
        # and lands on the values of the record built right after its step
        g, pot, p, state = self.setup_state(rng)
        fast = step(state, p)
        assert fast.F_n is None and fast.e_lin is None
        _, rec = step_and_record(state, p)
        late = record_step(fast, p)
        assert (late.E_orig, late.E_mod, late.r_drift) == (rec.E_orig, rec.E_mod, rec.r_drift)
        assert late.D_be is None
        # with prev given, a record reads only its two states: after n
        # steps without records it equals, bit for bit, the record of
        # level n of a trajectory that recorded every level
        for scheme in Scheme:
            slow, recs = make_initial_state(scheme, state.phi_n, pot), []
            for _ in range(3):
                slow, rec = step_and_record(slow, p)
                recs.append(rec)
            for n, rec in enumerate(recs, 1):
                fast = make_initial_state(scheme, state.phi_n, pot)
                for _ in range(n):
                    prev, fast = fast, step(fast, p)
                assert record_step(fast, p, prev) == rec, (scheme, n)

    def test_drift_sign_convention(self, rng):
        from isavflow import bulk_energy

        g, pot, p, state = self.setup_state(rng)
        new, rec = step_and_record(state, p)
        r_exact = math.sqrt(bulk_energy(pot, new.phi_n))
        assert rec.r_drift == pytest.approx(r_exact - new.r_report, abs=1e-14)

    def test_mass_and_range(self, rng):
        g, pot, p, state = self.setup_state(rng)
        rec = record_step(state, p)
        assert rec.mass == state.phi_n.values.mean()  # sum/size keeps the bits of mean()
        assert rec.min_phi == state.phi_n.values.min()
        assert rec.max_phi == state.phi_n.values.max()


class TestEnergyColumnsMatchOracle:
    # Every energy column of a run, against the same quantities built from
    # the run's levels with the six-pass reference quadratic form, the
    # bulk integral by nodal quadrature, the written-out E2 and mu from its
    # definition (the BE form at step 1 of a BDF run). "-alpha0.5" sets a
    # fractional mobility, whose G^{1/2} also drops the zero mode.
    @pytest.mark.parametrize("scheme", [s.value for s in Scheme])
    @pytest.mark.parametrize("example", ["ex1", "ex2", "ex3", "ex4", "ex2-alpha0.5"])
    def test_energy_columns(self, example, scheme):
        example, _, alpha = example.partition("-alpha")
        doc = {"preset": f"{example}-{scheme}", "grid": {"nx": 16, "ny": 16}}
        if alpha:
            doc["model"] = {"alpha": float(alpha)}
        cfg = config_from_dict(doc)
        cfg.t_end = 10 * cfg.tau
        records = run_simulation(cfg, write_outputs=False).records
        g, pot = cfg.make_grid(), cfg.make_potential()
        p = ModelParams(alpha=cfg.model["alpha"], gamma=cfg.model["gamma"], S=cfg.S,
                        tau=cfg.tau, potential=pot)
        S = p.S if scheme.startswith("isav-") else 0.0
        lap = g.lap_sym
        G = p.gamma * lap**p.alpha  # 0**0 = 1: G = gamma*I for alpha = 0
        state = make_initial_state(scheme, initial_field(cfg.init, g), pot)
        prev = None  # (state, E_orig, E2) of the previous level
        for n, rec in enumerate(records):
            if n:
                state = step(state, p)
            phi = state.phi_n
            e_lin = 0.5 * quad_form_reference(g, phi.spectrum(), lap)
            E_orig = e_lin + quad(g, reference_kernels(pot, phi.values)[0])
            E2 = None
            if scheme.endswith("-bdf") and state.phi_nm1 is not None:
                E2 = e2_energy(phi, state.phi_nm1, pot, S)
            expect = {"E_orig": E_orig, "E_mod": e_lin + state.r_report**2, "E2": E2,
                      "D_be": None, "D_bdf": None}
            if prev is not None:
                mu_hat = g.forward(reference_mu(prev[0], state, p))
                ghalf_sq = p.tau * quad_form_reference(g, mu_hat, G)
                expect["D_be"] = E_orig - prev[1] + ghalf_sq
                if E2 is not None and prev[2] is not None:
                    expect["D_bdf"] = E2 - prev[2] + ghalf_sq
            tol = 1e-13 * max(1.0, abs(E_orig))
            for name, value in expect.items():
                got = getattr(rec, name)
                assert (got is None) == (value is None), (name, n)
                if value is not None:
                    assert abs(got - value) <= tol, (name, n, got, value)
            prev = (state, E_orig, E2)
