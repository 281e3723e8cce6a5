"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The expensive shared
ingredient (the tau=1e-5 reference trajectory per dissipation exponent) is
computed once per session.
"""

import math

import numpy as np
import pytest

from isavflow import (
    DoubleWell,
    Field,
    FloryHugginsRegularized,
    Grid,
    ModelParams,
    Scheme,
    make_initial_state,
    original_energy,
    step,
)
from isavflow.config import config_from_dict
from isavflow.diagnostics import h1_error
from isavflow.harness import run_simulation
from isavflow.spectral import quad_form_hat

from conftest import (TWO_PI, even_symbol, ex1_config, ex2_config, final_field, random_field,
                      step_and_record)
from oracles import (RankOneSystem, apply_symbol, dense_solve_oracle, rank_one_solve,
                     reference_kernels, reference_mu)

TEMPORAL_NS = (10, 20, 40, 80, 160)

REPORTED_ERRORS = {
    ("isav-be", 0.0): (1.57e-2, 7.96e-3, 4.01e-3, 2.01e-3, 1.01e-3),
    ("isav-be", 1.0): (4.90e-2, 2.52e-2, 1.28e-2, 6.42e-3, 3.22e-3),
    ("isav-bdf", 0.0): (2.15e-3, 5.33e-4, 1.33e-4, 3.31e-5, 8.27e-6),
    ("isav-bdf", 1.0): (6.56e-3, 1.59e-3, 3.91e-4, 9.71e-5, 2.42e-5),
}


def temporal_errors(scheme, alpha, reference):
    errors = []
    for N in TEMPORAL_NS:
        cfg = ex1_config(scheme, alpha, tau=0.5 / N)
        errors.append(h1_error(final_field(cfg), reference(alpha)))
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    return errors, orders


@pytest.mark.slow
class TestCriterion1TemporalOrderBE:
    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_first_order(self, ex1_reference, alpha):
        errors, orders = temporal_errors("isav-be", alpha, ex1_reference)
        for o in orders:
            assert 0.85 <= o <= 1.10
        for err, ref in zip(errors, REPORTED_ERRORS[("isav-be", alpha)]):
            assert ref / 2 <= err <= ref * 2
        print(f"criterion 1 PASS (alpha={alpha}): orders "
              f"{[round(o, 3) for o in orders]}, errors within 2x of reported")


@pytest.mark.slow
class TestCriterion2TemporalOrderBDF:
    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_second_order(self, ex1_reference, alpha):
        errors, orders = temporal_errors("isav-bdf", alpha, ex1_reference)
        for o in orders:
            assert 1.90 <= o <= 2.15
        if alpha == 0.0:
            assert 3.31e-5 / 2 <= errors[3] <= 3.31e-5 * 2
        print(f"criterion 2 PASS (alpha={alpha}): orders "
              f"{[round(o, 3) for o in orders]}")


class TestCriterion3SpatialAccuracy:
    # below this value consecutive errors sit on the double-precision floor
    # and their ordering is roundoff noise, not spatial accuracy
    FLOOR = 1e-12

    @pytest.mark.parametrize("scheme", ["isav-be", "isav-bdf"])
    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_spectral_decay(self, scheme, alpha):
        cfg = ex1_config(scheme, alpha, tau=1e-5, t_end=1e-3)
        ref = final_field(
            config_from_dict({**cfg.to_dict(), "grid": {**cfg.grid, "nx": 64, "ny": 64}})
        )
        errors = []
        for n in (4, 8, 12, 16, 20):
            member = config_from_dict({**cfg.to_dict(), "grid": {**cfg.grid, "nx": n, "ny": n}})
            errors.append(h1_error(final_field(member), ref))
        for a, b in zip(errors, errors[1:]):
            assert b < a or (a < self.FLOOR and b < self.FLOOR)
        assert errors[3] < 1e-9 and errors[4] < 1e-9
        print(f"criterion 3 PASS ({scheme}, alpha={alpha}): errors "
              f"{['%.2e' % e for e in errors]}")


class TestCriterion4ModifiedEnergyLaw:
    @pytest.mark.parametrize("tau,t_end", [(0.01, 1.0), (0.001, 1.0)])
    @pytest.mark.parametrize("eps", [0.1, 0.04, 0.01])
    def test_unconditional_monotonicity(self, tau, t_end, eps):
        res = run_simulation(ex2_config("sav-be", eps=eps, tau=tau, t_end=t_end),
                             write_outputs=False)
        e = [r.E_mod for r in res.records]
        for a, b in zip(e, e[1:]):
            assert b <= a + 1e-12 * abs(a)
        print(f"criterion 4 PASS (tau={tau}, eps={eps}): modified energy monotone "
              f"over {len(e) - 1} steps")


class TestCriterion5OriginalEnergyLaw:
    @pytest.mark.parametrize("tau", [0.01, 0.001])
    @pytest.mark.parametrize("eps", [0.1, 0.04, 0.01])
    def test_monotone_with_decrement_bound(self, tau, eps):
        res = run_simulation(ex2_config("isav-be", eps=eps, tau=tau, t_end=1.0),
                             write_outputs=False)
        e = [r.E_orig for r in res.records]
        for a, b in zip(e, e[1:]):
            assert b <= a + 1e-10 * (1.0 + abs(a))
        for r, prev in zip(res.records[1:], e):
            assert r.D_be <= 1e-10 * (1.0 + abs(prev))
        print(f"criterion 5 PASS (tau={tau}, eps={eps}): original energy monotone, "
              f"decrement nonpositive")

    @pytest.mark.parametrize("eps", [0.1, 0.04, 0.01])
    def test_large_step_remains_monotone(self, eps):
        res = run_simulation(ex2_config("isav-be", eps=eps, tau=0.1, t_end=5.0),
                             write_outputs=False)
        e = [r.E_orig for r in res.records]
        for a, b in zip(e, e[1:]):
            assert b <= a + 1e-10 * (1.0 + abs(a))
        print(f"criterion 5 PASS (tau=0.1, eps={eps}): monotone at large step")


class TestCriterion6InstabilityWitness:
    def test_sav_be_decrement_goes_positive(self):
        res = run_simulation(ex2_config("sav-be", eps=0.01, tau=0.001, t_end=1.0),
                             write_outputs=False)
        d = [r.D_be for r in res.records if r.D_be is not None]
        assert max(d) > 0.0
        print(f"criterion 6 PASS: sav-be decrement reaches {max(d):.3e} > 0")

    def test_isav_bdf_leaves_the_physical_range_at_the_ex4_preset(self):
        # the paper proves original-energy stability for backward Euler
        # only; at the ex4 preset isav-bdf leaves [0, 1] and raises E_orig,
        # while isav-be at the same settings does neither
        def run(scheme):
            rows = run_simulation(config_from_dict({"preset": f"ex4-{scheme}"}),
                                  write_outputs=False).records
            rises = sum(b.E_orig > a.E_orig for a, b in zip(rows, rows[1:]))
            return rises, min(r.min_phi for r in rows), max(r.max_phi for r in rows)

        rises, lo, hi = run("isav-bdf")
        assert rises > 0 and (lo < 0.0 or hi > 1.0)
        be_rises, be_lo, be_hi = run("isav-be")
        assert be_rises == 0 and 0.0 < be_lo and be_hi < 1.0
        print(f"criterion 6 PASS: ex4 isav-bdf rises at {rises} steps in [{lo:.3f}, {hi:.3f}], "
              f"isav-be at none in [{be_lo:.3f}, {be_hi:.3f}]")


class TestCriterion7DriftScaling:
    @staticmethod
    def max_drift(scheme, tau):
        res = run_simulation(ex1_config(scheme, alpha=0.0, tau=tau), write_outputs=False)
        return max(abs(r.r_drift) for r in res.records if r.step > 0)

    def test_halving_tau(self):
        improved = self.max_drift("isav-be", 0.5 / 80) / self.max_drift("isav-be", 0.5 / 160)
        carried = self.max_drift("sav-be", 0.5 / 80) / self.max_drift("sav-be", 0.5 / 160)
        assert improved >= 3.0
        assert 1.5 <= carried < 3.0
        print(f"criterion 7 PASS: drift reduction factors improved={improved:.2f}, "
              f"carried={carried:.2f}")


class TestCriterion8SolverOracle:
    def test_randomized_systems_match_dense(self):
        rng = np.random.default_rng(8)
        g = Grid(8, 8, 1.0, 2.0)
        worst = 0.0
        for _ in range(200):
            b = random_field(g, rng)
            sys_ = RankOneSystem(
                diag=1.0 + even_symbol(g, rng, 0.0, 4.0),
                gb=apply_symbol(b, even_symbol(g, rng, 0.0, 2.0)),
                b=b,
                rhs=random_field(g, rng),
                w=float(rng.uniform(0.05, 2.0)),
            )
            fast = rank_one_solve(sys_)
            dense = dense_solve_oracle(sys_)
            scale = max(np.abs(dense.values).max(), 1e-30)
            worst = max(worst, np.abs(fast.values - dense.values).max() / scale)
        assert worst <= 1e-10
        print(f"criterion 8 PASS: 200 systems, worst relative deviation {worst:.2e}")

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_scheme_relation_residuals(self, scheme):
        rng = np.random.default_rng(88)
        g = Grid(16, 16, TWO_PI, TWO_PI)
        pot = DoubleWell(eps=0.5, c_add=1.0)
        p = ModelParams(alpha=1.0, gamma=0.2, S=3.0, tau=0.05, potential=pot)
        sym = p.symbols(g)
        phi0 = Field(g, rng.uniform(-0.8, 0.8, g.shape))
        state = make_initial_state(scheme, phi0, pot)
        if scheme.is_bdf:
            state = step(state, p)
        old = state
        new, rec = step_and_record(state, p)

        # rebuild mu from its definition and check the flow relation
        mu = reference_mu(old, new, p)
        if scheme.is_bdf:
            dphi = (3.0 * new.phi_n.values - 4.0 * old.phi_n.values + old.phi_nm1.values) / (2.0 * p.tau)
        else:
            dphi = (new.phi_n.values - old.phi_n.values) / p.tau
        gmu = apply_symbol(Field(g, mu), sym.g_sym).values
        scale = max(np.abs(dphi).max(), 1.0)
        residual = np.abs(dphi + gmu).max() / scale
        assert residual <= 1e-10
        # the record's dissipation, taken from the levels, is that of this mu
        dissipation = p.tau * quad_form_hat(g, Field(g, mu).spectrum(), sym.g_sym)
        decrement = original_energy(new.phi_n, pot) - original_energy(old.phi_n, pot)
        assert abs(rec.D_be - decrement - dissipation) <= 1e-10 * max(dissipation, 1.0)
        print(f"criterion 8 PASS ({scheme.value}): relation residual {residual:.2e}")


class TestCriterion9ConservationConsistency:
    def test_mass_conservation_long_run(self):
        cfg = ex2_config("isav-be", eps=0.04, tau=0.001, t_end=1.0, nx=64)
        res = run_simulation(cfg, write_outputs=False)
        masses = [r.mass for r in res.records]
        drift = max(abs(m - masses[0]) for m in masses)
        assert drift <= 1e-12
        print(f"criterion 9 PASS: mass drift {drift:.2e} over {len(masses) - 1} steps")

    def test_breakpoint_continuity(self):
        from test_potentials import fh_branches

        p = FloryHugginsRegularized(eps=0.04, beta=3.0, sigma=0.01)
        upper, middle, lower = fh_branches(p.beta, p.sigma)
        for a, b in zip(lower(p.sigma), middle(p.sigma)):
            assert abs(a - b) <= 1e-12
        for a, b in zip(middle(1 - p.sigma), upper(1 - p.sigma)):
            assert abs(a - b) <= 1e-12
        print("criterion 9 PASS: piecewise branches C2-continuous to 1e-12")

    def test_derivative_finite_difference(self):
        rng = np.random.default_rng(9)
        for pot in (DoubleWell(eps=0.3), FloryHugginsRegularized(eps=0.04, beta=3.0, sigma=0.01)):
            pts = rng.uniform(-1.0, 2.0, 1000)
            h = 1e-5
            F_lo, F_hi = (reference_kernels(pot, x)[0] for x in (pts - h, pts + h))
            fd = (F_hi - F_lo) / (2 * h)
            rel = np.abs(fd - pot.f(pts)) / np.maximum(np.abs(pot.f(pts)), 1.0)
            assert rel.max() <= 1e-6
        print("criterion 9 PASS: analytic derivatives match finite differences")


class TestCriterion10FloryHugginsRobustness:
    @staticmethod
    def ex3(scheme):
        return config_from_dict({
            "preset": f"ex3-{scheme}",
            "model": {"alpha": 1.0, "gamma": 0.5},
            "tau": 0.01, "t_end": 1.0,
        })

    def test_improved_scheme_stays_physical(self):
        res = run_simulation(self.ex3("isav-be"), write_outputs=False)
        e = [r.E_orig for r in res.records]
        for a, b in zip(e, e[1:]):
            assert b <= a + 1e-10 * (1.0 + abs(a))
        lo = min(r.min_phi for r in res.records)
        hi = max(r.max_phi for r in res.records)
        assert np.isfinite([lo, hi]).all()
        print(f"criterion 10 PASS: improved scheme monotone, range [{lo:.3f}, {hi:.3f}]")

    def test_carried_scheme_leaves_unit_interval(self):
        res = run_simulation(self.ex3("sav-be"), write_outputs=False)
        hi = max(r.max_phi for r in res.records)
        assert hi > 1.0
        print(f"criterion 10 PASS: carried-scalar scheme reaches max phi {hi:.3f} > 1")
