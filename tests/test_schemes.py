"""Time-stepper behavior: closed forms, conservation, energy laws, BDF start."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from isavflow import (
    DoubleWell,
    EnergyLawViolation,
    Field,
    FloryHugginsRegularized,
    Grid,
    ModelParams,
    NonPositiveBulkEnergyError,
    Scheme,
    bulk_energy,
    make_initial_state,
    record_step,
    step,
    suggest_S,
)
from isavflow.config import config_from_dict, initial_field
from isavflow.diagnostics import h1_error
from isavflow.harness import _check_energy_laws, levels
from isavflow.schemes import Level

from conftest import TWO_PI, ex1_config, final_field, random_field, step_and_record
from oracles import ConstantPotential, apply_symbol, inner, quad, reference_kernels, reference_step


def const_params(alpha=0.0, gamma=0.1, S=0.0, tau=0.1):
    return ModelParams(alpha=alpha, gamma=gamma, S=S, tau=tau,
                       potential=ConstantPotential(c_add=1.0))


def cos_field(n=8):
    g = Grid(n, n, TWO_PI, TWO_PI)
    X, _ = g.nodes()
    return g, Field(g, np.cos(X))


class TestLinearDecayClosedForms:
    def test_sav_be_single_mode(self):
        g, phi0 = cos_field()
        p = const_params()
        st = step(make_initial_state(Scheme.SAV_BE, phi0, p.potential), p)
        # factor 1/(1 + tau*gamma*|k|^2) = 1/1.01
        assert np.abs(st.level.phi.values - phi0.values / 1.01).max() < 1e-14

    def test_isav_be_single_mode(self):
        g, phi0 = cos_field()
        p = const_params(S=6.0)
        st = step(make_initial_state(Scheme.ISAV_BE, phi0, p.potential), p)
        # factor (1 + tau*gamma*S)/(1 + tau*gamma*(1 + S)) = 1.06/1.07
        assert np.abs(st.level.phi.values - phi0.values * (1.06 / 1.07)).max() < 1e-14

    @pytest.mark.parametrize("scheme", [Scheme.SAV_BDF, Scheme.ISAV_BDF])
    def test_bdf_single_mode(self, scheme):
        # BDF2 for phi_t = -lambda phi: amplification solves (3+2*tau*lam) a^2 = 4a - 1
        g, phi0 = cos_field()
        p = const_params(tau=0.1)
        lam = p.gamma * 1.0
        a = (4.0 + math.sqrt(16.0 - 4.0 * (3.0 + 2.0 * p.tau * lam))) / (2.0 * (3.0 + 2.0 * p.tau * lam))
        state = make_initial_state(scheme, Field(g, a * phi0.values), p.potential)
        state.prev = Level(phi0, state.level.r)
        state.step_index = 1
        st = step(state, p)
        assert np.abs(st.level.phi.values - a * a * phi0.values).max() < 1e-13


class TestStateDiscipline:
    def test_fractional_dissipation_exponent(self, rng):
        g = Grid(16, 16, TWO_PI, TWO_PI)
        pot = DoubleWell(eps=0.5, c_add=1.0)
        p = ModelParams(alpha=0.5, gamma=0.2, S=2.0, tau=0.05, potential=pot)
        state = make_initial_state(Scheme.ISAV_BE, Field(g, rng.uniform(-0.5, 0.5, g.shape)), pot)
        m0 = state.level.phi.values.mean()
        prev = record_step(state, p).E_orig
        for _ in range(5):
            state, rec = step_and_record(state, p)
            assert rec.D_be <= 1e-10 * (1 + abs(prev))
            prev = rec.E_orig
        # fractional alpha > 0 still kills the zero mode
        assert abs(state.level.phi.values.mean() - m0) < 1e-13


class TestCarriedSpectrum:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_spectrum_matches_values_after_many_steps(self, scheme, rng):
        # the solver's spectrum rides on phi_n instead of a fresh transform;
        # it must stay the transform of the values it travels with
        g = Grid(16, 12, TWO_PI, TWO_PI)
        pot = DoubleWell(eps=0.5, c_add=1.0)
        p = ModelParams(alpha=1.0, gamma=0.1, S=2.0, tau=0.02, potential=pot)
        phi0 = Field(g, rng.uniform(-0.8, 0.8, g.shape))
        state = make_initial_state(scheme, phi0, pot)
        for _ in range(50):
            state = step(state, p)
        carried = state.level.phi.hat
        assert carried is not None
        fresh = g.forward(state.level.phi.values)
        assert np.abs(carried - fresh).max() <= 1e-12 * np.abs(fresh).max()


class TestConservation:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_mean_preserved_for_conserved_flow(self, scheme, rng):
        g = Grid(16, 16, TWO_PI, TWO_PI)
        pot = DoubleWell(eps=0.5, c_add=1.0)
        p = ModelParams(alpha=1.0, gamma=0.05, S=2.0, tau=0.02, potential=pot)
        phi0 = Field(g, 0.3 + 0.2 * rng.standard_normal(g.shape))
        m0 = phi0.values.mean()
        state = make_initial_state(scheme, phi0, pot)
        for _ in range(5):
            state = step(state, p)
            assert abs(state.level.phi.values.mean() - m0) < 1e-13


class TestModifiedEnergyLaw:
    def test_sav_be_unconditional(self, rng):
        # holds for any tau and any admissible data, up to roundoff
        g = Grid(16, 16, TWO_PI, TWO_PI)
        pot = DoubleWell(eps=0.2, c_add=1.0)
        for tau in (1e-3, 0.1, 10.0):
            p = ModelParams(alpha=1.0, gamma=0.5, S=0.0, tau=tau, potential=pot)
            state = make_initial_state(
                Scheme.SAV_BE, Field(g, rng.uniform(-1.3, 1.3, g.shape)), pot
            )
            e_prev = None
            for _ in range(10):
                state, rec = step_and_record(state, p)
                if e_prev is not None:
                    assert rec.E_mod <= e_prev + 1e-12 * abs(e_prev)
                e_prev = rec.E_mod

    def test_sav_be_one_step_smooth(self):
        cfg = ex1_config("sav-be", alpha=0.0, tau=0.05)
        pot = cfg.make_potential()
        phi0 = initial_field(cfg.init, cfg.make_grid())
        p = ModelParams(alpha=0.0, gamma=0.1, S=0.0, tau=0.05, potential=pot)
        state = make_initial_state(Scheme.SAV_BE, phi0, pot)
        e0 = 0.5 * inner(apply_symbol(phi0, cfg.make_grid().lap_sym), phi0) + bulk_energy(pot, phi0)
        _, rec = step_and_record(state, p)
        assert rec.E_mod <= e0


class TestOriginalEnergyLaw:
    def test_isav_be_with_adequate_damping(self, rng):
        g = Grid(16, 16, TWO_PI, TWO_PI)
        pot = DoubleWell(eps=0.2, c_add=1.0)
        S = max(suggest_S(pot, (-2.0, 2.0)), 0.0)
        p = ModelParams(alpha=0.0, gamma=0.5, S=S, tau=0.05, potential=pot)
        state = make_initial_state(
            Scheme.ISAV_BE, Field(g, rng.uniform(-1.3, 1.3, g.shape)), pot
        )
        prev = record_step(state, p).E_orig
        for _ in range(20):
            state, rec = step_and_record(state, p)
            assert rec.D_be <= 1e-10 * (1.0 + abs(prev))
            assert rec.E_orig <= prev + 1e-10 * (1.0 + abs(prev))
            prev = rec.E_orig

    def test_runs_with_zero_damping(self):
        # stability needs S; plain consistency does not
        cfg = ex1_config("isav-be", alpha=0.0, tau=0.05)
        pot = cfg.make_potential()
        g = cfg.make_grid()
        p = ModelParams(alpha=0.0, gamma=0.1, S=0.0, tau=0.05, potential=pot)
        state = make_initial_state(Scheme.ISAV_BE, initial_field(cfg.init, g), pot)
        for _ in range(10):
            state = step(state, p)
        assert np.isfinite(state.level.phi.values).all()

    def test_assertion_raises_on_violation(self):
        # stiff well, no damping, large step: the original energy rises,
        # and the run loop's check of each step's record says so
        g = Grid(32, 32, 6.4, 6.4)
        pot = DoubleWell(eps=0.01, c_add=1.0)
        p = ModelParams(alpha=1.0, gamma=0.01, S=0.0, tau=0.01, potential=pot)
        phi0 = initial_field({"kind": "squares"}, g)
        state = make_initial_state(Scheme.ISAV_BE, phi0, pot)
        rec = record_step(state, p)
        with pytest.raises(EnergyLawViolation):
            for _ in range(50):
                old = rec
                state, rec = step_and_record(state, p)
                _check_energy_laws(state.scheme, old, rec)

    def test_sav_be_assertion_raises_on_a_modified_energy_rise(self):
        # the modified-energy law of sav-be holds on a real step; a rise
        # beyond its slack is reported with the step
        (_, old), (_, rec) = itertools.islice(levels(ex1_config("sav-be", 0.0, 0.05, nx=8)), 2)
        _check_energy_laws(Scheme.SAV_BE, old, rec)
        risen = replace(rec, E_mod=old.E_mod + 1e-11 * abs(old.E_mod))
        with pytest.raises(EnergyLawViolation, match="^modified energy rose at step 1: "):
            _check_energy_laws(Scheme.SAV_BE, old, risen)


class TestAuxiliaryScalarUpdate:
    def test_reconstruction_identity(self, rng):
        # r~^{n+1} - r[phi^n] = <b, phi^{n+1} - phi^n>/2, exactly as computed
        g = Grid(16, 16, TWO_PI, TWO_PI)
        pot = DoubleWell(eps=0.5, c_add=1.0)
        p = ModelParams(alpha=0.0, gamma=0.3, S=1.0, tau=0.05, potential=pot)
        phi0 = Field(g, rng.uniform(-1.0, 1.0, g.shape))
        state = make_initial_state(Scheme.ISAV_BE, phi0, pot)
        new = step(state, p)
        r_func = math.sqrt(bulk_energy(pot, phi0))
        b = Field(g, pot.f(phi0.values) / r_func)
        expected = 0.5 * inner(b, Field(g, new.level.phi.values - phi0.values))
        assert new.level.r - r_func == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_first_step_reconstruction_gap_is_second_order(self):
        # |r[phi^1] - r~^1| shrinks ~4x when tau halves on smooth data
        gaps = []
        for tau in (0.05, 0.025):
            cfg = ex1_config("isav-be", alpha=0.0, tau=tau)
            pot = cfg.make_potential()
            g = cfg.make_grid()
            p = ModelParams(alpha=0.0, gamma=0.1, S=cfg.S, tau=tau, potential=pot)
            state = make_initial_state(Scheme.ISAV_BE, initial_field(cfg.init, g), pot)
            new, rec = step_and_record(state, p)
            gaps.append(abs(rec.r_drift))
        assert gaps[0] / gaps[1] >= 3.0

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_only_sav_steps_read_the_scalar(self, scheme, rng):
        # the SAV schemes step with their carried scalars; the improved
        # schemes re-evaluate r[phi] and only report theirs, so garbage
        # in a level's r leaves their step bit for bit as it was
        g = Grid(8, 8, 1.0, 1.0)
        pot = DoubleWell(eps=1.0, c_add=1.0)
        p = ModelParams(alpha=0.0, gamma=1.0, S=2.0, tau=0.01, potential=pot)
        state = make_initial_state(scheme, random_field(g, rng, 0.3), pot)
        for _ in range(2):
            state = step(state, p)
        clean = step(state, p)
        for level in (state.level, state.prev):
            if level is not None:
                level.r = 10.0 * level.r + 1.0
        garbled = step(state, p)
        same = (np.array_equal(garbled.level.phi.values, clean.level.phi.values)
                and np.array_equal(garbled.level.phi.hat, clean.level.phi.hat)
                and garbled.level.r == clean.level.r)
        assert same == scheme.is_improved


class TestBdfPair:
    def test_schemes_coincide_without_nonlinearity(self, rng):
        g = Grid(16, 16, TWO_PI, TWO_PI)
        pot = ConstantPotential(c_add=1.0)
        p = ModelParams(alpha=1.0, gamma=0.2, S=0.0, tau=0.05, potential=pot)
        phi1 = random_field(g, rng)
        phi0 = random_field(g, rng)
        r1 = math.sqrt(bulk_energy(pot, phi1))
        sav = make_initial_state(Scheme.SAV_BDF, phi1, pot)
        sav.prev, sav.step_index = Level(phi0, r1), 1
        isav = make_initial_state(Scheme.ISAV_BDF, phi1, pot)
        isav.prev, isav.step_index = Level(phi0, r1), 1
        a = step(sav, p)
        b = step(isav, p)
        assert np.array_equal(a.level.phi.values, b.level.phi.values)

    @pytest.mark.parametrize("pot", [
        DoubleWell(eps=0.5, c_add=1.0),
        FloryHugginsRegularized(eps=0.5, beta=3.0, sigma=0.01, c_add=5.0),
    ], ids=["double-well", "flory-huggins"])
    @pytest.mark.parametrize("scheme", [Scheme.SAV_BDF, Scheme.ISAV_BDF])
    def test_scalar_relation(self, scheme, pot, rng):
        # 3 r^{n+1} - 4 r^n + r^{n-1} = 1/2 <b, 3 phi^{n+1} - 4 phi^n + phi^{n-1}>
        # with b = f(phi*)/sqrt(int F(phi*)), phi* = 2 phi^n - phi^{n-1}; r^n and
        # r^{n-1} are the carried scalars (sav-bdf) or r[phi^n], r[phi^{n-1}]
        # (isav-bdf). F, f and <.,.> by reference kernels and nodal quadrature.
        g = Grid(16, 16, TWO_PI, TWO_PI)
        p = ModelParams(alpha=1.0, gamma=0.2, S=3.0, tau=0.05, potential=pot)
        state = make_initial_state(scheme, Field(g, rng.uniform(0.1, 0.9, g.shape)), pot)
        for _ in range(3):
            state = step(state, p)
        new = step(state, p)

        def r_of(values):
            return math.sqrt(quad(g, reference_kernels(pot, values)[0]))

        phi, phim = state.level.phi.values, state.prev.phi.values
        star = 2.0 * phi - phim
        b = reference_kernels(pot, star)[1] / r_of(star)
        r_n, r_m = (r_of(phi), r_of(phim)) if scheme.is_improved else (state.level.r, state.prev.r)
        lhs = 3.0 * new.level.r - 4.0 * r_n + r_m
        rhs = 0.5 * quad(g, b * (3.0 * new.level.phi.values - 4.0 * phi + phim))
        assert abs(lhs - rhs) <= 1e-12 * r_of(phi)

    def test_extrapolant_failure_is_an_error(self):
        g = Grid(8, 8, TWO_PI, TWO_PI)
        pot = DoubleWell(eps=1.0, c_add=0.0)
        p = ModelParams(alpha=0.0, gamma=0.1, S=0.0, tau=0.1, potential=pot)
        ones = Field(g, np.ones(g.shape))
        state = make_initial_state(Scheme.SAV_BDF, Field(g, 0.9 * np.ones(g.shape)), pot)
        # extrapolant 2*phi^n - phi^{n-1} = 1 exactly, where the well vanishes
        state.prev = Level(Field(g, 0.8 * np.ones(g.shape)), state.level.r)
        state.step_index = 1
        with pytest.raises(NonPositiveBulkEnergyError):
            step(state, p)


class TestBootstrap:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_bdf_state_shares_the_level_it_stepped_from(self, scheme, rng):
        # prev is the very Level of the state a BDF step started from, so
        # its energies serve both states; a BE state keeps no other level
        g = Grid(8, 8, TWO_PI, TWO_PI)
        pot = DoubleWell(eps=0.5, c_add=1.0)
        p = ModelParams(alpha=1.0, gamma=0.1, S=2.0, tau=0.05, potential=pot)
        state = make_initial_state(scheme, random_field(g, rng, 0.5), pot)
        assert state.prev is None
        for _ in range(4):
            new = step(state, p)
            assert new.prev is (state.level if scheme.is_bdf else None)
            state = new
    def test_constant_field_degenerate_history(self):
        g = Grid(8, 8, TWO_PI, TWO_PI)
        pot = ConstantPotential(c_add=1.0)
        p = ModelParams(alpha=0.0, gamma=0.1, S=0.0, tau=0.1, potential=pot)
        phi0 = Field(g, np.full(g.shape, 0.7))
        state = step(make_initial_state(Scheme.SAV_BDF, phi0, pot), p)
        assert np.allclose(state.level.phi.values, phi0.values)
        assert state.step_index == 1
        new = step(state, p)
        assert np.allclose(new.level.phi.values, phi0.values)

    def test_smooth_data_smoke(self):
        cfg = ex1_config("isav-bdf", alpha=0.0, tau=0.05)
        g = cfg.make_grid()
        pot = cfg.make_potential()
        p = ModelParams(alpha=0.0, gamma=0.1, S=cfg.S, tau=0.05, potential=pot)
        state = step(
            make_initial_state(Scheme.ISAV_BDF, initial_field(cfg.init, g), pot), p
        )
        assert state.step_index == 1
        assert np.isfinite(state.level.phi.values).all()
        assert np.isfinite(state.prev.phi.values).all()

    def test_scalar_seeding_for_sav_variant(self, rng):
        g = Grid(16, 16, TWO_PI, TWO_PI)
        pot = DoubleWell(eps=0.5, c_add=1.0)
        p = ModelParams(alpha=1.0, gamma=0.1, S=0.0, tau=0.01, potential=pot)
        phi0 = Field(g, rng.uniform(-0.5, 0.5, g.shape))
        # the first sav-bdf step is the isav-be step with S = 0
        be = step(make_initial_state(Scheme.ISAV_BE, phi0, pot), p)
        state = step(make_initial_state(Scheme.SAV_BDF, phi0, pot), p)
        assert state.prev.r == pytest.approx(math.sqrt(bulk_energy(pot, phi0)))
        assert state.level.r == pytest.approx(be.level.r)


class TestModelParams:
    @pytest.mark.parametrize("bad, match", [
        ({"alpha": 2.0}, "alpha"),
        ({"gamma": 0.0}, "gamma"),
        ({"S": -1e-12}, "S must"),
        ({"tau": 0.0}, "tau must"),
        ({"tau": -0.1}, "tau must"),
        ({"tau": math.nan}, "tau must"),
        ({"tau": 1e300, "S": 1e10}, "finite"),
        ({"S": math.inf}, "finite"),
    ], ids=["alpha", "gamma", "S-negative", "tau-zero", "tau-negative", "tau-nan",
            "tauS-overflow", "S-inf"])
    def test_rejects_bad_params(self, bad, match):
        good = dict(alpha=0.5, gamma=1.0, S=1.0, tau=0.1, potential=DoubleWell())
        ModelParams(**good)
        with pytest.raises(ValueError, match=match):
            ModelParams(**{**good, **bad})

    @pytest.mark.parametrize("scheme, gamma, fails_at, match", [
        (Scheme.ISAV_BDF, 7e307, 2, "the solve factors overflow"),
        (Scheme.ISAV_BE, 1e308, 1, "the solve factors overflow"),
        (Scheme.ISAV_BE, 1e-310, 1, "overflows at gamma"),
    ], ids=["bdf2-factors", "be-factors", "inverse-mobility"])
    def test_step_raises_value_error_where_it_first_needs_what_overflows(
            self, scheme, gamma, fails_at, match):
        # the library raises plain ValueError; a run maps it to ConfigError
        g = Grid(8, 8, TWO_PI, TWO_PI)
        pot = DoubleWell()
        p = ModelParams(alpha=0.0, gamma=gamma, S=6.0, tau=0.05, potential=pot)
        state = make_initial_state(scheme, initial_field({"kind": "ex1"}, g), pot)
        for _ in range(fails_at - 1):
            state = step(state, p)
        with pytest.raises(ValueError, match=match) as exc:
            step(state, p)
        assert type(exc.value) is ValueError


class TestLibraryLoop:
    def setup_loop(self, rng, scheme=Scheme.ISAV_BE):
        g = Grid(16, 16, TWO_PI, TWO_PI)
        pot = DoubleWell(eps=0.5, c_add=1.0)
        p = ModelParams(alpha=1.0, gamma=0.2, S=2.0, tau=0.05, potential=pot)
        return g, p, make_initial_state(scheme, random_field(g, rng, 0.6), pot)

    def test_library_loop_builds_one_set_of_symbols(self, rng, monkeypatch):
        from isavflow import schemes

        built = []
        real = schemes.Scratch
        monkeypatch.setattr(schemes, "Scratch", lambda *a: built.append(a) or real(*a))
        g, p, state = self.setup_loop(rng)
        for record in (True, False, True):
            new = step(state, p)
            if record:
                record_step(new, p, state)
            state = new
        assert len(built) == 1
        assert p.symbols(g) is p.symbols(g)

    def test_copies_build_their_own_symbols(self, rng):
        g, p, _ = self.setup_loop(rng)
        sym = p.symbols(g)
        copy = replace(p, S=0.0)
        assert copy.symbols(g) is not sym
        assert np.array_equal(copy.symbols(g).g_sym, sym.g_sym)
        assert p.symbols(g) is sym
        for other in (replace(p, gamma=2 * p.gamma), replace(p, alpha=0.5)):
            assert not np.array_equal(other.symbols(g).g_sym, sym.g_sym)
        assert np.array_equal(replace(p, gamma=2 * p.gamma).symbols(g).g_sym, 2 * sym.g_sym)
        assert p.symbols(Grid(8, 8, TWO_PI, TWO_PI)).g_sym.shape == (8, 5)

    def test_record_after_unrecorded_steps_matches_full_records(self, rng):
        # the decrements of a recording step take the previous level's
        # energies from that state, recorded or not
        for scheme in (Scheme.SAV_BDF, Scheme.ISAV_BDF):
            g, p, state0 = self.setup_loop(rng, scheme)
            states = [step(state0, p)] * 2
            for n in range(4):
                full, rec_full = step_and_record(states[0], p)
                fast = step(states[1], p)
                if n == 3:
                    rec_fast = record_step(fast, p, states[1])
                states = [full, fast]
            assert rec_fast == rec_full and rec_fast.D_bdf is not None


@pytest.mark.slow
class TestAgainstReference:
    def test_isav_bdf_accuracy_matches_reported_value(self, ex1_reference):
        # tau = 0.5/40 on the conserved flow lands within 2x of the
        # reported 3.91e-4
        cfg = ex1_config("isav-bdf", alpha=1.0, tau=0.5 / 40)
        err = h1_error(final_field(cfg), ex1_reference(1.0))
        assert 3.91e-4 / 2 <= err <= 3.91e-4 * 2

    def test_sav_bdf_second_order_at_reported_scale(self, ex1_reference):
        # the carried-scalar variant has no damping term and lands a little
        # below the reported value; check the scale from above plus the order
        errs = [
            h1_error(final_field(ex1_config("sav-bdf", alpha=1.0, tau=0.5 / N)),
                     ex1_reference(1.0))
            for N in (40, 80)
        ]
        assert errs[0] <= 3.91e-4 * 2
        assert 1.9 <= math.log2(errs[0] / errs[1]) <= 2.15


class TestMatchesReferenceStep:
    # step against the slow reference written from its docstring formulas
    # (b on the grid, quadrature inner products, z2 formed): the first
    # step of each scheme (a BE step for the BDF schemes) and a later one,
    # under the double well (ex1) and Flory-Huggins (ex3) on 16^2
    @pytest.mark.parametrize("record", [True, False], ids=["records", "no-records"])
    @pytest.mark.parametrize("later", [False, True], ids=["first-step", "later-step"])
    @pytest.mark.parametrize("example", ["ex1", "ex3"], ids=["double-well", "flory-huggins"])
    @pytest.mark.parametrize("scheme", [s.value for s in Scheme])
    def test_step_matches_reference(self, scheme, example, later, record):
        cfg = config_from_dict({"preset": f"{example}-{scheme}", "grid": {"nx": 16, "ny": 16}})
        grid = cfg.make_grid()
        params = ModelParams(alpha=cfg.model["alpha"], gamma=cfg.model["gamma"], S=cfg.S,
                             tau=cfg.tau, potential=cfg.make_potential())
        state = make_initial_state(scheme, initial_field(cfg.init, grid), params.potential)
        for _ in range(3 if later else 0):
            state = step(state, params)
        assert (state.prev is not None) == (later and "bdf" in scheme)
        want, r_want = reference_step(state, params)
        new = step(state, params)
        if record:  # a record of the new level leaves its field and scalar as they are
            record_step(new, params, state)
        assert np.abs(new.level.phi.values - want).max() <= 1e-12 * np.abs(want).max()
        # a carried scalar can come out near 0 as the difference of terms
        # of the size of r[phi^n] = sqrt(int F(phi^n)), which sets its scale
        r_scale = max(abs(r_want), math.sqrt(bulk_energy(params.potential, state.level.phi)))
        assert abs(new.level.r - r_want) <= 1e-12 * r_scale
