"""The time step's work arrays: what a step allocates, and that reusing
the run's scratch buffers never leaks into results."""

import tracemalloc

import numpy as np
import pytest

from isavflow import ModelParams, Scheme, make_initial_state, record_step, step
from isavflow.config import config_from_dict, initial_field

from conftest import step_and_record


def prepare(scheme, example="ex1", nx=16, params=None):
    cfg = config_from_dict({"preset": f"{example}-{scheme}", "grid": {"nx": nx, "ny": nx}})
    grid = cfg.make_grid()
    params = params or ModelParams(alpha=cfg.model["alpha"], gamma=cfg.model["gamma"],
                                   S=cfg.S, tau=cfg.tau, potential=cfg.make_potential())
    return make_initial_state(scheme, initial_field(cfg.init, grid), params.potential), params


def advance(state, params, record):
    """One step, and its record when record is set (else None)."""
    new = step(state, params)
    return new, record_step(new, params, state) if record else None


def state_arrays(state):
    out = []
    for field in (state.phi_n, state.phi_nm1):
        if field is not None:
            out += [field.values] + ([field.hat] if field.hat is not None else [])
    return out


class TestAllocationBudget:
    # One isav-be step at 64^2, and its record with records on, after a
    # first one has built the scratch buffers, in real-array equivalents
    # (64*64*8 bytes). The kept arrays are the new field and its spectrum
    # (2.03; measured 2.05-2.07) with records on or off: a record takes
    # mu's dissipation from the two levels in the scratch arrays. The
    # transients above them measure 0.14 with records (the contiguous
    # copies that the quadratic forms' strided vdot makes of two spectrum
    # columns) and 0.03 without.
    REAL = 64 * 64 * 8

    @pytest.mark.parametrize("example", ["ex1", "ex4"])
    @pytest.mark.parametrize("record, kept, transient", [(True, 2.03, 0.3), (False, 2.03, 0.3)])
    def test_step_allocates_only_what_it_returns(self, example, record, kept, transient):
        state, params = prepare("isav-be", example, nx=64)
        state, _ = advance(state, params, record)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            new, _ = advance(state, params, record)
            end, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        net = (end - start) / self.REAL
        assert kept <= net < kept + 0.1
        assert (peak - end) / self.REAL < transient


class TestScratchIsolation:
    @pytest.mark.parametrize("scheme", [s.value for s in Scheme])
    def test_no_scratch_escapes_a_step(self, scheme):
        state, params = prepare(scheme)
        grid = state.phi_n.grid
        ws = params.symbols(grid)
        scratch = ws.real + ws.spec
        # the recording step after two without records takes the previous
        # level's energies from that state, through the scratch buffers
        for record in (True, False, False, True):
            state, rec = advance(state, params, record)
            arrays = state_arrays(state)
            if rec is not None:
                arrays += [v for v in vars(rec).values() if isinstance(v, np.ndarray)]
            assert arrays
            for a in arrays:
                for buf in scratch:
                    assert not np.shares_memory(a, buf)

    def test_shared_symbols_are_safe(self):
        # two schemes stepping in turn on one ModelParams (one set of
        # symbols, one scratch, one solve-factor cache) follow their
        # separate trajectories exactly
        pairs = (("isav-be", "sav-bdf"), ("sav-be", "isav-bdf"))
        for a, b in pairs:
            sa, params = prepare(a)
            sb, _ = prepare(b, params=params)
            alone = []
            for scheme in (a, b):
                s, p = prepare(scheme)
                recs = []
                for _ in range(6):
                    s, rec = step_and_record(s, p)
                    recs.append((s.phi_n.values, rec))
                alone.append(recs)
            for n in range(6):
                sa, ra = step_and_record(sa, params)
                sb, rb = step_and_record(sb, params)
                for (values, rec), (s, r) in zip((alone[0][n], alone[1][n]), ((sa, ra), (sb, rb))):
                    assert np.array_equal(values, s.phi_n.values)
                    assert rec == r
