"""Shared fixtures and helpers for the test suite."""

import os
from collections import deque

# One BLAS thread, set before numpy loads: a thread pool can stall a small
# product for a second on a machine with few cores.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest

from isavflow import Field, Grid, record_step, step
from isavflow.config import config_from_dict
from isavflow.harness import _temporal_reference, levels
from isavflow.spectral import _fold_half, _map_x

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without it
    pass
else:
    # Deterministic and small: the same examples on every run, no per-example
    # deadline (the first example pays for building symbols and scratch).
    settings.register_profile("isavflow", derandomize=True, deadline=None, max_examples=25)
    settings.load_profile("isavflow")

TWO_PI = 2.0 * np.pi


def even_symbol(grid, rng, lo=0.0, hi=1.0):
    """Random per-mode symbol satisfying the evenness contract of real
    diagonal operators (self-conjugate columns symmetric under kx -> -kx)."""
    s = rng.uniform(lo, hi, grid.spectral_shape)
    for col in (0, grid.ny // 2):
        c = s[:, col]
        s[:, col] = 0.5 * (c + np.roll(c[::-1], 1))
    return s


def random_field(grid, rng, scale=1.0):
    return Field(grid, scale * rng.standard_normal(grid.shape))


def fold(hat, src, dst):
    """A half spectrum on grid src folded onto grid dst's, as h1_error folds
    a reference from another grid; for a field that dst resolves, the
    spectrum of its trigonometric interpolant at dst's nodes."""
    return _map_x(_fold_half(hat, dst.ny), dst.nx) * ((dst.nx * dst.ny) / (src.nx * src.ny))


@pytest.fixture
def rng():
    return np.random.default_rng(20240814)


@pytest.fixture
def grid_pi():
    return Grid(16, 16, TWO_PI, TWO_PI)


def step_and_record(state, params):
    """One step and its record, as a run that keeps the new level's row
    builds them: (new, record_step(new, params, state))."""
    new = step(state, params)
    return new, record_step(new, params, state)


def final_state(cfg):
    """The state at t_end of a run without records or outputs."""
    return deque(levels(cfg, record=False), maxlen=1).pop()[0]


def final_field(cfg):
    """phi(t_end) of a run without records or outputs."""
    return final_state(cfg).level.phi


def kept_records(cfg):
    """The records of a run's kept rows, as its series holds them, without
    writing any output."""
    return [rec for _, rec in levels(cfg) if rec is not None]


def ex1_config(scheme, alpha, tau, nx=64, t_end=0.5):
    return config_from_dict({
        "preset": f"ex1-{scheme}",
        "grid": {"nx": nx, "ny": nx, "lx": TWO_PI, "ly": TWO_PI},
        "model": {"alpha": alpha, "gamma": 0.1},
        "tau": tau,
        "t_end": t_end,
    })


def ex2_config(scheme, eps=0.04, tau=0.01, nx=128, t_end=1.0):
    return config_from_dict({
        "preset": f"ex2-{scheme}",
        "grid": {"nx": nx, "ny": nx, "lx": 6.4, "ly": 6.4},
        "potential": {"kind": "double-well", "eps": eps},
        "tau": tau,
        "t_end": t_end,
    })


@pytest.fixture(scope="session")
def ex1_reference():
    """Reference solutions for the smooth-relaxation accuracy studies, one
    per alpha on a 64^2 grid: the reference that a temporal convergence
    study builds for members down to tau = 0.5/160, as accurate as the
    three-level SAV scheme at tau = 1e-5. Cached per session.
    """
    cache = {}

    def get(alpha):
        if alpha not in cache:
            cfg = ex1_config("sav-bdf", alpha, tau=0.5 / 160)
            cache[alpha] = _temporal_reference(cfg, 1e-5, 0.5 / 160)[0]
        return cache[alpha]

    return get
