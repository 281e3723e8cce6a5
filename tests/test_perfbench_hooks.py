"""The benchmark's hooks into the package, checked from this suite.

perfbench/ has its own tests, which this suite does not run, so an API
change here could break the benchmark's tracer or its set-up probe with no
test failing. These tests load perfbench/tracing.py by path and run
perfbench/setup_probe.py as the benchmark does, without editing either.
"""

import contextlib
import importlib.util
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from isavflow import DoubleWell, Field, Grid, Scheme
from isavflow.config import config_from_dict
from isavflow.diagnostics import h1_error
from isavflow.harness import run_simulation

from conftest import TWO_PI

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


def small_config(scheme, tmp_path):
    return config_from_dict({
        "preset": f"ex1-{scheme}",
        "grid": {"nx": 8, "ny": 8, "lx": TWO_PI, "ly": TWO_PI},
        "tau": 0.05, "t_end": 0.3,
        "outputs": {"series_path": str(tmp_path / "series.csv"),
                    "snapshot_dir": str(tmp_path / "snaps"),
                    "field_snapshot_times": [0.3]},
    })


def site_functions():
    return [vars(owner)[attr] for owner, attr, _ in tracing.trace_sites()]


def test_every_trace_site_resolves():
    for (owner, attr, name), fn in zip(tracing.trace_sites(), site_functions()):
        assert callable(fn), f"{name}: {owner!r}.{attr} is not callable"


def test_tracer_wraps_a_run_and_restores_the_sites(tmp_path):
    cfg = small_config("isav-bdf", tmp_path)
    before = site_functions()
    with tracing.Tracer() as tracer:
        run_simulation(cfg)
    assert all(a is b for a, b in zip(before, site_functions()))
    counts = tracer.counts()
    # a BDF run's first step is a loop step like the rest
    assert "harness.step_isav_be" not in counts["total"]
    assert counts["steps_in_loop"] == cfg.n_steps()
    assert counts["total"]["harness.write_series_csv"] == 1
    assert counts["total"]["harness.write_snapshot"] == 1
    assert counts["per_step"]["spectral.forward"] == 1.0
    assert counts["per_step"]["spectral.inverse"] == 1.0
    assert counts["per_step"]["schemes.rank_one"] == 1.0
    # every level's record, level 0's included, built by the loop outside the step
    assert counts["total"]["diagnostics.record_step"] == cfg.n_steps() + 1
    assert counts["per_step"]["diagnostics.record_step"] == 0.0


@contextlib.contextmanager
def fused_counted_as_F(tracer):
    """Inside a Tracer: count each fused DoubleWell.f call (F_sum set)
    as one DoubleWell.F call as well, in total and, if the tracer counted
    the f call inside a step, per step."""
    F, f = "potentials.DoubleWell.F", "potentials.DoubleWell.f"
    traced = vars(DoubleWell)["f"]

    def counting(self, phi, out=None, work=None, F_sum=False):
        before = tracer.calls_in_step[f]
        try:
            return traced(self, phi, out, work, F_sum)
        finally:
            if F_sum:
                tracer.calls[F] += 1
                tracer.calls_in_step[F] += tracer.calls_in_step[f] - before

    DoubleWell.f = counting
    try:
        yield
    finally:
        DoubleWell.f = traced


# Bulk-integral evaluations inside the loop's n steps, as (per step,
# offset). A step reuses the integrals an earlier step or record computed,
# and never evaluates F at phi^{n+1}: the record of the new level, built by
# the loop outside the step, does. Every first step is a BE step that takes
# F at phi^0 from the initial state; a later BE step evaluates F at phi^n
# unless that level's record already did. BDF2 always needs F at its
# extrapolant, and isav-bdf without records also at phi^n, which nothing
# before it evaluated.
F_IN_LOOP = {
    ("sav-be", True): (0, 0), ("sav-be", False): (1, -1),
    ("isav-be", True): (0, 0), ("isav-be", False): (1, -1),
    ("sav-bdf", True): (1, -1), ("sav-bdf", False): (1, -1),
    ("isav-bdf", True): (1, -1), ("isav-bdf", False): (2, -2),
}

# All bulk-integral evaluations of the 6-step run, the initial state's
# included; the same as when a BDF run's first step was a separate
# bootstrap step outside the loop.
F_TOTAL = {
    ("sav-be", True): 7, ("sav-be", False): 6,
    ("isav-be", True): 7, ("isav-be", False): 6,
    ("sav-bdf", True): 12, ("sav-bdf", False): 6,
    ("isav-bdf", True): 12, ("isav-bdf", False): 11,
}


@pytest.mark.parametrize("record", [True, False])
@pytest.mark.parametrize("scheme", [s.value for s in Scheme])
def test_bulk_integrals_per_step(scheme, record, tmp_path):
    cfg = small_config(scheme, tmp_path)
    with tracing.Tracer() as tracer, fused_counted_as_F(tracer):
        run_simulation(cfg, write_outputs=False, record=record)
    n = tracer.counts()["steps_in_loop"]
    assert n == cfg.n_steps() == 6
    per, offset = F_IN_LOOP[(scheme, record)]
    assert tracer.calls_in_step["potentials.DoubleWell.F"] == per * n + offset
    assert tracer.calls["potentials.DoubleWell.F"] == F_TOTAL[(scheme, record)]
    assert tracer.per_step("potentials.DoubleWell.f") == 1.0


@pytest.mark.parametrize("scheme", [s.value for s in Scheme])
def test_downsampled_records_add_no_bulk_integrals(scheme, tmp_path):
    # a kept row takes the previous level's energies from the state its
    # step starts from, evaluating each missing bulk integral once, so no
    # record_every evaluates F more often than recording every step does
    base = small_config(scheme, tmp_path)
    calls = []
    for every in (1, 2, 3, 4):
        with tracing.Tracer() as tracer, fused_counted_as_F(tracer):
            run_simulation(replace(base, outputs={**base.outputs, "record_every": every}),
                           write_outputs=False)
        calls.append(tracer.calls["potentials.DoubleWell.F"])
    assert max(calls) == calls[0]


@pytest.mark.parametrize("assert_energy", [False, True])
def test_records_built_only_for_kept_rows(assert_energy, tmp_path):
    # record_every=4 over 6 loop steps keeps the rows of steps 0, 4 and 6;
    # with the energy assertions on, every level's record is built for
    # them to check
    cfg = replace(small_config("isav-be", tmp_path), assert_energy=assert_energy,
                  outputs={"record_every": 4, "series_path": str(tmp_path / "s.csv"),
                           "snapshot_dir": str(tmp_path), "field_snapshot_times": []})
    with tracing.Tracer() as tracer:
        res = run_simulation(cfg)
    n = tracer.counts()["steps_in_loop"]
    assert [r.step for r in res.records] == [0, 4, 6]
    assert tracer.calls["diagnostics.record_step"] == (n if assert_energy else 2) + 1


def test_resample_transforms_are_traced(rng):
    fine, coarse = Grid(16, 16, TWO_PI, TWO_PI), Grid(8, 8, TWO_PI, TWO_PI)
    ref = Field(fine, rng.standard_normal(fine.shape))
    u = Field(coarse, rng.standard_normal(coarse.shape))
    with tracing.Tracer() as tracer:
        h1_error(u, ref)
    # the reference's spectrum, the resampled field, the error's spectrum
    assert tracer.calls["spectral.forward"] == 2
    assert tracer.calls["spectral.inverse"] == 1


def test_setup_probe_reports_setup_time(tmp_path):
    config = tmp_path / "ex1.json"
    config.write_text(json.dumps({"preset": "ex1-isav-bdf"}))
    out = subprocess.run(
        [sys.executable, str(PERFBENCH / "setup_probe.py"), str(ROOT / "src"), str(config)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["setup_s"] > 0.0
    assert Path(result["package"]).resolve() == (ROOT / "src" / "isavflow" / "__init__.py").resolve()
