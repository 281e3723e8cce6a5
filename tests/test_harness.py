"""Configuration loading, presets, CSV/snapshot IO, CLI contract."""

import itertools
import json
import math
import os
import re
import sys
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from isavflow import (ConfigError, Field, Grid, ModelParams, NonPositiveBulkEnergyError, Scheme,
                      SchemeRuntimeError, make_initial_state, record_step, step)
from isavflow import harness
from isavflow.cli import main
from isavflow.config import KNOWN_KEYS, PRESETS, config_from_dict, initial_field, load_config
from isavflow.diagnostics import h1_error
from isavflow.harness import (
    SERIES_COLUMNS,
    _temporal_reference,
    compare_schemes,
    convergence_study,
    levels,
    read_snapshot,
    run_simulation,
    write_snapshot,
)

from conftest import (TWO_PI, ex1_config, final_field, kept_records, random_field,
                      started_runs)


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


MINIMAL = {
    "scheme": "isav-be",
    "grid": {"nx": 8, "ny": 8, "lx": TWO_PI, "ly": TWO_PI},
    "model": {"alpha": 0.0, "gamma": 0.1},
    "potential": {"kind": "double-well", "eps": 1.0},
    "S": 6.0,
    "tau": 0.1,
    "t_end": 0.5,
    "init": {"kind": "ex1"},
}


class TestConfigValidation:
    def test_minimal_fills_defaults(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, MINIMAL))
        assert cfg.potential["c_add"] == 0.0
        assert cfg.outputs["series_path"] == "series.csv"
        assert cfg.outputs["record_every"] == 1
        assert cfg.assert_energy is False

    def test_echo_dump_round_trips(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, MINIMAL))
        dumped = json.dumps(asdict(cfg))
        again = json.dumps(asdict(config_from_dict(json.loads(dumped))))
        assert dumped == again

    def test_alpha_out_of_range(self):
        doc = {**MINIMAL, "model": {"alpha": 2, "gamma": 0.1}}
        with pytest.raises(ConfigError, match=r"model\.alpha"):
            config_from_dict(doc)

    def test_bad_scheme(self):
        with pytest.raises(ConfigError, match="scheme"):
            config_from_dict({**MINIMAL, "scheme": "crank-nicolson"})

    def test_odd_grid(self):
        doc = {**MINIMAL, "grid": {"nx": 9, "ny": 8, "lx": 1.0, "ly": 1.0}}
        with pytest.raises(ConfigError, match=r"grid\.nx"):
            config_from_dict(doc)

    def test_unknown_field(self):
        with pytest.raises(ConfigError, match="unknown field"):
            config_from_dict({**MINIMAL, "tua": 0.1})
        # inside an object too, at its dotted path; per section, not per kind
        for doc, path in [
            ({"preset": "ex1-isav-be", "outputs": {"record_evry": 10}}, "outputs.record_evry"),
            ({"preset": "ex1-isav-be", "init": {"kind": "ex1", "sed": 3}}, "init.sed"),
            ({"preset": "ex3-isav-be", "potential": {"kind": "flory-huggins", "eps": 0.04,
                                                     "betta": 2}}, "potential.betta"),
        ]:
            with pytest.raises(ConfigError, match=rf"^{path}: unknown field$"):
                config_from_dict(doc)

    @pytest.mark.parametrize("path, value, why", [
        ("potential.sigma", 0.5, None),
        ("potential.sigma", math.nextafter(0.5, 1.0), "potential.sigma: must lie in (0, 1/2]"),
        ("model.alpha", 0.0, None),
        ("model.alpha", 5e-324, None),
        ("model.alpha", 1.0, None),
        ("model.alpha", math.nextafter(1.0, 2.0), "model.alpha: must be 0 or in (0, 1]"),
        ("model.alpha", -5e-324, "model.alpha: must be 0 or in (0, 1]"),
        ("model.gamma", 5e-324, None),
        ("model.gamma", 0.0, "model.gamma: must be positive"),
        ("grid.nx", 4, None),
        ("grid.nx", 3, "grid.nx: must be even and in [4, "),
        ("potential.c_add", 0.0, None),
        ("potential.c_add", -5e-324, "potential.c_add: must be nonnegative"),
        ("S", 0.0, None),
        ("S", -5e-324, "S: must be nonnegative"),
        ("init.seed", 0, None),
        ("init.seed", -1, "init.seed: must be a nonnegative integer"),
        ("outputs.record_every", 1, None),
        ("outputs.record_every", 0, "outputs.record_every: must be a positive integer"),
    ])
    def test_rules_at_their_bounds(self, path, value, why):
        # each bound falls on the side its message names
        doc = {"preset": "ex4-isav-be", "grid": {"nx": 8, "ny": 8}, "outputs": {}}
        *obj, key = path.split(".")
        (doc.setdefault(obj[0], {}) if obj else doc)[key] = value
        if why is None:
            config_from_dict(doc)
        else:
            with pytest.raises(ConfigError, match="^" + re.escape(why)):
                config_from_dict(doc)

    def test_nonintegral_step_count(self):
        with pytest.raises(ConfigError, match="t_end"):
            config_from_dict({**MINIMAL, "tau": 0.3, "t_end": 1.0})

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="no such config"):
            load_config("/nonexistent/cfg.json")

    def test_fh_requires_parameters(self):
        doc = {**MINIMAL, "potential": {"kind": "flory-huggins", "eps": 0.04}}
        with pytest.raises(ConfigError, match=r"potential\.beta"):
            config_from_dict(doc)

    @pytest.mark.parametrize("times, bad", [([0.1, 5.0, -1.0], 1), ([-1e-12], 0),
                                            ([0.0, 0.5, 0.5000001], 2)])
    def test_snapshot_times_outside_the_run(self, times, bad):
        doc = {**MINIMAL, "outputs": {"field_snapshot_times": times}}
        with pytest.raises(ConfigError, match=rf"outputs\.field_snapshot_times\[{bad}\]"):
            config_from_dict(doc)

    def test_snapshot_times_at_both_ends_are_kept(self):
        cfg = config_from_dict({**MINIMAL, "outputs": {"field_snapshot_times": [0, 0.5]}})
        assert cfg.outputs["field_snapshot_times"] == [0.0, 0.5]

    @pytest.mark.parametrize("times, bad, why", [
        ([0.1, 0.11], 1, "must be an integer multiple of tau"),
        ([0.05], 0, "must be an integer multiple of tau"),
        ([0.2, 0.1, 0.2], 2, "names step 2, as entry 0 does"),
        ([0.3, 0.30000000000000004], 1, "names step 3, as entry 0 does"),
    ], ids=["between-steps", "half-step", "repeated", "repeated-after-rounding"])
    def test_snapshot_times_off_the_step_grid_or_repeated(self, times, bad, why):
        # tau = 0.1: a time between steps, or a second time for one step,
        # would be snapped or merged into a snapshot nobody asked for
        doc = {**MINIMAL, "outputs": {"field_snapshot_times": times}}
        with pytest.raises(ConfigError, match=rf"outputs\.field_snapshot_times\[{bad}\]: {why}"):
            config_from_dict(doc)

    def test_snapshot_times_on_the_step_grid_in_any_order(self):
        times = [0.5, 0.0, 0.30000000000000004, 0.1]
        cfg = config_from_dict({**MINIMAL, "outputs": {"field_snapshot_times": times}})
        assert cfg.outputs["field_snapshot_times"] == times


SHIPPED_CONFIGS = sorted((Path(__file__).parents[1] / "configs").glob("*.json"))


class TestShippedConfigs:
    """Every config the repository ships, and the README's example, passes
    the current validation, so a new rule cannot silently break one."""

    def test_configs_directory_is_not_empty(self):
        assert SHIPPED_CONFIGS

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
    def test_shipped_config_loads(self, path):
        cfg = load_config(path)
        assert cfg.n_steps() >= 1

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
    def test_shipped_config_runs(self, path, tmp_path):
        cfg = load_config(path)
        assert main(["run", str(path), "--outdir", str(tmp_path)]) == 0
        rows = (tmp_path / cfg.outputs["series_path"]).read_text().splitlines()
        assert len(rows) == 1 + cfg.n_steps() + 1  # the header, then levels 0 to n_steps
        snaps = tmp_path / cfg.outputs["snapshot_dir"]
        written = sorted(p.name for p in snaps.iterdir()) if snaps.exists() else []
        steps = sorted(round(t / cfg.tau) for t in cfg.outputs["field_snapshot_times"])
        assert written == [f"phi_step{n:06d}.txt" for n in steps]

    def test_readme_key_list_matches_the_table(self):
        # the README's sentence on the keys each object accepts lists the
        # config table's keys, object by object, in its order
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        sentence = readme.split("accepts only its own keys (", 1)[1].split(")", 1)[0]
        listed = re.findall(r"`(\w+)`: `([^`]+)`", " ".join(sentence.split()))
        assert [(obj, keys.split()) for obj, keys in listed] == [
            (obj, list(keys)) for obj, keys in KNOWN_KEYS.items() if obj]

    def test_readme_example_validates(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        blocks = [b.split("```", 1)[0] for b in readme.split("```json\n")[1:]]
        assert blocks, "README has no JSON example"
        for block in blocks:
            config_from_dict(json.loads(block))


class TestPresets:
    def test_names(self):
        assert tuple(PRESETS) == ("ex1", "ex2", "ex3", "ex4")

    def test_ex1_with_scheme_suffix(self):
        cfg = config_from_dict({"preset": "ex1-isav-be"})
        assert cfg.scheme == "isav-be"
        assert cfg.potential["eps"] == 1.0
        assert cfg.model["gamma"] == 0.1
        assert cfg.S == 6.0
        assert cfg.grid["lx"] == pytest.approx(TWO_PI)

    def test_ex2_damping_formula(self):
        cfg = config_from_dict({"preset": "ex2-isav-be",
                                "potential": {"kind": "double-well", "eps": 0.1}})
        assert cfg.S == pytest.approx(3.0 / 0.1**2)
        assert cfg.potential["c_add"] == 1.0
        assert cfg.model["alpha"] == 1.0 and cfg.model["gamma"] == 0.01

    def test_ex3_formulas(self):
        cfg = config_from_dict({"preset": "ex3-isav-be"})
        assert cfg.S == pytest.approx(10.0 / 0.04**2)
        assert cfg.potential["c_add"] == pytest.approx(0.06 / 0.04**2)
        assert cfg.potential["beta"] == 3.0 and cfg.potential["sigma"] == 0.01

    def test_paper_preset_token_requires_preset(self):
        with pytest.raises(ConfigError, match="paper-preset"):
            config_from_dict({**MINIMAL, "S": "paper-preset"})

    def test_user_overrides_win(self):
        cfg = config_from_dict({"preset": "ex1-isav-be", "S": 11.0, "tau": 0.1})
        assert cfg.S == 11.0 and cfg.tau == 0.1


class TestInitialConditions:
    def test_ex1_formula(self):
        g = Grid(32, 32, TWO_PI, TWO_PI)
        f = initial_field({"kind": "ex1"}, g)
        X, Y = g.nodes()
        assert np.array_equal(f.values, 1.0 + 0.5 * np.sin(X) * np.sin(Y))

    def test_squares_regions(self):
        g = Grid(64, 64, 6.4, 6.4)
        f = initial_field({"kind": "squares"}, g)
        assert set(np.unique(f.values)) == {-1.0, 1.0}
        X, Y = g.nodes()
        idx = np.argwhere((np.abs(X - 3.2) <= 1.0) & (np.abs(Y - 3.2) <= 1.0))
        assert np.all(f.values[idx[:, 0], idx[:, 1]] == 1.0)
        assert f.values[0, 0] == -1.0

    def test_disks_regions(self):
        g = Grid(64, 64, TWO_PI, TWO_PI)
        f = initial_field({"kind": "disks"}, g)
        assert set(np.unique(f.values)) == {0.3, 0.7}
        X, Y = g.nodes()
        inside = (X - (math.pi - 0.8)) ** 2 + (Y - math.pi) ** 2 <= 1.4**2
        assert np.all(f.values[inside] == 0.7)
        # disk areas: pi*(1.4^2 + 0.5^2) out of (2 pi)^2
        frac = (f.values == 0.7).mean()
        assert frac == pytest.approx(math.pi * (1.4**2 + 0.5**2) / TWO_PI**2, abs=0.01)

    def test_random_is_seeded_and_bounded(self):
        g = Grid(32, 32, TWO_PI, TWO_PI)
        a = initial_field({"kind": "random", "seed": 42}, g)
        b = initial_field({"kind": "random", "seed": 42}, g)
        c = initial_field({"kind": "random", "seed": 43}, g)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)
        assert a.values.min() >= 0.3 and a.values.max() <= 0.7

    def test_file_init_round_trip(self, tmp_path, rng):
        g = Grid(8, 8, 1.0, 1.0)
        f = random_field(g, rng)
        path = tmp_path / "snap.txt"
        write_snapshot(str(path), f, t=0.25)
        loaded = initial_field({"kind": "file", "path": str(path)}, g)
        assert np.array_equal(loaded.values, f.values)

    def test_unknown_kind(self):
        # a validated config names a known kind; a library caller may not
        with pytest.raises(ConfigError, match=r"^init\.kind: unknown kind 'spiral'$"):
            initial_field({"kind": "spiral"}, Grid(8, 8, 1.0, 1.0))

    def test_file_init_grid_mismatch(self, tmp_path, rng):
        g = Grid(8, 8, 1.0, 1.0)
        write_snapshot(str(tmp_path / "snap.txt"), random_field(g, rng), t=0.0)
        other = Grid(16, 16, 1.0, 1.0)
        with pytest.raises(ConfigError, match="does not match"):
            initial_field({"kind": "file", "path": str(tmp_path / "snap.txt")}, other)


class TestSnapshotFormat:
    def test_bit_exact_round_trip(self, tmp_path, rng):
        g = Grid(12, 8, 1.7, 2.9)
        f = random_field(g, rng)
        path = str(tmp_path / "snap.txt")
        write_snapshot(path, f, t=0.123456789)
        loaded, t = read_snapshot(path)
        assert t == 0.123456789
        assert loaded.grid == g
        assert np.array_equal(loaded.values, f.values)
        # writing the loaded field again reproduces the file byte for byte
        path2 = str(tmp_path / "snap2.txt")
        write_snapshot(path2, loaded, t=t)
        assert Path(path).read_text() == Path(path2).read_text()

    EDGE_VALUES = (-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                   0.1, 1.0 / 3.0, 1e16, 2.5e-7)

    def test_bytes_match_per_value_format(self, tmp_path):
        # nx != ny, so a row template sized by nx instead of ny cannot pass;
        # the reference text is the per-value f"{v:.17g}" join, value by value
        g = Grid(12, 8, 1.7, 2.9)
        edge = np.array(self.EDGE_VALUES)
        values = np.concatenate([edge, -edge] * 6).reshape(g.shape)
        path = tmp_path / "snap.txt"
        write_snapshot(str(path), Field(g, values), t=0.25)
        expected = f"{g.nx} {g.ny} {g.lx:.17g} {g.ly:.17g} {0.25:.17g}\n" + "".join(
            " ".join(f"{v:.17g}" for v in row) + "\n" for row in values)
        assert path.read_bytes() == expected.encode()
        loaded, t = read_snapshot(str(path))
        assert t == 0.25
        # tobytes, since array_equal takes -0.0 == 0.0
        assert loaded.values.tobytes() == values.tobytes()


class TestRunSimulation:
    def base(self, tmp_path, **over):
        doc = {**MINIMAL, "outputs": {"series_path": str(tmp_path / "series.csv"),
                                      "snapshot_dir": str(tmp_path / "snaps")}, **over}
        return config_from_dict(doc)

    def test_row_count_includes_t0(self, tmp_path):
        cfg = self.base(tmp_path)
        res = run_simulation(cfg)
        assert len(res.records) == cfg.n_steps() + 1
        assert res.records[0].t == 0.0
        assert res.records[-1].t == pytest.approx(cfg.t_end)

    def test_csv_schema(self, tmp_path):
        cfg = self.base(tmp_path)
        res = run_simulation(cfg)
        lines = Path(res.series_path).read_text().splitlines()
        assert lines[0] == ",".join(SERIES_COLUMNS)
        assert len(lines) == len(res.records) + 1
        first = lines[1].split(",")
        assert first[0] == "0"
        assert "," in lines[1] and "." in first[2]

    def test_deterministic_series_bytes(self, tmp_path):
        doc = {
            "preset": "ex4-isav-be",
            "grid": {"nx": 32, "ny": 32, "lx": TWO_PI, "ly": TWO_PI},
            "tau": 0.01, "t_end": 0.05,
            "init": {"kind": "random", "seed": 7},
        }
        out = []
        for name in ("a.csv", "b.csv"):
            cfg = config_from_dict({**doc, "outputs": {"series_path": str(tmp_path / name)}})
            res = run_simulation(cfg)
            out.append(Path(res.series_path).read_bytes())
        assert out[0] == out[1]

    def test_snapshots_written_at_requested_times(self, tmp_path):
        cfg = self.base(tmp_path, outputs={
            "series_path": str(tmp_path / "s.csv"),
            "snapshot_dir": str(tmp_path / "snaps"),
            "field_snapshot_times": [0.0, 0.2, 0.5],
        })
        res = run_simulation(cfg)
        assert len(res.snapshot_paths) == 3
        f, t = read_snapshot(res.snapshot_paths[1])
        assert t == pytest.approx(0.2)
        assert f.grid.nx == 8

    def test_record_downsampling(self, tmp_path):
        cfg = self.base(tmp_path, outputs={
            "series_path": str(tmp_path / "s.csv"), "record_every": 2})
        res = run_simulation(cfg)
        steps = [r.step for r in res.records]
        assert steps == [0, 2, 4, 5] or steps == [0, 2, 4]

    @pytest.mark.parametrize("scheme", [s.value for s in Scheme])
    def test_records_never_change_the_trajectory(self, scheme):
        # records only add diagnostics: every level that levels yields has
        # the field and scalar bits of a bare loop of steps, with records
        # off, kept every 1 or 3 levels, or built at every level for the
        # energy-law assertions
        base = ex1_config(scheme, alpha=1.0, tau=0.01, nx=16, t_end=0.3)
        grid = base.make_grid()
        params = ModelParams(alpha=1.0, gamma=base.model["gamma"], S=base.S,
                             tau=base.tau, potential=base.make_potential())
        state = make_initial_state(scheme, initial_field(base.init, grid), params.potential)
        bits = [(state.level.phi.values.tobytes(), state.level.r.hex())]
        for _ in range(base.n_steps()):
            state = step(state, params)
            bits.append((state.level.phi.values.tobytes(), state.level.r.hex()))
        runs = [levels(base, record=False), levels(replace(base, assert_energy=True))] + [
            levels(replace(base, outputs={**base.outputs, "record_every": every}))
            for every in (1, 3)
        ]
        for run in runs:
            assert [(st.level.phi.values.tobytes(), st.level.r.hex()) for st, _ in run] == bits

    @pytest.mark.parametrize("scheme", [s.value for s in Scheme])
    def test_downsampled_rows_match_full_records(self, scheme):
        # levels whose row is dropped build no record, yet every kept row,
        # decrements included, equals that of a run recording every step
        base = ex1_config(scheme, alpha=1.0, tau=0.01, nx=16, t_end=0.3)
        full = {r.step: r for r in kept_records(base)}
        for every in (2, 7):
            cfg = replace(base, outputs={**base.outputs, "record_every": every})
            rows = kept_records(cfg)
            assert len(rows) < len(full)
            assert rows[-1].D_be is not None
            for row in rows:
                assert row == full[row.step]

    @pytest.mark.parametrize("every", [1, 3])
    @pytest.mark.parametrize("scheme", [s.value for s in Scheme])
    def test_one_record_per_kept_row(self, scheme, every, monkeypatch):
        # record_step is bound in schemes (a trace-site alias, called by
        # nothing) and in harness (the run loop); across both it runs once
        # per row, and BE and BDF runs keep the same levels
        from isavflow import harness, schemes

        calls = []
        for module in (harness, schemes):
            def counted(*args, _real=module.record_step, **kwargs):
                calls.append(args[0].step_index)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, "record_step", counted)
        base = ex1_config(scheme, alpha=1.0, tau=0.05, nx=16, t_end=0.5)
        cfg = replace(base, outputs={**base.outputs, "record_every": every})
        rows = kept_records(cfg)
        n_total = cfg.n_steps()
        kept = [n for n in range(n_total + 1) if n % every == 0 or n == n_total]
        assert [r.step for r in rows] == kept
        assert sorted(calls) == kept

    def test_readme_library_loop_matches_levels(self, monkeypatch):
        # the README's loop, run verbatim but for its scheme and with
        # record_step wrapped to keep its records, gives exactly the rows
        # and the final field of the ex2 preset run (S > 0) for each of the
        # four schemes
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        code = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        assert code.count("scheme = Scheme.ISAV_BE\n") == 1
        import isavflow

        records = []

        def kept_record(*args, **kwargs):
            rec = record_step(*args, **kwargs)
            records.append(rec)
            return rec

        monkeypatch.setattr(isavflow, "record_step", kept_record)
        for scheme in [s.value for s in Scheme]:
            records.clear()
            namespace = {}
            exec(code.replace("scheme = Scheme.ISAV_BE\n", f"scheme = Scheme({scheme!r})\n"),
                 namespace)
            kept = []
            for final, rec in levels(config_from_dict({"preset": f"ex2-{scheme}"})):
                kept.append(rec)
            assert final.scheme == scheme
            assert len(records) == 100
            assert records == kept[1:], scheme
            assert np.array_equal(namespace["state"].level.phi.values, final.level.phi.values)

    def test_levels_sets_the_run_up_in_the_call(self):
        # tau*gamma*|k|^2 overflows on the grid: the call raises, before
        # any level is drawn
        cfg = config_from_dict({"preset": "ex1-isav-be", "grid": {"nx": 8, "ny": 8},
                                "model": {"gamma": 1e308}})
        with pytest.raises(ConfigError, match="^the solve factors overflow"):
            levels(cfg)

    def test_runtime_failure_reports_step_and_writes_partial(self, tmp_path):
        # zero damping on a stiff well with assertions on trips quickly
        doc = {
            "preset": "ex2-isav-be",
            "grid": {"nx": 32, "ny": 32, "lx": 6.4, "ly": 6.4},
            "potential": {"kind": "double-well", "eps": 0.01},
            "S": 0.0, "tau": 0.01, "t_end": 1.0,
            "assert_energy": True,
            "outputs": {"series_path": str(tmp_path / "s.csv")},
        }
        cfg = config_from_dict(doc)
        with pytest.raises(SchemeRuntimeError) as info:
            run_simulation(cfg)
        exc = info.value
        assert exc.step_index >= 1
        assert (exc.t, exc.scheme) == (exc.step_index * 0.01, "isav-be")
        assert -1.5 < exc.phi_min < exc.phi_max < 1.5
        assert os.path.exists(tmp_path / "s.csv")

    def test_any_interrupt_after_t0_writes_the_kept_rows(self, tmp_path, monkeypatch):
        interrupt, real_step = KeyboardInterrupt(), harness.step

        def step_until_3(state, params):
            if state.step_index + 1 == 3:
                raise interrupt
            return real_step(state, params)

        monkeypatch.setattr(harness, "step", step_until_3)
        cfg = self.base(tmp_path)
        with pytest.raises(KeyboardInterrupt) as info:
            run_simulation(cfg)
        assert info.value is interrupt
        lines = (tmp_path / "series.csv").read_text().splitlines()
        assert lines[0] == ",".join(SERIES_COLUMNS)
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2"]

    def test_failures_carry_the_error_as_their_cause(self, tmp_path, monkeypatch):
        # the failing call's exception is the __cause__; no other attribute holds it
        failure, disk_full = NonPositiveBulkEnergyError("at phi*"), OSError(28, "disk full")

        def raising(exc):
            def call(*args, **kwargs):
                raise exc
            return call

        monkeypatch.setattr(harness, "step", raising(failure))
        with pytest.raises(SchemeRuntimeError) as info:
            run_simulation(self.base(tmp_path))
        assert info.value.__cause__ is failure and not hasattr(info.value, "cause")
        monkeypatch.setattr(harness, "write_snapshot", raising(disk_full))
        with pytest.raises(harness.OutputWriteError) as info:
            run_simulation(self.base(tmp_path, outputs={
                "series_path": str(tmp_path / "s.csv"), "snapshot_dir": str(tmp_path / "snaps"),
                "field_snapshot_times": [0.0]}))
        assert info.value.__cause__ is disk_full and not hasattr(info.value, "cause")

    def test_a_series_unwritable_after_a_scheme_failure_keeps_the_failure_as_context(
            self, tmp_path, monkeypatch):
        # the scheme fails at step 1 and the partial series then cannot be
        # written: the output error is raised, caused by the OSError, with
        # the scheme failure as its context
        failure, disk_full = NonPositiveBulkEnergyError("at phi*"), OSError(28, "disk full")

        def failing_step(state, params):
            raise failure

        def full_disk(path, rows, columns):
            raise disk_full

        monkeypatch.setattr(harness, "step", failing_step)
        monkeypatch.setattr(harness, "write_series_csv", full_disk)
        with pytest.raises(harness.OutputWriteError) as info:
            run_simulation(self.base(tmp_path))
        assert info.value.__cause__ is disk_full
        assert isinstance(info.value.__context__, SchemeRuntimeError)
        assert info.value.__context__.__cause__ is failure

    def test_outdir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ISAVFLOW_OUTDIR", str(tmp_path / "redirected"))
        cfg = config_from_dict({**MINIMAL, "t_end": 0.2})
        res = run_simulation(cfg)
        assert str(tmp_path / "redirected") in res.series_path
        assert os.path.exists(res.series_path)


class TestCompare:
    def pair(self, **over):
        base = {
            "preset": "ex1-sav-be",
            "grid": {"nx": 16, "ny": 16, "lx": TWO_PI, "ly": TWO_PI},
            "tau": 0.05, "t_end": 0.25, "S": 6.0, **over,
        }
        a = config_from_dict(base)
        b = config_from_dict({**base, "scheme": "isav-be"})
        return a, b

    def test_merged_series(self, tmp_path):
        a, b = self.pair()
        out = str(tmp_path / "cmp.csv")
        rows = compare_schemes(a, b, out_path=out)
        assert len(rows) == 6
        header = Path(out).read_text().splitlines()[0].split(",")
        assert "E_orig_sav_be" in header and "E_orig_isav_be" in header
        assert header[0] == "step" and header[1] == "t"

    def test_rejects_same_scheme(self):
        a, _ = self.pair()
        with pytest.raises(ConfigError, match="same scheme"):
            compare_schemes(a, a)

    def test_rejects_mismatched_tau(self):
        a, b = self.pair()
        b2 = config_from_dict({**json_roundtrip(b), "tau": 0.025})
        with pytest.raises(ConfigError, match="they differ in tau$"):
            compare_schemes(a, b2)

    def test_rejects_other_differences(self):
        a, b = self.pair()
        b2 = config_from_dict({**json_roundtrip(b), "S": 7.0})
        with pytest.raises(ConfigError, match="identical apart from the scheme and their "
                                              "output paths; they differ in S$"):
            compare_schemes(a, b2)

    def test_output_paths_may_differ(self):
        # the scheme, the series path and the snapshot times are a run's
        # own; the table is the same as for two configs without them
        a, b = self.pair()
        doc_b = json_roundtrip(b)
        b2 = config_from_dict({**doc_b, "outputs": {
            **doc_b["outputs"], "series_path": "b.csv", "field_snapshot_times": [0.1]}})
        assert compare_schemes(a, b2) == compare_schemes(a, b)

    def test_rejects_mismatched_record_every(self, tmp_path, capsys):
        # rows are paired by position, so both runs must keep the same levels
        a, b = self.pair()
        doc_b = json_roundtrip(b)
        b5 = config_from_dict({**doc_b, "outputs": {**doc_b["outputs"], "record_every": 5}})
        with pytest.raises(ConfigError, match="they differ in outputs.record_every$"):
            compare_schemes(a, b5)
        pa = write_cfg(tmp_path, json_roundtrip(a), "a.json")
        pb = write_cfg(tmp_path, json_roundtrip(b5), "b.json")
        assert main(["compare", pa, pb, "--out", str(tmp_path / "cmp.csv")]) == 2
        assert "record_every" in capsys.readouterr().err


def json_roundtrip(cfg):
    return json.loads(json.dumps(asdict(cfg)))


@pytest.fixture
def level_runs(monkeypatch):
    return started_runs(monkeypatch)


def combination(fields, weights, div):
    """sum(w u)/div over the fields u and their weights w, in values and in spectra."""
    return Field(fields[0].grid, sum(w * u.values for w, u in zip(weights, fields)) / div,
                 sum(w * u.spectrum() for w, u in zip(weights, fields)) / div)


def richardson_estimates(u, k):
    """The estimated errors at the k-th run of a reference ladder, u being
    its runs from the coarsest: R1's, ||R1(h) - R1(2h)||/7 = ||4 u(h) -
    5 u(2h) + u(4h)||/21, and from the fourth run on R2's, ||R2(h) -
    R2(2h)||/15 = ||32 u(h) - 44 u(2h) + 13 u(4h) - u(8h)||/315."""
    runs, zero = u[k::-1], Field(u[k].grid, np.zeros(u[k].grid.shape))
    columns = [((4, -5, 1), 21), ((32, -44, 13, -1), 315)][:k - 1]
    return [h1_error(combination(runs, w, div), zero) for w, div in columns]


class TestConvergenceDriver:
    def test_requires_exactly_one_sweep(self):
        cfg = config_from_dict({"preset": "ex1-isav-be", "tau": 0.05,
                                "grid": {"nx": 16, "ny": 16, "lx": TWO_PI, "ly": TWO_PI}})
        with pytest.raises(ConfigError, match="exactly one"):
            convergence_study(cfg)
        with pytest.raises(ConfigError, match="exactly one"):
            convergence_study(cfg, taus=[0.1], grids=[8])

    def test_spatial_rows_and_csv(self, tmp_path):
        cfg = config_from_dict({"preset": "ex1-isav-be", "tau": 0.01, "t_end": 0.05,
                                "grid": {"nx": 16, "ny": 16, "lx": TWO_PI, "ly": TWO_PI}})
        out = str(tmp_path / "table.csv")
        rows, reference = convergence_study(cfg, grids=[4, 8], ref_grid_n=32, out_path=out)
        assert reference is None
        assert [r["resolution"] for r in rows] == [4, 8]
        assert rows[0]["order"] is None and rows[1]["order"] is not None
        assert rows[1]["h1_error"] < rows[0]["h1_error"]
        assert Path(out).read_text().splitlines()[0] == "resolution,h1_error,order"

    def test_temporal_mode_first_order(self):
        cfg = config_from_dict({"preset": "ex1-isav-be", "tau": 0.01, "t_end": 0.1,
                                "grid": {"nx": 16, "ny": 16, "lx": TWO_PI, "ly": TWO_PI}})
        rows, _ = convergence_study(cfg, taus=[0.1 / 10, 0.1 / 20, 0.1 / 40], ref_tau=1e-4)
        assert [r["resolution"] for r in rows] == [10, 20, 40]
        for r in rows[1:]:
            assert 0.8 <= r["order"] <= 1.2

    def test_spatial_mode_runs_the_reference_and_each_member_once(self, level_runs):
        # the reference is one run of the same scheme and step on the finer
        # grid, and the errors are the H1 distances of the members' final
        # fields to its final field, bit for bit
        cfg = config_from_dict({"preset": "ex1-isav-be", "tau": 0.01, "t_end": 0.05,
                                "grid": {"nx": 16, "ny": 16, "lx": TWO_PI, "ly": TWO_PI}})
        rows, reference = convergence_study(cfg, grids=[4, 8], ref_grid_n=32)
        assert reference is None
        assert level_runs == [("isav-be", 0.01, n) for n in (32, 4, 8)]

        def on_grid(n):
            return final_field(replace(cfg, grid={**cfg.grid, "nx": n, "ny": n}))

        ref = on_grid(32)
        assert [r["h1_error"] for r in rows] == [h1_error(on_grid(n), ref) for n in (4, 8)]

    @pytest.mark.parametrize("alpha, h", [(0.0, 0.01), (1.0, 0.005)])
    def test_reference_is_as_accurate_as_sav_bdf_at_ref_tau(self, alpha, h):
        # ex1 on 16^2 with members down to 0.02, ten steps: the ladder starts
        # at 0.04 and the reference extrapolates sav-bdf runs down to h, ten
        # or five times ref_tau, and is nearer the solution than the plain
        # run at ref_tau; a run at tau has the estimated error
        # ||u(tau) - u(2 tau)||/3
        cfg = ex1_config("sav-bdf", alpha, tau=0.02, nx=16, t_end=0.2)
        ref, ref_h, est = _temporal_reference(cfg, 1e-3, 0.02)
        assert ref_h == h

        def plain(tau):
            return final_field(replace(cfg, tau=tau))

        u_r = plain(1e-3)
        bound = h1_error(u_r, plain(2e-3)) / 3
        assert est <= bound
        # each within its estimated error of the solution, so within twice
        # u(ref_tau)'s of each other
        assert h1_error(ref, u_r) <= 2 * bound
        # against R1 of runs at ref_tau/8 and ref_tau/4, far nearer the solution
        solution = combination([plain(1e-3 / 8), plain(1e-3 / 4)], (4, -1), 3)
        assert h1_error(ref, solution) <= h1_error(u_r, solution)

    @pytest.mark.parametrize("t_end, top, n_runs", [(0.08, 0.04, 6), (0.1, 0.02, 5),
                                                    (0.05, 0.01, 4)],
                             ids=["4f", "2f", "f"])
    def test_reference_stops_at_the_first_step_that_meets_its_criterion(self, level_runs, t_end,
                                                                        top, n_runs):
        # the reference's ladder starts at 4, 2 or 1 times the member's step,
        # the largest that divides t_end (8, 10 and 5 member steps), and
        # halves h, one new sav-bdf run per pass, until the smaller of R1's
        # and R2's estimated errors is no larger than that of a sav-bdf run
        # at ref_tau; then the member runs
        cfg = ex1_config("isav-bdf", 1.0, tau=0.01, nx=16, t_end=t_end)
        _, (h, est) = convergence_study(cfg, taus=[0.01], ref_tau=1e-4)
        taus = [top / 2**k for k in range(n_runs)]
        assert level_runs == [("sav-bdf", tau, 16) for tau in taus] + [("isav-bdf", 0.01, 16)]
        u = [final_field(replace(cfg, scheme="sav-bdf", tau=tau)) for tau in taus]

        def criterion(k):  # a sav-bdf run's estimated error at ref_tau, from h = taus[k]
            return (1e-4 / taus[k]) ** 2 * h1_error(u[k], u[k - 1]) / 3

        met = [min(richardson_estimates(u, k)) <= criterion(k) for k in range(2, n_runs)]
        assert met == [False] * (n_runs - 3) + [True]
        assert (h, est) == (taus[-1], min(richardson_estimates(u, n_runs - 1)))
        # R1 alone would meet it one run later: no run comes after the one
        # at which a ladder with R1 only stops
        taus.append(taus[-1] / 2)
        u.append(final_field(replace(cfg, scheme="sav-bdf", tau=taus[-1])))
        assert [richardson_estimates(u, k)[0] <= criterion(k) for k in range(2, n_runs + 1)] == (
            [False] * (n_runs - 2) + [True])

    @pytest.mark.parametrize("ref_tau, n_runs", [(0.05, 3), (0.01, 3), (0.01 / 16, 6)],
                             ids=["above-the-ladder", "member-step", "a-sixteenth"])
    def test_reference_steps_no_finer_than_ref_tau(self, level_runs, monkeypatch, ref_tau,
                                                   n_runs):
        # a table whose estimated errors are 1e100 times too large never
        # meets the criterion: the loop stops once h <= ref_tau, and not
        # before the third run, from which R1 is estimated; the ladder starts
        # at 0.02, twice the member's step, which divides t_end
        monkeypatch.setattr(harness, "RICHARDSON_COLUMNS", [
            (weights, div, diff, 1e-100 * est_div)
            for weights, div, diff, est_div in harness.RICHARDSON_COLUMNS])
        cfg = config_from_dict({"preset": "ex1-isav-be", "t_end": 0.1,
                                "grid": {"nx": 8, "ny": 8, "lx": TWO_PI, "ly": TWO_PI}})
        _, (h, est) = convergence_study(cfg, taus=[0.01], ref_tau=ref_tau)
        taus = [0.02 / 2**k for k in range(n_runs)]
        assert h == taus[-1] <= ref_tau and est > 1e50
        assert level_runs == [("sav-bdf", tau, 8) for tau in taus] + [("isav-be", 0.01, 8)]

    def test_tau_divisibility_matches_config_rule(self):
        # one rule for config taus and sweep members: 4 ulp of the step count
        doc = {"preset": "ex1-isav-be", "tau": 0.01, "t_end": 0.04,
               "grid": {"nx": 8, "ny": 8, "lx": TWO_PI, "ly": TWO_PI}}
        cfg = config_from_dict(doc)
        near = 0.01 * (1 + 1e-10)
        with pytest.raises(ConfigError, match="multiple of tau"):
            convergence_study(cfg, taus=[near], ref_tau=1e-5)
        with pytest.raises(ConfigError, match="t_end"):
            config_from_dict({**doc, "tau": near})

    def test_temporal_mode_validates_ref_alignment(self):
        cfg = config_from_dict({"preset": "ex1-isav-be", "tau": 0.01, "t_end": 0.1,
                                "grid": {"nx": 16, "ny": 16, "lx": TWO_PI, "ly": TWO_PI}})
        with pytest.raises(ConfigError, match="ref_tau"):
            convergence_study(cfg, taus=[0.01], ref_tau=3e-4)
        with pytest.raises(ConfigError, match="multiple of tau"):
            convergence_study(cfg, taus=[0.03], ref_tau=1e-4)


@pytest.fixture(scope="module")
def be_pair_rows():
    base = {
        "grid": {"nx": 128, "ny": 128, "lx": 6.4, "ly": 6.4},
        "tau": 0.001, "t_end": 1.0,
    }
    a = config_from_dict({"preset": "ex2-sav-be", **base})
    b = config_from_dict({"preset": "ex2-isav-be", **base})
    return compare_schemes(a, b)


@pytest.mark.slow
class TestComparisonStudies:
    """Side-by-side claims about the scheme pairs on the two-squares data."""

    def test_be_pair_decrement_signs(self, be_pair_rows):
        isav_d = [r["D_be_isav_be"] for r in be_pair_rows if r["D_be_isav_be"] is not None]
        sav_d = [r["D_be_sav_be"] for r in be_pair_rows if r["D_be_sav_be"] is not None]
        e = [r["E_orig_isav_be"] for r in be_pair_rows]
        assert all(d <= 1e-10 * (1 + abs(en)) for d, en in zip(isav_d, e))
        assert max(sav_d) > 0.0

    def test_drift_much_smaller_for_improved(self, be_pair_rows):
        # compare past the first instants: the carried scalar locks in the
        # sharp-data shock permanently, the reconstructed one forgets it
        body = [r for r in be_pair_rows if r["t"] >= 0.01]
        sav = max(abs(r["r_drift_sav_be"]) for r in body)
        isav = max(abs(r["r_drift_isav_be"]) for r in body)
        assert sav >= 10.0 * isav

    def test_bdf_pair_decrement_at_production_resolution(self):
        # the three-level improved scheme keeps its modified-energy decrement
        # nonpositive on the 256^2 grid the experiment was designed for
        base = {
            "grid": {"nx": 256, "ny": 256, "lx": 6.4, "ly": 6.4},
            "tau": 0.001, "t_end": 0.5,
        }
        a = config_from_dict({"preset": "ex2-sav-bdf", **base})
        b = config_from_dict({"preset": "ex2-isav-bdf", **base})
        rows = compare_schemes(a, b)
        for r in rows:
            d = r["D_bdf_isav_bdf"]
            if d is not None:
                assert d <= 1e-10 * (1 + abs(r["E2_isav_bdf"]))


class TestCli:
    def test_presets_list(self, capsys):
        assert main(["presets", "list"]) == 0
        out = capsys.readouterr().out
        assert "ex1" in out and "ex4" in out

    def test_run_ok(self, tmp_path, capsys):
        path = write_cfg(tmp_path, {**MINIMAL, "t_end": 0.2,
                                    "outputs": {"series_path": str(tmp_path / "s.csv")}})
        assert main(["run", path]) == 0
        assert os.path.exists(tmp_path / "s.csv")

    def test_config_error_exit_code(self, tmp_path):
        path = write_cfg(tmp_path, {**MINIMAL, "scheme": "bogus"})
        assert main(["run", path]) == 2

    def test_snapshot_time_outside_the_run_exit_code(self, tmp_path, capsys):
        path = write_cfg(tmp_path, {**MINIMAL, "outputs": {
            "series_path": str(tmp_path / "s.csv"), "snapshot_dir": str(tmp_path / "snaps"),
            "field_snapshot_times": [0.1, 5.0, -1.0]}})
        assert main(["run", path]) == 2
        assert "outputs.field_snapshot_times[1]" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "snaps")

    def test_snapshot_time_off_the_step_grid_exit_code(self, tmp_path, capsys):
        path = write_cfg(tmp_path, {"preset": "ex1-isav-be", "tau": 0.05, "t_end": 0.15,
                                    "grid": {"nx": 8, "ny": 8}, "outputs": {
            "series_path": str(tmp_path / "s.csv"), "snapshot_dir": str(tmp_path / "snaps"),
            "field_snapshot_times": [0.1, 0.11, 0.124]}})
        assert main(["run", path]) == 2
        assert "outputs.field_snapshot_times[1]" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "snaps")

    def test_invalid_json_exit_code(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == 2

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        doc = {
            "preset": "ex2-isav-be",
            "grid": {"nx": 32, "ny": 32, "lx": 6.4, "ly": 6.4},
            "potential": {"kind": "double-well", "eps": 0.01},
            "S": 0.0, "tau": 0.01, "t_end": 1.0, "assert_energy": True,
            "outputs": {"series_path": str(tmp_path / "s.csv")},
        }
        path = write_cfg(tmp_path, doc)
        assert main(["run", path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("runtime error: scheme failed at step ")
        # the failing step's time and the range of the last good level,
        # whose row is the last one the partial series holds
        step_index = int(err.split("at step ")[1].split(":")[0])
        last = (tmp_path / "s.csv").read_text().splitlines()[-1].split(",")
        assert int(last[0]) == step_index - 1
        assert err.rstrip().endswith(f"; t={step_index * 0.01}, scheme isav-be, "
                                     f"last good level in [{last[-2]}, {last[-1]}]")

    def test_level_0_failure_exit_code(self, tmp_path, capsys):
        # the bulk integral of the squares start is 0 without c_add: a scheme
        # failure at step 0, with no last good level and no series written
        series = tmp_path / "s.csv"
        path = write_cfg(tmp_path, {"preset": "ex2-isav-be", "grid": {"nx": 16, "ny": 16},
                                    "potential": {"c_add": 0.0}, "t_end": 0.05,
                                    "outputs": {"series_path": str(series)}})
        assert main(["run", path]) == 3
        assert capsys.readouterr().err == (
            "runtime error: scheme failed at step 0: integrated bulk energy is 0.0; add a "
            "constant to the potential; t=0.0, scheme isav-be\n")
        assert not series.exists()

    def test_non_finite_field_exit_code(self, tmp_path, capsys):
        # a +-1e80 start overflows the bulk energy and the first step's
        # field turns non-finite: a scheme failure at step 1 with the
        # t=0 row already written; for the BDF schemes step 1 is their
        # backward-Euler first step
        g = Grid(8, 8, TWO_PI, TWO_PI)
        checker = np.indices(g.shape).sum(axis=0) % 2
        snap = str(tmp_path / "snap.txt")
        write_snapshot(snap, Field(g, np.where(checker == 0, 1e80, -1e80)), t=0.0)
        for scheme in ("isav-be", "sav-bdf", "isav-bdf"):
            series = tmp_path / f"{scheme}.csv"
            path = write_cfg(tmp_path, {
                "preset": f"ex1-{scheme}", "grid": {"nx": 8, "ny": 8},
                "init": {"kind": "file", "path": snap},
                "outputs": {"series_path": str(series)},
            })
            with np.errstate(all="ignore"):
                assert main(["run", path]) == 3, scheme
            err = capsys.readouterr().err
            assert "step 1:" in err, scheme
            assert f"; t=0.05, scheme {scheme}, last good level in [-1e+80, 1e+80]" in err, scheme
            lines = series.read_text().splitlines()
            assert len(lines) == 2 and lines[1].startswith("0,"), scheme

    def test_non_finite_snapshot_is_a_config_error(self, tmp_path):
        snap = tmp_path / "snap.txt"
        snap.write_text("4 4 1 1 0\n" + "nan 0 0 0\n" + "0 0 0 0\n" * 3)
        path = write_cfg(tmp_path, {
            "preset": "ex1-isav-be", "grid": {"nx": 4, "ny": 4, "lx": 1.0, "ly": 1.0},
            "init": {"kind": "file", "path": str(snap)},
            "outputs": {"series_path": str(tmp_path / "s.csv")},
        })
        assert main(["run", path]) == 2

    SNAP_HEAD = "{} 8 6.283185307179586 6.283185307179586 0\n"
    SNAP_ROW = " ".join(["0.5"] * 8) + "\n"

    @pytest.mark.parametrize("body", [
        None,
        "",
        SNAP_HEAD.format(8) + SNAP_ROW * 4,
        SNAP_HEAD.format(7) + SNAP_ROW * 7,
    ], ids=["missing", "empty", "short-body", "odd-nx"])
    def test_malformed_snapshot_is_a_config_error(self, tmp_path, capsys, body):
        snap = tmp_path / "snap.txt"
        if body is not None:
            snap.write_text(body)
        path = write_cfg(tmp_path, {
            "preset": "ex1-isav-be", "grid": {"nx": 8, "ny": 8},
            "init": {"kind": "file", "path": str(snap)},
            "outputs": {"series_path": str(tmp_path / "s.csv")},
        })
        assert main(["run", path]) == 2
        assert "init.path: " in capsys.readouterr().err

    def test_converge_cli(self, tmp_path, capsys):
        path = write_cfg(tmp_path, {
            "preset": "ex1-isav-be", "tau": 0.01, "t_end": 0.05,
            "grid": {"nx": 16, "ny": 16, "lx": TWO_PI, "ly": TWO_PI},
        })
        out = str(tmp_path / "table.csv")
        assert main(["converge", path, "--grids", "4,8", "--ref-nx", "32", "--out", out]) == 0
        assert os.path.exists(out)
        assert "reference" not in capsys.readouterr().out

    def test_converge_reports_its_reference(self, tmp_path, capsys):
        # one stdout line with the temporal reference's step and estimated
        # error; the table's columns are unchanged
        doc = {"preset": "ex1-isav-be", "t_end": 0.1,
               "grid": {"nx": 8, "ny": 8, "lx": TWO_PI, "ly": TWO_PI}}
        out = tmp_path / "t.csv"
        assert main(["converge", write_cfg(tmp_path, doc), "--taus", "0.01", "--ref-tau", "0.01",
                     "--out", str(out)]) == 0
        _, h, est = _temporal_reference(config_from_dict(doc), 0.01, 0.01)
        printed = capsys.readouterr()
        assert f"reference: Richardson h={h!r}, estimated H1 error {est:.6e}\n" in printed.out
        assert printed.err == ""
        assert out.read_text().splitlines()[0] == "resolution,h1_error,order"

    def test_converge_warns_when_its_reference_is_not_far_more_accurate(self, tmp_path, capsys):
        # the sharp ex2 interfaces at the member's step: the reference
        # extrapolates runs from four times it down to it, and its estimated
        # error is not below 1e-2 of the member's, which stderr says
        doc = {"preset": "ex2-sav-bdf", "t_end": 0.04,
               "grid": {"nx": 16, "ny": 16, "lx": 6.4, "ly": 6.4}}
        args = ["--taus", "0.01", "--ref-tau", "0.01", "--out", str(tmp_path / "t.csv")]
        assert main(["converge", write_cfg(tmp_path, doc), *args]) == 0
        printed = capsys.readouterr()
        assert "reference: Richardson h=0.01, estimated H1 error " in printed.out
        assert printed.err.startswith("warning: the reference's estimated H1 error ")
        assert "is not below 1e-2 of the finest member's " in printed.err

    def test_converge_has_no_order_next_to_a_zero_error(self, tmp_path, capsys):
        # the 16^2 member runs exactly as the 16^2 reference does and carries
        # the same spectrum: its error is 0; the 8^2 and 32^2 members fold
        # the reference down and up
        path = write_cfg(tmp_path, {"preset": "ex1-isav-be", "t_end": 0.1})
        out = tmp_path / "t.csv"
        args = ["--grids", "8,16,32", "--ref-nx", "16", "--out", str(out)]
        assert main(["converge", path, *args]) == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        assert [(r[0], r[2]) for r in rows] == [("8", ""), ("16", ""), ("32", "")]
        errors = [float(r[1]) for r in rows]
        assert errors[1] == 0.0 and errors[0] > 0.0 and errors[2] > 0.0

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("scheme, doc", [
        ("isav-be", {"model": {"alpha": 0.0, "gamma": 1e308}}),
        ("isav-be", {"model": {"alpha": 1.0, "gamma": 1e308}}),
        ("isav-bdf", {"model": {"alpha": 0.0, "gamma": 7e307}}),
        ("isav-be", {"model": {"alpha": 0.0, "gamma": 10.0}, "S": 1e308, "tau": 1.0,
                     "t_end": 3.0, "outputs": {"series_path": "sub/s.csv"}}),
    ], ids=["gamma-1e308", "alpha-1-gamma-1e308", "bdf-gamma-7e307", "tau-gamma-S"])
    def test_overflowing_solve_factors_exit_2_before_any_output(self, tmp_path, capsys, command,
                                                                scheme, doc):
        # tau*gamma is finite, but tau*gamma*|k|^2 overflows on the grid (and,
        # for alpha = 1, so does the mobility symbol gamma*|k|^2 itself); at
        # gamma = 7e307 only the BDF2 factors, used from step 2, overflow; at
        # S = 1e308 tau*gamma*S does, which the sav twin that compare runs
        # second, damping without S, survives
        doc = {"preset": f"ex1-{scheme}", "grid": {"nx": 8, "ny": 8}, **doc}
        path = write_cfg(tmp_path, doc)
        twin = write_cfg(tmp_path, {**doc, "scheme": scheme.replace("isav", "sav")}, "b.json")
        out = tmp_path / "out"
        args = {"run": [path], "compare": [path, twin]}[command]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, *args, "--outdir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: the solve factors overflow")
        assert not out.exists()

    def test_huge_gamma_records_exact_decrements(self, tmp_path):
        # tau*||G^{1/2} mu||^2 comes from the levels, not from mu's spectrum,
        # whose rounding gamma would multiply: the BE law holds at gamma=1e306
        path = write_cfg(tmp_path, {"preset": "ex1-isav-be", "grid": {"nx": 8, "ny": 8},
                                    "model": {"gamma": 1e306}, "assert_energy": True})
        assert main(["run", path, "--outdir", str(tmp_path)]) == 0
        row = (tmp_path / "series.csv").read_text().splitlines()[2].split(",")
        D_be = float(row[SERIES_COLUMNS.index("D_be")])
        assert row[0] == "1" and math.isfinite(D_be) and D_be < 0.0

    def test_subnormal_mobility_exits_2_before_any_output(self, tmp_path, capsys):
        # 1/(gamma*|k|^(2*alpha)), the dissipation's symbol, overflows
        path = write_cfg(tmp_path, {"preset": "ex1-isav-be", "grid": {"nx": 8, "ny": 8},
                                    "model": {"gamma": 1e-310}})
        assert main(["run", path, "--outdir", str(tmp_path)]) == 2
        assert "config error: 1/(gamma*|k|^(2*alpha)) overflows" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "series.csv")

    @pytest.mark.parametrize("args", [
        ["--grids", "4,5"],
        ["--grids", "2,4"],
        ["--grids", "4,8", "--ref-nx", "15"],
        ["--taus", "0,0.05"],
        ["--taus", "0.05", "--ref-tau", "0"],
        ["--taus", "0.05", "--ref-tau", "1e-320"],
        ["--taus", "-0.05"],
        ["--taus", "abc"],
        ["--taus", ","],
        ["--taus", "1e16,0.25"],  # t_end/tau = 5e-17 rounds to 0 steps
        ["--taus", "0.05", "--ref-tau", "1e16"],
    ], ids=["odd-grid", "grid-2", "odd-ref-nx", "zero-tau", "zero-ref-tau", "ref-tau-1e-320",
            "negative-tau", "non-number", "empty", "tau-of-no-steps", "ref-tau-of-no-steps"])
    def test_converge_bad_arguments_exit_2(self, tmp_path, capsys, args):
        path = write_cfg(tmp_path, {
            "preset": "ex1-isav-be", "tau": 0.05, "t_end": 0.5,
            "grid": {"nx": 8, "ny": 8, "lx": TWO_PI, "ly": TWO_PI},
        })
        assert main(["converge", path, *args, "--out", str(tmp_path / "t.csv")]) == 2
        assert "config error: " in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("doc, args, why", [
        # the 64^2 reference grid's largest |k|^2 overflows, the 4^2 base grid's does not
        ({"preset": "ex1-isav-be", "grid": {"nx": 4, "ny": 4, "lx": 1e-152, "ly": 1e-152},
          "tau": 0.05, "t_end": 0.1, "potential": {"c_add": 1.0},
          "init": {"kind": "random", "seed": 0}},
         ["--grids", "4,8", "--ref-nx", "64"],
         "convergence: grid 64: grid: lx or ly too small for its nx or ny"),
        ({"preset": "ex1-isav-be", "grid": {"nx": 8, "ny": 8}},
         ["--grids", "4,9223372036854775808", "--ref-nx", "16"],
         f"convergence: grid 9223372036854775808: grid.nx: must be even and in [4, "
         f"{sys.maxsize}]"),
        ({"preset": "ex1-isav-be", "grid": {"nx": 8, "ny": 8}, "t_end": 0.1},
         ["--taus", "0.01,0.03"],
         "convergence: tau=0.03: t_end: must be an integer multiple of tau"),
        # tau*S overflows at the second member only: reported before the
        # reference and the first member run
        ({"preset": "ex1-isav-be", "grid": {"nx": 8, "ny": 8}, "S": 1e308, "tau": 1.0,
          "t_end": 10.0},
         ["--taus", "1,10", "--ref-tau", "1"],
         "convergence: tau=10.0: tau: tau*S and tau*gamma must be finite"),
        # the solve factors overflow at the second member only: its set-up
        # fails before the reference and the first member run
        ({"preset": "ex1-isav-be", "grid": {"nx": 8, "ny": 8},
          "model": {"alpha": 0.0, "gamma": 1.0}, "potential": {"c_add": 1.0},
          "tau": 1e306, "t_end": 5e306},
         ["--taus", "1e306,5e306", "--ref-tau", "1e306"],
         "convergence: tau=5e+306: the solve factors overflow"),
    ], ids=["ref-grid-k-overflows", "grid-beyond-maxsize", "member-tau-not-dividing",
            "member-tau-S-overflows", "member-factors-overflow"])
    def test_converge_members_checked_by_config_rules(self, tmp_path, capsys, monkeypatch, doc,
                                                      args, why):
        # each member and the reference is a config validated and set up as
        # one, and the error names it; no run starts
        runs = started_runs(monkeypatch)
        out = tmp_path / "out"
        path = write_cfg(tmp_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["converge", path, *args, "--outdir", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {why}")
        assert runs == []
        assert not out.exists()

    def test_compare_cli(self, tmp_path):
        base = {
            "preset": "ex1-sav-be", "tau": 0.05, "t_end": 0.25, "S": 6.0,
            "grid": {"nx": 16, "ny": 16, "lx": TWO_PI, "ly": TWO_PI},
        }
        pa = write_cfg(tmp_path, base, "a.json")
        pb = write_cfg(tmp_path, {**base, "scheme": "isav-be"}, "b.json")
        out = str(tmp_path / "cmp.csv")
        assert main(["compare", pa, pb, "--out", out]) == 0
        assert os.path.exists(out)

    @pytest.mark.parametrize("command", ["converge", "compare"])
    def test_the_table_is_the_only_output(self, tmp_path, command):
        # converge and compare step their runs without writing them: the
        # series and snapshots that the configs name are never made
        base = {"preset": "ex1-sav-be", "tau": 0.05, "t_end": 0.25, "S": 6.0,
                "grid": {"nx": 8, "ny": 8, "lx": TWO_PI, "ly": TWO_PI},
                "outputs": {"series_path": "series.csv", "snapshot_dir": "snaps",
                            "field_snapshot_times": [0.0, 0.25]}}
        pa = write_cfg(tmp_path, base, "a.json")
        pb = write_cfg(tmp_path, {**base, "scheme": "isav-be"}, "b.json")
        out = tmp_path / "out"
        args = {"converge": [pa, "--taus", "0.05,0.025", "--ref-tau", "0.0125"],
                "compare": [pa, pb]}[command]
        assert main([command, *args, "--out", "table.csv", "--outdir", str(out)]) == 0
        assert [p.relative_to(out) for p in out.rglob("*")] == [Path("table.csv")]

    def test_compare_settles_config_b_before_config_a_runs(self, tmp_path, capsys, monkeypatch):
        # B's solve factors overflow where A's, without the S term, do not:
        # the error names B's scheme, before the table's directory is made
        # or A takes a step
        def no_step(*args, **kwargs):
            raise AssertionError("a step was taken")

        monkeypatch.setattr(harness, "step", no_step)
        doc = {"preset": "ex1-sav-be", "grid": {"nx": 8, "ny": 8},
               "model": {"alpha": 0.0, "gamma": 10.0}, "S": 1e308, "tau": 1.0, "t_end": 3.0}
        pa = write_cfg(tmp_path, doc, "a.json")
        pb = write_cfg(tmp_path, {**doc, "scheme": "isav-be"}, "b.json")
        out = tmp_path / "out"
        assert main(["compare", pa, pb, "--outdir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: isav-be: ")
        assert not out.exists()

    def test_config_path_is_a_directory_exit_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_config_not_utf8_exit_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"preset": "ex1-isav-be", "note": "é"}'.encode("latin-1"))
        assert main(["run", str(path)]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    EX1_8 = {"preset": "ex1-isav-be", "grid": {"nx": 8, "ny": 8}}
    EPS_FINITE = "potential.eps: must keep eps^2 and 1/eps^2 finite"

    @pytest.mark.parametrize("doc, why", [
        ({**EX1_8, "outputs": 5}, "outputs: must be an object"),
        ({**EX1_8, "init": 5}, "init: must be an object"),
        ({**EX1_8, "init": {"kind": "random", "seed": -1}},
         "init.seed: must be a nonnegative integer"),
        ({**EX1_8, "tau": 10**400}, "tau: must be finite"),  # a 401-digit JSON integer
        ({**EX1_8, "tau": 1e-320}, "t_end: must be an integer multiple of tau"),  # t_end/tau = inf
        # t_end/tau = 5e-17 is within 4 ulp of the integer 0: a run of no steps
        ({**EX1_8, "tau": 1e16}, "t_end: must span at least one step of tau"),
        # 1/eps^2 underflows to 1/0: the preset's S formula and the double
        # well's bulk integral divided by it
        ({"preset": "ex2-isav-be", "potential": {"eps": 1e-200}}, EPS_FINITE),
        ({**MINIMAL, "potential": {"kind": "double-well", "eps": 1e-200}}, EPS_FINITE),
        ({"preset": "ex2-isav-be", "potential": {"eps": 1e200}}, EPS_FINITE),  # eps^2 overflows
        ({**EX1_8, "grid": {"nx": 10**400, "ny": 8}}, "grid.nx: must be even and in [4, "),
        ({**MINIMAL, "grid": {**MINIMAL["grid"], "ly": 5e-324}},
         "grid: lx or ly too small for its nx or ny: the largest |k|^2 overflows"),
        # (1e200/8)^2 overflows, so every energy would be inf or nan from t=0
        ({**EX1_8, "grid": {"nx": 8, "ny": 8, "lx": 1e200, "ly": 1e200}},
         "grid: lx or ly too large for its nx or ny: the cell area overflows"),
        # the preset's S = 10/eps^2 overflows while 1/eps^2 does not, and is
        # checked as a written S is
        ({"preset": "ex3-isav-be", "potential": {"eps": 1e-154}}, "S: must be finite"),
        ([1, 2], "the top level must be a JSON object"),
    ], ids=["outputs-a-number", "init-a-number", "negative-seed", "401-digit-tau", "tau-1e-320",
            "tau-1e16", "preset-eps-1e-200", "double-well-eps-1e-200", "eps-1e200",
            "401-digit-nx", "ly-5e-324", "cell-area-1e200-squared", "ex3-eps-1e-154",
            "top-level-a-list"])
    def test_malformed_config_exits_2(self, tmp_path, capsys, doc, why):
        path = write_cfg(tmp_path, doc)
        assert main(["run", path, "--outdir", str(tmp_path)]) == 2
        assert f"config error: {why}" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "series.csv")

    TAU_S = "tau: tau*S and tau*gamma must be finite"

    @pytest.mark.parametrize("command", ["run", "converge", "compare"])
    @pytest.mark.parametrize("doc, why", [
        ({"preset": "ex1-isav-be", "S": 1e308, "tau": 10.0, "t_end": 10.0}, TAU_S),
        ({"preset": "ex1-sav-be", "S": 1e308, "tau": 10.0, "t_end": 10.0}, TAU_S),
        ({**EX1_8, "model": {"gamma": 1e308}, "tau": 10.0, "t_end": 10.0}, TAU_S),
        # the preset's S = 10/eps^2 overflows, at eps = 1e-160 with 1/eps^2 itself
        ({"preset": "ex3-isav-be", "potential": {"eps": 1e-160}}, EPS_FINITE),
    ], ids=["isav-be-S-1e308", "sav-be-S-1e308", "gamma-1e308", "ex3-eps-1e-160"])
    def test_unsteppable_parameters_exit_2_before_any_output(self, tmp_path, capsys, doc, why,
                                                             command):
        # tau*S or tau*gamma beyond the float range breaks a config rule
        path = write_cfg(tmp_path, doc)
        out = tmp_path / "out"
        tau = str(doc.get("tau", 0.01))
        args = {"run": [path],
                "converge": [path, "--taus", tau, "--ref-tau", tau],
                "compare": [path, write_cfg(tmp_path, {**doc, "scheme": "isav-bdf"}, "b.json")]}
        assert main([command, *args[command], "--outdir", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {why}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "converge", "compare"])
    @pytest.mark.parametrize("site", ["grid", "symbols", "factors", "beyond-address-space"])
    def test_unallocatable_grid_exits_2_before_any_output(self, tmp_path, capsys, monkeypatch,
                                                          command, site):
        # validation accepts nx = 2**40, which fails only where the grid,
        # its symbols or its solve factors are allocated; the MemoryError is
        # simulated, so no such grid is ever built, and the other two sites
        # raise it on a grid that is. Validation rejects nx = 2**62 itself,
        # whose arrays numpy could not even ask for; nothing is simulated
        def out_of_memory(*args, **kwargs):
            raise MemoryError

        if site != "beyond-address-space":
            owner, attr = {"grid": (Grid, "__post_init__"), "symbols": (ModelParams, "symbols"),
                           "factors": (harness, "_solve_factors")}[site]
            monkeypatch.setattr(owner, attr, out_of_memory)
        nx = {"grid": 2**40, "beyond-address-space": 2**62}.get(site, 8)
        doc = {"preset": "ex1-isav-be", "grid": {"nx": nx, "ny": 4}}
        path = write_cfg(tmp_path, doc)
        out = tmp_path / "out"
        args = {"run": [path],
                "converge": [path, "--taus", "0.01", "--ref-tau", "0.01"],
                "compare": [path, write_cfg(tmp_path, {**doc, "scheme": "isav-bdf"}, "b.json")]}
        assert main([command, *args[command], "--outdir", str(out)]) == 2
        # converge names the member whose set-up failed; validation, which
        # rejects nx = 2**62 when the config loads, names no run
        member = ("convergence: tau=0.01: "
                  if command == "converge" and site != "beyond-address-space" else "")
        assert capsys.readouterr().err == (
            f"config error: {member}grid: nx={nx} by ny=4 is too large to allocate\n")
        assert not out.exists()

    @staticmethod
    def _snapshot_run(tmp_path):
        """A 6-step run that keeps every row and snapshots steps 2 and 4."""
        return write_cfg(tmp_path, {**MINIMAL, "t_end": 0.6, "outputs": {
            "series_path": str(tmp_path / "s.csv"), "snapshot_dir": str(tmp_path / "snaps"),
            "field_snapshot_times": [0.2, 0.4]}})

    def _assert_partial_run(self, tmp_path, capsys, path):
        assert main(["run", path]) == 4
        err = capsys.readouterr().err
        assert err.startswith("output error: cannot write the snapshot of step 4 (")
        assert "phi_step000004.txt" in err and "the series holds the rows through step 4" in err
        rows = (tmp_path / "s.csv").read_text().splitlines()
        assert [int(r.split(",")[0]) for r in rows[1:]] == [0, 1, 2, 3, 4]

    def test_snapshot_directory_removed_mid_run_exits_4(self, tmp_path, capsys, monkeypatch):
        # the snapshot directory is made before step 1 and not again, so
        # one removed mid-run fails the next snapshot; the rows so far
        # are written
        import shutil

        import isavflow.harness as harness

        def removing_step(state, params):
            if state.step_index == 3:
                shutil.rmtree(tmp_path / "snaps")
            return step(state, params)

        monkeypatch.setattr(harness, "step", removing_step)
        self._assert_partial_run(tmp_path, capsys, self._snapshot_run(tmp_path))
        assert not os.path.exists(tmp_path / "snaps")

    def test_snapshot_write_raising_exits_4(self, tmp_path, capsys, monkeypatch):
        import isavflow.harness as harness

        def full_disk(path, field, t):
            if "000004" in path:
                raise OSError(28, "No space left on device", path)
            write_snapshot(path, field, t)

        monkeypatch.setattr(harness, "write_snapshot", full_disk)
        self._assert_partial_run(tmp_path, capsys, self._snapshot_run(tmp_path))
        assert os.listdir(tmp_path / "snaps") == ["phi_step000002.txt"]

    @pytest.mark.parametrize("command", ["run", "converge", "compare"])
    def test_series_or_table_write_raising_exits_4(self, tmp_path, capsys, monkeypatch, command):
        # a series or table that cannot be written once its rows are in hand
        # (a full disk) is an output error that names its path
        def full_disk(path, rows, columns):
            raise OSError(28, "No space left on device", path)

        monkeypatch.setattr(harness, "write_series_csv", full_disk)
        doc = {**MINIMAL, "t_end": 0.2}
        pa = write_cfg(tmp_path, doc, "a.json")
        pb = write_cfg(tmp_path, {**doc, "scheme": "sav-be"}, "b.json")
        out = tmp_path / "table.csv"
        args = {"run": [pa, "--outdir", str(tmp_path)],
                "converge": [pa, "--taus", "0.1", "--ref-tau", "0.1", "--out", str(out)],
                "compare": [pa, pb, "--out", str(out)]}[command]
        assert main([command, *args]) == 4
        path = tmp_path / "series.csv" if command == "run" else out
        assert capsys.readouterr().err == (
            f"output error: cannot write {path} (No space left on device)\n")

    @pytest.mark.parametrize("command", ["run", "converge", "compare"])
    def test_unreadable_file_datum_exits_2_before_any_output(self, tmp_path, capsys, command):
        # a file initial datum is read when a run is set up, before any
        # directory is made
        doc = {"preset": "ex1-isav-be", "grid": {"nx": 8, "ny": 8},
               "init": {"kind": "file", "path": str(tmp_path / "missing.txt")}}
        path = write_cfg(tmp_path, doc)
        out = tmp_path / "out"
        args = {"run": [path],
                "converge": [path, "--taus", "0.01", "--ref-tau", "0.01"],
                "compare": [path, write_cfg(tmp_path, {**doc, "scheme": "isav-bdf"}, "b.json")]}
        assert main([command, *args[command], "--outdir", str(out)]) == 2
        assert "init.path: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("outputs, why", [
        ({"series_path": "file/s.csv"}, "cannot create its directory"),
        ({"snapshot_dir": "file/snaps", "field_snapshot_times": [0.0]}, "cannot create its directory"),
        ({"series_path": "dir"}, "is a directory"),
        ({"series_path": "x", "snapshot_dir": "x", "field_snapshot_times": [0.1]},
         "is a directory"),
    ], ids=["series-under-a-file", "snapshots-under-a-file", "series-a-directory",
            "series-the-snapshot-directory"])
    def test_unwritable_run_output_exits_2_before_the_first_step(self, tmp_path, capsys,
                                                                  monkeypatch, outputs, why):
        # run's output directories are made before step 1, so a path that
        # cannot hold them fails at once, not after the run or mid-run
        import isavflow.harness as harness

        def no_run(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(harness, "make_initial_state", no_run)
        (tmp_path / "file").write_text("")
        (tmp_path / "dir").mkdir()
        path = write_cfg(tmp_path, {**MINIMAL, "t_end": 0.2, "outputs": outputs})
        assert main(["run", path, "--outdir", str(tmp_path)]) == 2
        assert why in capsys.readouterr().err
        assert (tmp_path / "file").read_text() == ""

    @pytest.mark.parametrize("where, why", [("file/sub/table.csv", "cannot create its directory"),
                                            ("dir", "is a directory")],
                             ids=["under-a-file", "a-directory"])
    @pytest.mark.parametrize("command", ["converge", "compare"])
    def test_unwritable_table_exits_2_before_the_sweep(self, tmp_path, capsys, monkeypatch,
                                                       command, where, why):
        # the table's directory is made before the first step, so a path
        # that cannot hold the table fails at once, not after the sweep
        runs = started_runs(monkeypatch)
        base = {"preset": "ex1-sav-be", "tau": 0.05, "t_end": 0.25,
                "grid": {"nx": 8, "ny": 8, "lx": TWO_PI, "ly": TWO_PI}}
        pa = write_cfg(tmp_path, base, "a.json")
        pb = write_cfg(tmp_path, {**base, "scheme": "isav-be"}, "b.json")
        (tmp_path / "file").write_text("")
        (tmp_path / "dir").mkdir()
        args = [pa, "--taus", "0.05"] if command == "converge" else [pa, pb]
        assert main([command, *args, "--out", str(tmp_path / where)]) == 2
        assert why in capsys.readouterr().err
        assert runs == []
        assert (tmp_path / "file").read_text() == ""
