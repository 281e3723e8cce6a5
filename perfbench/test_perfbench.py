"""Tests of the benchmark itself: exact structural counts, output checks,
and refusal to run without the package sources.

    python3 -m pytest perfbench
"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
isavflow = run.import_package()
from isavflow import cli  # noqa: E402


def traced_call(name, seed, workdir):
    workload = WORKLOADS[name]
    paths = workload.write_configs(seed, str(workdir / "configs"))
    call, _ = run.one_call(workload, cli, paths, workdir / "out", traced=True)
    return workload, paths, call


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced(request, tmp_path_factory):
    workdir = tmp_path_factory.mktemp(request.param)
    return (request.param, workdir) + traced_call(request.param, 0, workdir)


def test_counts_match_committed_expectations(traced):
    name, _, _, _, call = traced
    expected = json.loads((HERE / "expected_counts.json").read_text())[name]
    assert call.counts == expected


def test_outputs_pass_checks(traced):
    _, _, _, _, call = traced
    assert call.outcome.failures == []


def test_metrics_are_the_declared_ones(traced):
    _, _, workload, _, call = traced
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    untraced = run.Call(call.wall_s, False, call.outcome, call.bytes_written)
    setup = [{"setup_s": 0.5, "phases": {"load_config": 0.01}}]
    grid = run.grid_record(workload.grid_n, {})
    e2e = run.end_to_end_metrics(workload, [untraced], setup)
    layers = run.per_layer_metrics(workload, [untraced, call], setup, grid)
    assert {k: u for k, (_, u) in e2e.items()} == {
        m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert {k: u for k, (_, u) in layers.items()} == {
        m["name"]: m["unit"] for m in declared["per_layer"]}


@pytest.mark.parametrize("seed", [1, 7])
def test_compare_checks_hold_for_other_seeds(seed, tmp_path):
    _, _, call = traced_call("compare-ex4", seed, tmp_path)
    assert call.outcome.failures == []


def _rewrite_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)


def test_checks_reject_corrupted_outputs(traced, tmp_path):
    name, workdir, workload, paths, _ = traced
    out = tmp_path / "out"
    shutil.copytree(workdir / "out", out)
    if name == "converge-ex1":
        path, edit = out / "convergence.csv", lambda rows: rows[-1].update(order="1.5")
    elif name == "coarsen-ex2":
        path, edit = out / "series.csv", lambda rows: rows[-1].update(
            E_orig=repr(float(rows[-1]["E_orig"]) * (1 + 1e-8)))
    else:
        path, edit = out / "compare.csv", lambda rows: rows[-1].update(
            E_mod_sav_be=repr(float(rows[-2]["E_mod_sav_be"]) * 1.001))
    _rewrite_csv(path, edit)
    assert workload.check(paths, str(out)).failures


def test_refuses_to_run_without_package_sources(tmp_path):
    bench = tmp_path / HERE.name
    bench.mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, bench)
    shutil.copy(HERE / "expected_counts.json", bench)
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "coarsen-ex2",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
