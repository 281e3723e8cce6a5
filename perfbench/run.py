#!/usr/bin/env python3
"""isavflow benchmark: time to solution of three CLI workloads, and a traced
per-module split of the same calls.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports isavflow from ``src/`` there
and refuses to run without it. One run makes one untimed warm-up call, then
repeats the workload's CLI call in this process for S seconds, timing set-up
in a fresh interpreter before each call and checking every call's outputs.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
three in four calls run under the span tracer and it reports the per-module
metrics. The last line
of standard output is the result as one JSON object; the full record
(machine, thread settings, grid sizes, every sample, structural counts) goes
to ``.perfbench_out/`` together with the spans of the last traced call.
"""

import os

# One process, one thread: fix the BLAS/OpenMP pools before numpy loads.
# numpy's FFT (pocketfft) is single-threaded already.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# Outputs must land in the benchmark's own directory.
os.environ.pop("ISAVFLOW_OUTDIR", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
EXPECTED_COUNTS = HERE / "expected_counts.json"

# A set-up probe runs before every call, so set-up is sampled across the
# whole window; a run takes at least MIN_SETUP_SAMPLES of them.
MIN_SETUP_SAMPLES = 7
# In a traced run every UNTRACED_EVERY-th call runs untraced, interleaved so
# that the overhead estimate compares calls made under the same load.
UNTRACED_EVERY = 4
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND_TAIL = 10

POTENTIAL_F = ("potentials.DoubleWell.F", "potentials.FloryHuggins.F")
POTENTIAL_f = ("potentials.DoubleWell.f", "potentials.FloryHuggins.f")
FFT = ("spectral.forward", "spectral.inverse")
STEPS = ("harness.step", "harness.step_isav_be")
IO = ("harness.write_series_csv", "harness.write_snapshot")


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Call:
    wall_s: float
    traced: bool
    outcome: Outcome
    bytes_written: int
    self_s: dict = field(default_factory=dict)
    counts: dict | None = None
    step_ms: list = field(default_factory=list)


def import_package():
    init = SRC / "isavflow" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no isavflow sources at {init}")
    sys.path.insert(0, str(SRC))
    import isavflow

    if Path(isavflow.__file__).resolve() != init.resolve():
        raise BenchError(f"imported isavflow from {isavflow.__file__}, expected {init}")
    return isavflow


def _size_bytes(text):
    text = text.strip()
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def machine_record():
    import numpy

    model = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError, ValueError):
            if (idx / "type").read_text().strip() != "Instruction":
                caches[f"L{(idx / 'level').read_text().strip()}_bytes"] = _size_bytes(
                    (idx / "size").read_text())
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "cpus_usable": usable,
        **caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def grid_record(n, caches):
    real = n * n * 8
    spectral = n * (n // 2 + 1) * 16
    l3 = caches.get("L3_bytes")
    return {
        "n": n,
        "real_array_bytes": real,
        "spectral_array_bytes": spectral,
        "bandwidth": "not reported: every array fits in L3, so no bandwidth or "
                     "roofline ratio is meaningful" if l3 and spectral < l3 else
                     "not reported: not measured",
    }


def probe_setup(paths):
    """Time set-up once, in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *paths.values()]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          cwd=ROOT, env=os.environ.copy(), check=False)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def one_call(workload, cli, paths, outdir, traced):
    """Run the workload's CLI call once, timed, then check its outputs."""
    shutil.rmtree(outdir, ignore_errors=True)
    argv = workload.argv(paths, str(outdir))
    tracer = Tracer() if traced else None
    sink = io.StringIO()
    error = None
    gc.collect()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), \
            (tracer or contextlib.nullcontext()):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash is a failed run, reported with its traceback
            rc, error = None, traceback.format_exc()
        wall = time.perf_counter() - start
    if error is not None:
        outcome = Outcome([error], 0)
    elif rc != 0:
        outcome = Outcome([f"exit code {rc}: {sink.getvalue().strip()}"], 0)
    else:
        try:
            outcome = workload.check(paths, str(outdir))
        except Exception:  # outputs the check cannot parse are wrong outputs
            outcome = Outcome([f"outputs unreadable: {traceback.format_exc()}"], 0)
    call = Call(wall, traced, outcome, _dir_bytes(outdir) if outdir.exists() else 0)
    if tracer is not None:
        call.self_s = dict(tracer.self_s)
        call.counts = tracer.counts()
        call.step_ms = tracer.step_ms
    return call, tracer


def run_calls(workload, cli, paths, outdir, seconds, trace):
    """Warm-up call, then calls until the next would overrun ``seconds``,
    each preceded by a set-up probe."""
    warm, _ = one_call(workload, cli, paths, outdir, traced=False)
    setup, calls, last_tracer = [], [], None
    start = time.perf_counter()
    while True:
        setup.append(probe_setup(paths))
        traced = trace and len(calls) % UNTRACED_EVERY != 0
        call, tracer = one_call(workload, cli, paths, outdir, traced)
        calls.append(call)
        last_tracer = tracer or last_tracer
        elapsed = time.perf_counter() - start
        per_call = elapsed / len(calls)
        if len(calls) >= (2 if trace else 1) and elapsed + per_call > seconds:
            break
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(probe_setup(paths))
    return warm, calls, last_tracer, setup


def timing_summary(values):
    """Median, the highest listed percentile with at least ten samples
    beyond it (None when there are too few), and the sample count."""
    import numpy

    n = len(values)
    tail = next(((q, float(numpy.percentile(values, q))) for q in TAIL_PERCENTILES
                 if n * (1.0 - q / 100.0) >= MIN_BEYOND_TAIL), None)
    return {
        "median": statistics.median(values),
        "tail_percentile": tail[0] if tail else None,
        "tail": tail[1] if tail else None,
        "n": n,
        "samples": values,
    }


def end_to_end_metrics(workload, calls, setup):
    walls = [c.wall_s for c in calls]
    return {
        "wall_s": (statistics.median(walls), "s"),
        "steps_per_s": (statistics.median(workload.steps / w for w in walls), "1/s"),
        "setup_s": (statistics.median(s["setup_s"] for s in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def per_layer_metrics(workload, calls, setup, grid):
    traced = [c for c in calls if c.traced]
    untraced = [c for c in calls if not c.traced]
    counts = traced[-1].counts
    per_step = counts["per_step"]

    def ps(names):
        return sum(per_step.get(n, 0.0) for n in names)

    def self_s(c, names):
        return sum(c.self_s.get(n, 0.0) for n in names)

    def med(fn):
        return statistics.median(fn(c) for c in traced)

    record_calls = counts["total"].get("diagnostics.record_step", 0)
    kept = traced[-1].outcome.records_kept
    step_ms = [v for c in traced for v in c.step_ms]
    import numpy

    fft_bytes = ps(FFT) * (grid["real_array_bytes"] + grid["spectral_array_bytes"])
    wall_traced = med(lambda c: c.wall_s)
    return {
        "spectral.forward_per_step": (ps(FFT[:1]), "count"),
        "spectral.inverse_per_step": (ps(FFT[1:]), "count"),
        "spectral.fft_self_s": (med(lambda c: self_s(c, FFT)), "s"),
        "spectral.fft_share": (med(lambda c: self_s(c, FFT) / c.wall_s), "ratio"),
        "spectral.fft_bytes_per_step": (fft_bytes, "B"),
        "spectral.field_checks_per_step": (ps(("spectral.field_check",)), "count"),
        "potentials.F_per_step": (ps(POTENTIAL_F), "count"),
        "potentials.f_per_step": (ps(POTENTIAL_f), "count"),
        "potentials.self_s": (med(lambda c: self_s(c, POTENTIAL_F + POTENTIAL_f)), "s"),
        "potentials.share": (med(lambda c: self_s(c, POTENTIAL_F + POTENTIAL_f) / c.wall_s),
                             "ratio"),
        "schemes.step_ms.p50": (float(numpy.percentile(step_ms, 50)), "ms"),
        "schemes.step_ms.p99": (float(numpy.percentile(step_ms, 99)), "ms"),
        "schemes.step_ms.n": (len(step_ms), "count"),
        "schemes.step_self_s": (med(lambda c: self_s(c, STEPS)), "s"),
        "schemes.rank_one_per_step": (ps(("schemes.rank_one",)), "count"),
        "schemes.rank_one_self_s": (med(lambda c: self_s(c, ("schemes.rank_one",))), "s"),
        "diagnostics.records_per_step": (ps(("diagnostics.record_step",)), "count"),
        "diagnostics.records_kept_ratio": (kept / record_calls if record_calls else 0.0,
                                           "ratio"),
        "diagnostics.record_self_s": (med(lambda c: self_s(c, ("diagnostics.record_step",))),
                                      "s"),
        "harness.io_s": (med(lambda c: self_s(c, IO)), "s"),
        "harness.bytes_written": (traced[-1].bytes_written, "B"),
        "config.load_s": (statistics.median(s["phases"]["load_config"] for s in setup), "s"),
        "trace.wall_s": (wall_traced, "s"),
        "trace.overhead_s": (wall_traced - statistics.median(c.wall_s for c in untraced), "s"),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        isavflow = import_package()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from isavflow import cli

    workdir = OUT / f"work-{os.getpid()}"
    try:
        paths = workload.write_configs(args.seed, str(workdir / "configs"))
        warm, calls, tracer, setup = run_calls(workload, cli, paths, workdir / "out",
                                               args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    machine = machine_record()
    grid = grid_record(workload.grid_n, machine)
    timed = [c for c in calls if not c.traced]
    if args.trace:
        metrics = per_layer_metrics(workload, calls, setup, grid)
    else:
        metrics = end_to_end_metrics(workload, timed, setup)
    attempted = [warm, *calls]
    failures = [f for c in attempted for f in c.outcome.failures]
    failed = sum(1 for c in attempted if c.outcome.failures)

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seed_used": workload.uses_seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "steps_per_call": workload.steps,
        "machine": machine,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "processes": 1,
        "grid": grid,
        "package": isavflow.__file__,
        "setup_s": timing_summary([s["setup_s"] for s in setup]),
        "setup_phases_s": {k: statistics.median(s["phases"][k] for s in setup)
                           for k in setup[0]["phases"]},
        "wall_s": timing_summary([c.wall_s for c in timed]),
        "attempted": len(attempted),
        "failed": failed,
        "fail_frac": failed / len(attempted),
        "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        traced = [c for c in calls if c.traced]
        record["traced_wall_s"] = timing_summary([c.wall_s for c in traced])
        record["step_ms"] = timing_summary([v for c in traced for v in c.step_ms])
        del record["step_ms"]["samples"]
        record["counts"] = traced[-1].counts
        record["counts_repeat"] = all(c.counts == traced[0].counts for c in traced)
        expected = json.loads(EXPECTED_COUNTS.read_text()).get(workload.name)
        record["counts_match_expected"] = record["counts"] == expected
        tracer.write_spans(OUT / f"{stem}-spans.csv")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    for k, m in record["metrics"].items():
        print(f"{k:34s} {m['value']!r} {m['unit']}")
    if failures:
        print(f"{failed} of {len(attempted)} calls failed; first: {failures[0]}")
    if args.trace and not record["counts_match_expected"]:
        print(f"structural counts differ from {EXPECTED_COUNTS.name}")
    print(f"record: {OUT / (stem + '.json')}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(attempted),
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
