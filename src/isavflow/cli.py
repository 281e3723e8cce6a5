"""Command-line front end.

Subcommands: ``run`` integrates one configuration, ``converge`` sweeps the
time step or the grid and writes an error table, ``compare`` runs two
configurations differing only in scheme and output paths and merges their
series, and ``presets list`` prints the built-in experiment presets. Exit
codes: 0 success, 2 configuration error, 3 runtime scheme failure, 4 an
output that could not be written: a snapshot mid-run, or a series or table.

The ISAVFLOW_OUTDIR environment variable redirects all relative output
paths.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, load_config, preset_summary
from .harness import (
    OutputWriteError,
    SchemeRuntimeError,
    compare_schemes,
    convergence_study,
    resolve_outdir,
    run_simulation,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_OUTPUT = 4


def _parse_list(text: str, cast, flag):
    try:
        return [cast(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="isavflow",
        description="Pseudo-spectral SAV / improved-SAV solvers for periodic gradient flows.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="integrate one configuration")
    run.add_argument("config")
    run.add_argument("--outdir", default=None, help="base directory for relative outputs")

    conv = sub.add_parser("converge", help="H1-error sweep over tau or the grid")
    conv.add_argument("config")
    group = conv.add_mutually_exclusive_group(required=True)
    group.add_argument("--taus", help="comma-separated time steps")
    group.add_argument("--grids", help="comma-separated grid sizes n (n x n)")
    conv.add_argument("--ref-tau", type=float, default=1e-5,
                      help="temporal sweeps: make the reference as accurate as sav-bdf at "
                           "this step; it is a Richardson extrapolation of sav-bdf runs whose "
                           "step halves from up to 4 times the finest member's, down to this "
                           "one at the latest")
    conv.add_argument("--ref-nx", type=int, default=64)
    conv.add_argument("--out", default="convergence.csv")
    conv.add_argument("--outdir", default=None)

    comp = sub.add_parser("compare", help="run two configs differing only in scheme and output paths")
    comp.add_argument("config_a")
    comp.add_argument("config_b")
    comp.add_argument("--out", default="compare.csv")
    comp.add_argument("--outdir", default=None)

    pre = sub.add_parser("presets", help="preset utilities")
    pre.add_argument("action", choices=["list"])
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = load_config(args.config)
            result = run_simulation(cfg, outdir=args.outdir)
            print(f"wrote {len(result.records)} rows to {result.series_path}")
            for path in result.snapshot_paths or []:
                print(f"snapshot {path}")
        elif args.command == "converge":
            cfg = load_config(args.config)
            taus = _parse_list(args.taus, float, "--taus") if args.taus else None
            grids = _parse_list(args.grids, int, "--grids") if args.grids else None
            out = os.path.join(resolve_outdir(args.outdir), args.out)
            rows, reference = convergence_study(
                cfg, taus=taus, grids=grids,
                ref_tau=args.ref_tau, ref_grid_n=args.ref_nx, out_path=out,
            )
            for r in rows:
                order = "--" if r["order"] is None else f"{r['order']:.2f}"
                print(f"{r['resolution']:>8}  {r['h1_error']:.6e}  {order}")
            if reference is not None:
                # a table may show the reference's error rather than the
                # member's unless the reference is far more accurate
                h, est = reference
                finest = max(rows, key=lambda r: r["resolution"])["h1_error"]
                print(f"reference: Richardson h={h!r}, estimated H1 error {est:.6e}")
                if not est < 1e-2 * finest:
                    print(f"warning: the reference's estimated H1 error {est:.6e} is not "
                          f"below 1e-2 of the finest member's {finest:.6e}", file=sys.stderr)
            print(f"wrote {out}")
        elif args.command == "compare":
            cfg_a = load_config(args.config_a)
            cfg_b = load_config(args.config_b)
            out = os.path.join(resolve_outdir(args.outdir), args.out)
            rows = compare_schemes(cfg_a, cfg_b, out_path=out)
            print(f"wrote {len(rows)} rows to {out}")
        elif args.command == "presets":
            print(preset_summary())
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SchemeRuntimeError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OutputWriteError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
