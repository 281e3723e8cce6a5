"""Time isavflow's set-up for some configs in a fresh interpreter.

Usage: python3 setup_probe.py <src dir> <config.json> [<config.json> ...]

Set-up is everything before the first step: the package import (numpy
included), then for every config ``load_config``, ``RunConfig.make_grid``,
``ModelParams.symbols``, ``initial_field`` and ``make_initial_state``.
Prints one JSON object with the total and the time of each phase.
"""

import json
import sys
import time


def main(src, config_paths):
    clock = time.perf_counter
    sys.path.insert(0, src)
    t = clock()
    import isavflow
    from isavflow import ModelParams, Scheme, initial_field, load_config, make_initial_state

    phases = {"import": clock() - t, "load_config": 0.0, "make_grid": 0.0,
              "symbols": 0.0, "initial_field": 0.0, "make_initial_state": 0.0}
    for path in config_paths:
        t0 = clock()
        cfg = load_config(path)
        t1 = clock()
        grid = cfg.make_grid()
        t2 = clock()
        pot = cfg.make_potential()
        params = ModelParams(alpha=cfg.model["alpha"], gamma=cfg.model["gamma"],
                             S=cfg.S, tau=cfg.tau, potential=pot)
        params.symbols(grid)
        t3 = clock()
        phi0 = initial_field(cfg.init, grid)
        t4 = clock()
        make_initial_state(Scheme(cfg.scheme), phi0, pot)
        t5 = clock()
        phases["load_config"] += t1 - t0
        phases["make_grid"] += t2 - t1
        phases["symbols"] += t3 - t2
        phases["initial_field"] += t4 - t3
        phases["make_initial_state"] += t5 - t4
    total = clock() - t
    print(json.dumps({"setup_s": total, "phases": phases, "package": isavflow.__file__}))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2:])
