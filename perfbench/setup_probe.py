"""Set-up cost in a fresh interpreter: import dcil, build the first config, make its data.

Usage: python3 perfbench/setup_probe.py <src dir> <config JSON>
Prints the elapsed seconds, measured from the start of this script, and then
the host speed right after on this CPU (speed_sampler's seconds per pass).
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    sys.path.insert(0, sys.argv[1])
    from dcil import data
    from dcil.cli import build_run_config

    cfg = build_run_config(json.loads(sys.argv[2]))
    ds = data.make_synthetic(cfg.n_classes, cfg.per_class, cfg.input_dim, cfg.spread,
                             [cfg.seed, 1])
    data.split_sessions(ds, cfg.n_base, cfg.n_sessions, [cfg.seed, 2])
    elapsed = time.perf_counter() - T0
    from speed_sampler import seconds_per_pass

    print(repr(elapsed), repr(seconds_per_pass()))


if __name__ == "__main__":
    main()
