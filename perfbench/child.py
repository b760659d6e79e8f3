"""One `edmlab run` in a fresh process, timed at the CLI's boundaries.

    python3 perfbench/child.py --src SRC --timing OUT.json [--trace SPANS.json]
        [--probe] -- <edmlab run flags>

Records `time.monotonic()` (CLOCK_MONOTONIC, shared by every process on the
machine, so the launching process can subtract its own launch time) at:

* entry to and exit from `train.run` / `train.run_baseline_ce`, wrapped
  where `edmlab.cli` calls them;
* every epoch report, through an `on_epoch` hook chained after the CLI's;
* the return of `cli.main`.

With ``--probe`` the process exits at the first training step, which times
set-up alone.  With ``--trace`` the phase functions are wrapped in spans
(see `layers.py`) that are written to the given file when the run ends.
The exit code is the one `cli.main` returned.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def main() -> int:
    argv, edm_args = sys.argv[1:], []
    if "--" in argv:
        cut = argv.index("--")
        argv, edm_args = argv[:cut], argv[cut + 1:]
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--timing", required=True)
    parser.add_argument("--trace")
    parser.add_argument("--probe", action="store_true")
    ns = parser.parse_args(argv)

    sys.path.insert(0, ns.src)
    from edmlab import cli

    tracer = None
    if ns.trace:
        from layers import Tracer, install

        tracer = Tracer()
        install(tracer)

    events = {"train_enter": None, "epochs": [], "train_exit": None,
              "main_return": None}

    def write_timing(rc):
        with open(ns.timing, "w") as fh:
            json.dump({"rc": rc, **events}, fh)

    def timed(train_fn):
        def wrapper(train_ds, test_ds, cfg, on_epoch=None):
            events["train_enter"] = time.monotonic()
            if ns.probe:
                write_timing(0)
                os._exit(0)

            def chained(report, netd, nets):
                if on_epoch is not None:
                    on_epoch(report, netd, nets)
                events["epochs"].append(time.monotonic())

            try:
                return train_fn(train_ds, test_ds, cfg, on_epoch=chained)
            finally:
                events["train_exit"] = time.monotonic()

        return wrapper

    cli.run = timed(cli.run)
    cli.run_baseline_ce = timed(cli.run_baseline_ce)

    main_fn = cli.main
    if tracer is not None:
        main_fn = tracer.wrap(main_fn, "cli.main")
    rc = main_fn(["run", *edm_args])
    events["main_return"] = time.monotonic()
    write_timing(rc)
    if tracer is not None:
        tracer.dump(ns.trace)
    return rc


if __name__ == "__main__":
    sys.exit(main())
