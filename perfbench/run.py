"""End-to-end and per-phase benchmark of `edmlab run`.

    python3 perfbench/run.py --workload edm-n2k --seed 0 --seconds 60 --trace 0

Each workload is a closed loop of `edmlab run` invocations, one process at
a time, each in a fresh interpreter (see `child.py`).  A round runs the
workload's seeds once.  A run starts as many whole rounds as fit in
``--seconds`` (at least two, or one with ``--trace 1``), so every run
attempts whole rounds.  Every
invocation is one operation, and every output of every operation is
checked (`checks.py`).

``--trace 0`` reports the end-to-end metrics: times summed over a round's
seeds, and their median over the run's rounds.  Set-up is also timed by
probe launches that stop at the first training step, two before every
full invocation, and its median is taken over probes and full runs
together.

``--trace 1`` runs each seed of a round twice, untraced and then with spans
around every phase (`layers.py`), checks that both give byte-identical
outputs, and reports the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run outputs go to
``.perfbench-runs/<workload>/`` at the repository root; each run replaces
the previous run's directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from checks import check_run
from layers import summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench-runs"

#: one BLAS thread per process: the matrices are small, and with a second
#: thread one n=20,000 `--algo ce` run took 13.7 s instead of 11.6 s
THREADS = "1"
#: set-up probes before each full invocation
PROBES = 2
RUN_LIMIT_S = 170.0


@dataclass(frozen=True)
class Workload:
    per_class: int
    epochs: int
    algo: str
    #: edmlab seeds of every round, whatever --seed is; None runs --seed
    fixed_seeds: tuple[int, ...] | None = None
    classes: int = 4
    rho: str = "0.6"
    omega: str = "0.5"

    def seeds(self, seed: int) -> list[int]:
        """edmlab seeds of one round, in the order --seed gives them."""
        if self.fixed_seeds is None:
            return [seed]
        k = seed % len(self.fixed_seeds)
        return list(self.fixed_seeds[k:] + self.fixed_seeds[:k])

    def flags(self, seed: int) -> list[str]:
        return ["--classes", str(self.classes),
                "--per-class", str(self.per_class), "--rho", self.rho,
                "--omega", self.omega, "--epochs", str(self.epochs),
                "--algo", self.algo, "--seed", str(seed)]


WORKLOADS = {
    # seed 0 collapses (NetD loses a class) and seeds 1 and 2 do not; the
    # same three seeds in every run keep that in every accuracy figure
    "edm-n2k": Workload(per_class=500, epochs=30, algo="edm",
                        fixed_seeds=(0, 1, 2)),
    "ce-n20k": Workload(per_class=5000, epochs=30, algo="ce"),
}

END_TO_END_UNITS = {
    "setup_s": "s", "train_s": "s", "epoch_s": "s", "eval_s": "s",
    "total_s": "s", "peak_rss_mb": "MB", "test_acc_last": "ratio",
    "split_ba": "ratio",
}


def _unit(name: str) -> str:
    if name == "backbone.step_us":
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name == "trace.overhead_ratio":
        return "ratio"
    return "count"


class Bench:
    """Launches, times and checks the operations of one benchmark run."""

    def __init__(self, workload: Workload, work: Path, deadline: float):
        self.workload = workload
        self.work = work
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("EDM_SEED", "EDM_NO_NUMBA", "PYTHONPATH")}
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            self.env[var] = THREADS
        self.launches = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[tuple[int, str], str] = {}

    def launch(self, seed: int, *, probe=False, trace=False) -> dict:
        """Run one child process; return its timings and exit status."""
        self.launches += 1
        op_dir = self.work / f"op{self.launches:03d}-seed{seed}"
        op_dir.mkdir(parents=True)
        cmd = [sys.executable, str(HERE / "child.py"), "--src", str(SRC),
               "--timing", str(op_dir / "timing.json")]
        if probe:
            cmd.append("--probe")
        if trace:
            cmd += ["--trace", str(op_dir / "spans.json")]
        cmd += ["--", *self.workload.flags(seed), "--out-dir",
                str(op_dir / "out")]
        with open(op_dir / "stdout.txt", "wb") as out, \
                open(op_dir / "stderr.txt", "wb") as err:
            launched = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env,
                                    cwd=ROOT)
            killer = threading.Timer(max(1.0, self.deadline - launched),
                                     proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            exited = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        op = {"dir": op_dir, "seed": seed, "rc": proc.returncode,
              "total_s": exited - launched,
              "rss_mb": usage.ru_maxrss * 1024 / 1e6}
        timing_path = op_dir / "timing.json"
        if proc.returncode != 0 or not timing_path.is_file():
            return op
        t = json.loads(timing_path.read_text())
        op["setup_s"] = t["train_enter"] - launched
        if not probe:
            op["train_s"] = t["train_exit"] - t["train_enter"]
            op["eval_s"] = t["main_return"] - t["train_exit"]
            marks = t["epochs"]
            op["epoch_gaps"] = [b - a for a, b in zip(marks, marks[1:])]
        return op

    def probe(self, seed: int) -> float:
        op = self.launch(seed, probe=True)
        if op["rc"] != 0 or "setup_s" not in op:
            raise RuntimeError(f"set-up probe failed with exit {op['rc']}; "
                               f"see {op['dir']}")
        return op["setup_s"]

    def operation(self, seed: int, trace=False) -> dict:
        """One full `edmlab run`: launched, timed, and its outputs checked."""
        self.attempted += 1
        op = self.launch(seed, trace=trace)
        if op["rc"] != 0 or "train_s" not in op:
            self.failed += 1
            op["ok"] = False
            return op
        w = self.workload
        try:
            errors, figures = check_run(
                op["dir"] / "out", classes=w.classes, per_class=w.per_class,
                rho=w.rho, omega=w.omega, epochs=w.epochs, algo=w.algo,
                stdout=(op["dir"] / "stdout.txt").read_text())
            if trace:
                op["spans"] = json.loads(
                    (op["dir"] / "spans.json").read_text())["spans"]
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            self.errors.append(f"seed {seed}: unreadable output: {exc!r} "
                               f"({op['dir']})")
            op["ok"] = False
            return op
        for name, value in figures.pop("digests").items():
            first = self.digests.setdefault((seed, name), value)
            if first != value:
                errors.append(f"{name} differs between two runs of one seed")
        self.errors += [f"seed {seed}: {e} ({op['dir']})" for e in errors]
        op.update(figures, ok=True)
        return op


def _round_totals(ops: list[dict]) -> dict | None:
    """Times summed over a round's seeds, accuracies averaged."""
    if not all(op["ok"] for op in ops):
        return None
    out = {k: sum(op[k] for op in ops)
           for k in ("train_s", "eval_s", "total_s")}
    for k in ("test_acc_last", "split_ba"):
        out[k] = statistics.fmean(op[k] for op in ops)
    return out


def _rounds(round_fn, seconds: float, start: float, at_least: int) -> list:
    """Whole rounds: `at_least` of them, then as many as fit in `seconds`."""
    out = []
    while True:
        began = time.monotonic()
        out.append(round_fn())
        now = time.monotonic()
        if len(out) >= at_least and now + (now - began) - start > seconds:
            return out


def end_to_end(bench: Bench, seed: int, seconds: float, start: float
               ) -> dict[str, float]:
    seeds = bench.workload.seeds(seed)
    setups = []

    def round_():
        ops = []
        for s in seeds:
            # set-up probes spread over the whole run, not bunched at its start
            setups.extend(bench.probe(s) for _ in range(PROBES))
            ops.append(bench.operation(s))
        return ops

    # at least two rounds, so that every time is a median of two or more
    rounds = _rounds(round_, seconds, start, at_least=2)
    ops = [op for ops in rounds for op in ops if op["ok"]]
    totals = [t for t in map(_round_totals, rounds) if t is not None]
    if not totals:
        raise RuntimeError("no round completed without a failure")
    setups += [op["setup_s"] for op in ops]

    def median_round(key):
        return statistics.median(t[key] for t in totals)

    return {
        "setup_s": statistics.median(setups),
        "train_s": median_round("train_s"),
        # a mean, not a median: the host runs in a fast and a slow state,
        # and a median of gaps jumps with the share of time spent in each
        "epoch_s": statistics.fmean(
            g for op in ops for g in op["epoch_gaps"]),
        "eval_s": median_round("eval_s"),
        "total_s": median_round("total_s"),
        "peak_rss_mb": max(op["rss_mb"] for op in ops),
        "test_acc_last": median_round("test_acc_last"),
        "split_ba": median_round("split_ba"),
    }


def per_layer(bench: Bench, seed: int, seconds: float, start: float
              ) -> dict[str, float]:
    layer_rounds, overheads, ratios = [], [], []

    def paired_round():
        # each seed untraced, then traced right after it, so that the two
        # runs of a pair see the machine in the same state
        plain_ops, traced_ops = [], []
        for s in bench.workload.seeds(seed):
            plain_ops.append(bench.operation(s))
            traced_ops.append(bench.operation(s, trace=True))
        plain = _round_totals(plain_ops)
        traced = _round_totals(traced_ops)
        if plain and traced:
            layer_rounds.append(summarize([op["spans"] for op in traced_ops]))
            if layer_rounds[-1]["gmm.em_faults"]:
                bench.errors.append(
                    f"seed {seed}: an EM fit lost log-likelihood or its "
                    f"weights do not sum to 1")
            overheads.append(traced["total_s"] - plain["total_s"])
            ratios.append(overheads[-1] / plain["total_s"])

    _rounds(paired_round, seconds, start, at_least=1)
    if not layer_rounds:
        raise RuntimeError("no traced round completed without a failure")
    metrics = {k: statistics.median(r[k] for r in layer_rounds)
               for k in layer_rounds[0]}
    metrics["trace.overhead_s"] = statistics.median(overheads)
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    if ns.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "edmlab" / "cli.py").is_file():
        print(f"perfbench: no edmlab sources under {SRC}", file=sys.stderr)
        return 2

    # a terminated run still kills and reaps the child it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    start = time.monotonic()
    work = RUNS / ns.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(WORKLOADS[ns.workload], work, start + RUN_LIMIT_S)
    try:
        # untimed: fills the bytecode and page caches before any timing
        bench.probe(bench.workload.seeds(ns.seed)[0])
        if ns.trace:
            metrics = per_layer(bench, ns.seed, ns.seconds, start)
            units = {k: _unit(k) for k in metrics}
        else:
            metrics = end_to_end(bench, ns.seed, ns.seconds, start)
            units = END_TO_END_UNITS
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    for err in bench.errors:
        print(f"perfbench: check failed: {err}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:28s} {value:14.6f} {units[name]}")
    print(f"operations: {bench.attempted} attempted, {bench.failed} failed; "
          f"checks {'passed' if not bench.errors else 'FAILED'}")
    print(json.dumps({
        "correct": not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
