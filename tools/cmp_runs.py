"""Check that two source trees produce byte-identical artifacts.

Usage::

    python tools/cmp_runs.py PARENT_SRC CHANGE_SRC [--work DIR]

Each argument is an edmlab checkout (a directory holding ``src/edmlab``) or
its ``src`` directory.  On each tree, with one BLAS thread, the script runs
the refactor proof set:

* ``edmlab run --seed 0``, ``--seed 1`` and ``--seed 2`` at the defaults;
* ``edmlab run --algo ce --per-class 5000 --seed 0``;
* ``edmlab eval`` of seed 1's ``netd_last.ckpt`` on seed 1's manifests;
* ``edmlab train`` at the defaults on seed 1's manifests.

It then lists every artifact that differs between the two trees, ignoring
``run_manifest.json`` (which holds timestamps and paths), and exits 1 if
any does, 0 if none does, and 2 if a command fails.  Outputs go under
``--work`` (kept) or a temporary directory (removed).
"""

from __future__ import annotations

import argparse
import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path

IGNORED = ("run_manifest.json",)

#: (case name, edmlab arguments); ``{work}`` is the tree's output directory
CASES = (
    ("seed0", ["run", "--seed", "0"]),
    ("seed1", ["run", "--seed", "1"]),
    ("seed2", ["run", "--seed", "2"]),
    ("ce-n20k", ["run", "--algo", "ce", "--per-class", "5000", "--seed", "0"]),
    ("eval-seed1", ["eval", "--checkpoint", "{work}/seed1/netd_last.ckpt",
                    "--manifest", "{work}/seed1/train.manifest",
                    "--test-manifest", "{work}/seed1/test.manifest"]),
    ("train-seed1", ["train", "--manifest", "{work}/seed1/train.manifest",
                     "--test-manifest", "{work}/seed1/test.manifest"]),
)

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def artifacts(root: Path, ignored=IGNORED) -> set[str]:
    """Relative paths of the files under ``root``, less names in ``ignored``."""
    return {p.relative_to(root).as_posix() for p in root.rglob("*")
            if p.is_file() and p.name not in ignored}


def diff_dirs(a: Path, b: Path, ignored=IGNORED) -> list[str]:
    """Relative paths of the files under ``a`` and ``b`` that differ.

    A file present on one side only differs; names in ``ignored`` are
    skipped at any depth.  The result is sorted.
    """
    in_a, in_b = artifacts(a, ignored), artifacts(b, ignored)
    return sorted((in_a ^ in_b) | {rel for rel in in_a & in_b
                                   if not filecmp.cmp(a / rel, b / rel,
                                                      shallow=False)})


def _src_dir(tree: str) -> Path:
    root = Path(tree).resolve()
    src = root / "src" if (root / "src" / "edmlab").is_dir() else root
    if not (src / "edmlab").is_dir():
        raise SystemExit(f"{tree}: no edmlab package under it or its src/")
    return src


def run_tree(src: Path, work: Path) -> None:
    """Run every case of the proof set on the package under ``src``."""
    env = {k: v for k, v in os.environ.items() if k != "EDM_SEED"}
    env.update({var: "1" for var in _THREAD_VARS}, PYTHONPATH=str(src))
    for name, args in CASES:
        cmd = [sys.executable, "-m", "edmlab.cli",
               *(a.format(work=work) for a in args), "--out-dir", str(work / name)]
        done = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if done.returncode:
            print(f"{src}: {' '.join(cmd[3:])} exited {done.returncode}\n"
                  f"{done.stderr}", file=sys.stderr)
            raise SystemExit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the reference checkout or its src/")
    parser.add_argument("change", help="the checkout under test or its src/")
    parser.add_argument("--work", help="keep the outputs in this directory")
    ns = parser.parse_args(argv)
    sides = {"parent": _src_dir(ns.parent), "change": _src_dir(ns.change)}
    if ns.work and Path(ns.work).exists() and any(Path(ns.work).iterdir()):
        raise SystemExit(f"--work {ns.work} must be empty or not exist")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(ns.work or tmp).resolve()
        for side, src in sides.items():
            run_tree(src, work / side)
        compared = len(artifacts(work / "parent"))
        differing = diff_dirs(work / "parent", work / "change")
    for rel in differing:
        print(f"differs: {rel}")
    print(f"{len(CASES)} cases: {len(differing)} of {compared} artifacts differ "
          f"(ignoring {', '.join(IGNORED)})")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
