"""Check that two source trees produce byte-identical artifacts.

Usage::

    python tools/cmp_runs.py PARENT_SRC CHANGE_SRC [--work DIR]

Each argument is an edmlab checkout (a directory holding ``src/edmlab``) or
its ``src`` directory.  On each tree, with one BLAS thread, the script runs
the refactor proof set:

* ``edmlab run --seed 0``, ``--seed 1`` and ``--seed 2`` at the defaults;
* ``edmlab run --algo ce --per-class 5000 --seed 0``;
* ``edmlab eval`` of seed 1's ``netd_last.ckpt`` on seed 1's manifests;
* ``edmlab train`` at the defaults on seed 1's manifests;
* ``edmlab gen --seed 0`` into ``gen/bench.manifest``.

It then lists every artifact that differs between the two trees, and exits
1 if any does, 0 if none does, and 2 if a command fails.  Each
``run_manifest.json`` is compared field by field, less its timestamps
(``started_at``, ``finished_at``), with each tree's output directory
written as ``{work}`` in its paths; a differing one is listed with the
fields that differ.  Each case's printed JSON line is compared the same
way, with ``{work}`` in its paths; each case whose line differs is listed,
and also makes the script exit 1.  When some artifact differs, it also
prints each case's test accuracy and split balanced
accuracy from both trees' ``eval.json``, so a change to rounding reports
its acceptance figures before and after.  Its summary also gives the line
count of ``src/edmlab/*.py`` on both trees.  Outputs go under ``--work``
(kept) or a temporary directory (removed).
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

MANIFEST = "run_manifest.json"
#: compared by ``diff_manifests``, not byte for byte
IGNORED = (MANIFEST,)

#: run manifest fields that differ from run to run
TIMESTAMPS = ("started_at", "finished_at")

#: eval.json figures printed for both trees when artifacts differ
ACCURACY_KEYS = ("test_accuracy", "split_balanced_accuracy")

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
    ("gen", ["gen", "--seed", "0", "--out", "{work}/gen/bench.manifest"]),
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


def _at_work(value, work: str):
    """``value`` with each string path under ``work``, dict keys included,
    written relative to ``{work}``."""
    if isinstance(value, dict):
        return {_at_work(k, work): _at_work(v, work) for k, v in value.items()}
    if isinstance(value, list):
        return [_at_work(v, work) for v in value]
    if isinstance(value, str) and (value == work or value.startswith(work + os.sep)):
        return "{work}" + value[len(work):]
    return value


def run_manifest(path: Path, work: Path) -> dict:
    """The run manifest at ``path`` less its timestamps, with the paths
    under ``work`` written relative to ``{work}``."""
    fields = json.loads(path.read_text())
    for name in TIMESTAMPS:
        fields.pop(name, None)
    return _at_work(fields, str(work))


def diff_manifests(a: Path, b: Path) -> list[str]:
    """Each run manifest under ``a`` or ``b`` that differs, as
    ``rel (field, ...)``; each side's root is its ``{work}``.

    A manifest on one side only differs as a whole.  The result is sorted.
    """
    in_a, in_b = ({p.relative_to(root).as_posix() for p in root.rglob(MANIFEST)}
                  for root in (a, b))
    differing = []
    for rel in sorted(in_a | in_b):
        if rel not in in_a & in_b:
            differing.append(f"{rel} (one side only)")
            continue
        # each field as JSON text, so that 0 and 0.0 (or 1 and true) differ
        old, new = ({name: json.dumps(value, sort_keys=True) for name, value
                     in run_manifest(root / rel, root).items()} for root in (a, b))
        fields = sorted(name for name in old.keys() | new.keys()
                        if old.get(name) != new.get(name))
        if fields:
            differing.append(f"{rel} ({', '.join(fields)})")
    return differing


def printed_line(stdout: str, work: Path) -> str:
    """The JSON line a command printed, as sorted-key JSON text with the
    paths under ``work`` written relative to ``{work}``."""
    return json.dumps(_at_work(json.loads(stdout), str(work)), sort_keys=True)


def diff_lines(a: dict[str, str], b: dict[str, str]) -> list[str]:
    """The cases whose printed lines differ between ``a`` and ``b``
    (case name -> ``printed_line``); a case on one side only differs."""
    return sorted(case for case in a.keys() | b.keys()
                  if a.get(case) != b.get(case))


def accuracies(root: Path) -> dict[str, dict]:
    """Each case's eval.json figures: case name -> {key: value}, for the
    cases under ``root`` that wrote an eval.json."""
    return {path.parent.name: {key: json.loads(path.read_text())[key]
                               for key in ACCURACY_KEYS}
            for path in root.glob("*/eval.json")}


def accuracy_lines(parent: Path, change: Path) -> list[str]:
    """One line per case with an eval.json on either side, giving each
    figure as ``parent -> change`` (``-`` where a side has none)."""
    before, after = accuracies(parent), accuracies(change)
    return [f"{case}: " + ", ".join(
                f"{key} {before.get(case, {}).get(key, '-')} -> "
                f"{after.get(case, {}).get(key, '-')}" for key in ACCURACY_KEYS)
            for case in sorted(before.keys() | after.keys())]


def package_lines(src: Path) -> int:
    """Lines in the modules ``src/edmlab/*.py``, counted as ``wc -l`` does."""
    return sum(path.read_bytes().count(b"\n")
               for path in (src / "edmlab").glob("*.py"))


def _src_dir(tree: str) -> Path:
    root = Path(tree).resolve()
    src = root / "src" if (root / "src" / "edmlab").is_dir() else root
    if not (src / "edmlab").is_dir():
        raise SystemExit(f"{tree}: no edmlab package under it or its src/")
    return src


def case_args(name: str, args: list[str], work: Path) -> list[str]:
    """The edmlab arguments of one case on the tree whose outputs go under
    ``work``; every command but ``gen`` writes into ``work/name``."""
    args = [a.format(work=work) for a in args]
    return args if args[0] == "gen" else args + ["--out-dir", str(work / name)]


def run_tree(src: Path, work: Path) -> dict[str, str]:
    """Run every case of the proof set on the package under ``src``; returns
    each case's ``printed_line``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.update({var: "1" for var in _THREAD_VARS})
    lines = {}
    for name, args in CASES:
        cmd = [sys.executable, "-m", "edmlab.cli", *case_args(name, args, work)]
        done = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if done.returncode:
            print(f"{src}: {' '.join(cmd[3:])} exited {done.returncode}\n"
                  f"{done.stderr}", file=sys.stderr)
            raise SystemExit(2)
        lines[name] = printed_line(done.stdout, work)
    return lines


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
        lines = {side: run_tree(src, work / side) for side, src in sides.items()}
        parent, change = work / "parent", work / "change"
        compared = len(artifacts(parent, ignored=()))
        differing = diff_dirs(parent, change) + diff_manifests(parent, change)
        figures = accuracy_lines(parent, change)
    line_diffs = diff_lines(lines["parent"], lines["change"])
    for rel in differing:
        print(f"differs: {rel}")
    for case in line_diffs:
        print(f"printed line differs: {case}")
    if differing:
        print(*figures, sep="\n")
    print(f"{len(CASES)} cases: {len(differing)} of {compared} artifacts differ "
          f"({MANIFEST} without {', '.join(TIMESTAMPS)}), "
          f"{len(line_diffs)} printed lines differ")
    print(f"src/edmlab: {package_lines(sides['parent'])} -> "
          f"{package_lines(sides['change'])} lines")
    return 1 if differing or line_diffs else 0


if __name__ == "__main__":
    sys.exit(main())
