"""Pin the bytes of two small runs: the sha256 of every artifact they write.

Usage::

    python tools/pin_runs.py

Runs acceptance 09's run (``edmlab run --per-class 30 --epochs 2 ...``) and
the same run with ``--algo ce``, in this process on this checkout's
``src``, and records the sha256 of every artifact in
``tests/pinned_runs.json``.  ``run_manifest.json`` is hashed as
``tools/cmp_runs.py`` compares it: without its timestamps, and with the
output directory written as ``{work}``.  The digests are keyed by the
environment that the runs' ``run_manifest.json`` records (Python, numpy,
machine architecture, C library, the SIMD targets numpy dispatches to, BLAS
thread variables): this environment's entry is replaced, the others are
kept.  ``tests/test_pinned_runs.py`` reruns both runs and
compares.  Run it after a change that moves a run's bytes on purpose, and
say which artifacts moved and why.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

# run manifests are hashed in the form cmp_runs compares them
import cmp_runs

REPO = Path(__file__).resolve().parents[1]
PINNED = REPO / "tests" / "pinned_runs.json"

_RUN = ["run", "--per-class", "30", "--rho", "0.6", "--omega", "0.5",
        "--epochs", "2", "--warmup-d", "1", "--warmup-s", "2", "--seed", "5"]
#: case name -> edmlab arguments, less ``--out-dir``
CASES = {"edm": _RUN, "ce": _RUN + ["--algo", "ce"]}


def run_digests(args: list[str], out_dir: Path) -> tuple[dict, dict]:
    """Run edmlab with ``args`` into ``out_dir``; return the environment its
    run manifest records and {artifact: sha256} for every artifact."""
    from edmlab.cli import EXIT_OK, main

    code = main([*args, "--out-dir", str(out_dir)])
    if code != EXIT_OK:
        raise RuntimeError(f"edmlab {' '.join(args)} exited {code}")
    manifest = cmp_runs.run_manifest(out_dir / cmp_runs.MANIFEST, out_dir)
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(out_dir.iterdir())
               if path.name != cmp_runs.MANIFEST}
    digests[cmp_runs.MANIFEST] = hashlib.sha256(
        json.dumps(manifest, sort_keys=True).encode()).hexdigest()
    return manifest["environment"], digests


def recorded(environment: dict, path: Path = PINNED) -> dict | None:
    """The pinned {case: {artifact: sha256}} of ``environment``, if any."""
    for entry in json.loads(path.read_text()):
        if entry["environment"] == environment:
            return entry["runs"]
    return None


def main() -> int:
    sys.path.insert(0, str(REPO / "src"))
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case, args in CASES.items():
            environment, runs[case] = run_digests(args, Path(tmp) / case)
    kept = [entry for entry in json.loads(PINNED.read_text())
            if entry["environment"] != environment] if PINNED.exists() else []
    entries = kept + [{"environment": environment, "runs": runs}]
    PINNED.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n")
    print(f"{PINNED.relative_to(REPO)}: {len(runs)} runs pinned for "
          f"{json.dumps(environment, sort_keys=True)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
