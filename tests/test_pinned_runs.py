"""A run's bytes, pinned: two small runs are rerun and every artifact is
compared with the digests ``tools/pin_runs.py`` recorded for this
environment.  On an environment without digests the comparison is skipped,
saying so: bytes are only reproducible within one environment."""

import json
import os
import subprocess
import sys

import pin_runs
import pytest
from numpy._core._multiarray_umath import __cpu_features__

from edmlab import cli

#: numpy's AVX-512 kernels, off: a setting that moves a run's bytes
_NO_AVX512 = "AVX512_SPR AVX512_ICL X86_V4"


@pytest.mark.parametrize("case", sorted(pin_runs.CASES))
def test_run_bytes_match_the_pinned_digests(tmp_path, case):
    environment, digests = pin_runs.run_digests(pin_runs.CASES[case], tmp_path)
    pinned = pin_runs.recorded(environment)
    if pinned is None:
        pytest.skip(f"no digests are pinned for the environment {environment}; "
                    "tools/pin_runs.py records them")
    differing = sorted(name for name in digests.keys() | pinned[case].keys()
                       if digests.get(name) != pinned[case].get(name))
    assert not differing, ("artifacts differ from the pinned digests: "
                           + ", ".join(differing))


def test_digests_are_looked_up_by_the_whole_environment(tmp_path):
    env = {"python": "3.11.7", "numpy": "2.4.6", "machine": "x86_64",
           "libc": ["glibc", "2.36"],
           "simd": {"X86_V3": True, "X86_V4": True},
           "threads": {"OPENBLAS_NUM_THREADS": None}}
    pinned = tmp_path / "pinned.json"
    pinned.write_text(json.dumps([{"environment": env, "runs": {"edm": {}}}]))
    assert pin_runs.recorded(env, pinned) == {"edm": {}}
    for other in ({**env, "threads": {"OPENBLAS_NUM_THREADS": "1"}},
                  {**env, "simd": {"X86_V3": True, "X86_V4": False}},
                  {**env, "libc": ["glibc", "2.41"]}):
        assert pin_runs.recorded(other, pinned) is None


@pytest.mark.skipif(not __cpu_features__.get("X86_V4"),
                    reason="numpy runs no X86_V4 kernels here")
def test_a_run_without_avx512_records_another_environment(tmp_path):
    """With numpy's AVX-512 kernels off, the pinned ``ce`` run records an
    environment of its own, so its bytes are not looked up under this one's
    digests: a lookup that cannot find them skips instead of failing."""
    src, tools = (str(pin_runs.REPO / name) for name in ("src", "tools"))
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=_NO_AVX512,
               PYTHONPATH=os.pathsep.join([src, tools]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, pathlib, sys, pin_runs; "
         "environment, _ = pin_runs.run_digests(pin_runs.CASES['ce'], "
         "pathlib.Path(sys.argv[1])); print(json.dumps(environment))",
         str(tmp_path / "ce")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    environment = json.loads(proc.stdout.splitlines()[-1])
    here = cli._environment()
    assert {key for key in here if environment[key] != here[key]} == {"simd"}
    assert not any(environment["simd"][target] for target in _NO_AVX512.split())
    assert pin_runs.recorded(environment) is None
