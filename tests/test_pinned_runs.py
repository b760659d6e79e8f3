"""A run's bytes, pinned: two small runs are rerun and every artifact is
compared with the digests ``tools/pin_runs.py`` recorded for this
environment.  On an environment without digests the comparison is skipped,
saying so: bytes are only reproducible within one environment."""

import json

import pin_runs
import pytest


@pytest.mark.parametrize("case", sorted(pin_runs.CASES))
def test_run_bytes_match_the_pinned_digests(tmp_path, monkeypatch, case):
    monkeypatch.delenv("EDM_SEED", raising=False)
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
    env = {"python": "3.11.7", "numpy": "2.4.6", "platform": "Linux-6-x86_64",
           "threads": {"OPENBLAS_NUM_THREADS": None}}
    pinned = tmp_path / "pinned.json"
    pinned.write_text(json.dumps([{"environment": env, "runs": {"edm": {}}}]))
    assert pin_runs.recorded(env, pinned) == {"edm": {}}
    other = {**env, "threads": {"OPENBLAS_NUM_THREADS": "1"}}
    assert pin_runs.recorded(other, pinned) is None
