"""Tests for tools/cmp_runs.py's directory diff (the runs themselves are slow
and stay out of the suite)."""

import json

import cmp_runs


def _tree(root, files):
    for rel, data in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return root


def test_identical_trees_do_not_differ(tmp_path):
    files = {"seed0/epochs.jsonl": b"{}\n", "seed0/netd_last.ckpt": b"\x00\x01"}
    assert cmp_runs.diff_dirs(_tree(tmp_path / "a", files),
                              _tree(tmp_path / "b", files)) == []


def test_changed_and_one_sided_files_differ(tmp_path):
    a = _tree(tmp_path / "a", {"x/same": b"1", "x/changed": b"12", "x/only_a": b""})
    b = _tree(tmp_path / "b", {"x/same": b"1", "x/changed": b"13", "only_b": b""})
    assert cmp_runs.diff_dirs(a, b) == ["only_b", "x/changed", "x/only_a"]


def test_run_manifest_is_ignored_at_any_depth(tmp_path):
    a = _tree(tmp_path / "a", {"run_manifest.json": b"1", "s/run_manifest.json": b"1"})
    b = _tree(tmp_path / "b", {"s/run_manifest.json": b"2"})
    assert cmp_runs.diff_dirs(a, b) == []
    assert cmp_runs.artifacts(a) == set()


def test_same_size_files_are_compared_by_content(tmp_path):
    a = _tree(tmp_path / "a", {"f.csv": b"0.5,1\n"})
    b = _tree(tmp_path / "b", {"f.csv": b"0.6,1\n"})
    assert cmp_runs.diff_dirs(a, b) == ["f.csv"]


def _eval_json(test_accuracy, split_ba):
    return json.dumps({"test_accuracy": test_accuracy,
                       "split_balanced_accuracy": split_ba,
                       "confusion": [[1]]}).encode()


def test_accuracies_read_each_cases_eval_json(tmp_path):
    root = _tree(tmp_path / "a", {"seed0/eval.json": _eval_json(0.75, 0.5),
                                  "seed0/epochs.jsonl": b"{}\n",
                                  "train-seed1/epochs.jsonl": b"{}\n"})
    assert cmp_runs.accuracies(root) == {
        "seed0": {"test_accuracy": 0.75, "split_balanced_accuracy": 0.5}}


def test_accuracy_lines_give_both_sides_per_case(tmp_path):
    a = _tree(tmp_path / "a", {"seed0/eval.json": _eval_json(0.747, 0.25),
                               "seed1/eval.json": _eval_json(0.994, 1.0)})
    b = _tree(tmp_path / "b", {"seed0/eval.json": _eval_json(0.748, 0.25),
                               "ce/eval.json": _eval_json(0.9, 0.5)})
    assert cmp_runs.accuracy_lines(a, b) == [
        "ce: test_accuracy - -> 0.9, split_balanced_accuracy - -> 0.5",
        "seed0: test_accuracy 0.747 -> 0.748, "
        "split_balanced_accuracy 0.25 -> 0.25",
        "seed1: test_accuracy 0.994 -> -, split_balanced_accuracy 1.0 -> -",
    ]


def test_package_lines_count_the_modules_only(tmp_path):
    src = _tree(tmp_path / "src", {"edmlab/a.py": b"x = 1\ny = 2\n",
                                   "edmlab/b.py": b"z = 3",
                                   "edmlab/notes.txt": b"1\n2\n",
                                   "edmlab/sub/c.py": b"w = 4\n",
                                   "other.py": b"v = 5\n"})
    assert cmp_runs.package_lines(src) == 2
    assert cmp_runs.package_lines(_tree(tmp_path / "empty", {"edmlab/x": b""})) == 0


def _manifest(work, **fields):
    record = {"command": "run", "started_at": "t0", "finished_at": "t1",
              "config": {"seed": 0, "out_dir": f"{work}/seed0"},
              "input_digests": {f"{work}/seed0/train.manifest": "ab"}}
    record.update(fields)
    return json.dumps(record).encode()


def test_run_manifests_compare_without_timestamps_or_work_paths(tmp_path):
    a, b = tmp_path / "parent", tmp_path / "change"
    _tree(a, {"seed0/run_manifest.json": _manifest(a)})
    _tree(b, {"seed0/run_manifest.json": _manifest(b, started_at="t2",
                                                   finished_at="t3")})
    assert cmp_runs.diff_manifests(a, b) == []
    assert cmp_runs.run_manifest(a / "seed0" / "run_manifest.json", a) == {
        "command": "run", "config": {"seed": 0, "out_dir": "{work}/seed0"},
        "input_digests": {"{work}/seed0/train.manifest": "ab"}}


def test_run_manifests_name_the_fields_that_differ(tmp_path):
    a, b = tmp_path / "parent", tmp_path / "change"
    _tree(a, {"s/run_manifest.json": _manifest(a),
              "only_a/run_manifest.json": _manifest(a)})
    _tree(b, {"s/run_manifest.json": _manifest(
        b, config={"seed": 0.0, "out_dir": f"{b}/seed0"},
        input_digests={f"{a}/seed0/train.manifest": "ab"}, error=None)})
    # a changed value type, a path under the other tree, and an added field
    assert cmp_runs.diff_manifests(a, b) == [
        "only_a/run_manifest.json (one side only)",
        "s/run_manifest.json (config, error, input_digests)"]


def test_only_gen_cases_write_no_out_dir(tmp_path):
    cases = dict(cmp_runs.CASES)
    assert cmp_runs.case_args("gen", cases["gen"], tmp_path) == [
        "gen", "--seed", "0", "--out", f"{tmp_path}/gen/bench.manifest"]
    assert cmp_runs.case_args("gen-test", cases["gen-test"], tmp_path) == [
        "gen", "--per-class", "250", "--rho", "0", "--seed", "3000",
        "--out", f"{tmp_path}/gen/test.manifest"]
    assert cmp_runs.case_args("train-seed1", cases["train-seed1"], tmp_path) == [
        "train", "--manifest", f"{tmp_path}/seed1/train.manifest",
        "--test-manifest", f"{tmp_path}/seed1/test.manifest",
        "--out-dir", str(tmp_path / "train-seed1")]


def test_printed_lines_compare_without_work_paths(tmp_path):
    a, b = tmp_path / "parent", tmp_path / "change"

    def line(work, **fields):
        record = {"event": "run", "out_dir": f"{work}/seed0", "epochs": 30}
        record.update(fields)
        return json.dumps(record) + "\n"

    assert cmp_runs.printed_line(line(a), a) \
        == '{"epochs": 30, "event": "run", "out_dir": "{work}/seed0"}'
    parent = {"seed0": cmp_runs.printed_line(line(a), a),
              "seed1": cmp_runs.printed_line(line(a), a),
              "only_a": cmp_runs.printed_line(line(a), a)}
    change = {"seed0": cmp_runs.printed_line(line(b), b),
              # a changed value type, and a path under the other tree
              "seed1": cmp_runs.printed_line(line(b, epochs=30.0), b),
              "gen": cmp_runs.printed_line(line(b, out_dir=f"{a}/gen"), b)}
    assert cmp_runs.diff_lines(parent, change) == ["gen", "only_a", "seed1"]
