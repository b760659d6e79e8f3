"""Tests for the command-line interface: config resolution, subcommands,
artifact layout, exit codes, and rerun determinism."""

import argparse
import ast
import functools
import inspect
import itertools
import json
import math
import os
import platform
import re
import signal
import struct
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import reframe
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from edmlab import benchgen, cli
from edmlab import train as train_mod
from edmlab.backbone import (MOMENTUM, ROLE_NETD, ROLE_NETS, WEIGHT_DECAY,
                             forward_logits, init_model)
from edmlab.benchgen import DatasetManifest, NoiseSpec, Provenance
from edmlab.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_RUNTIME,
    main,
    parse_config,
)
from edmlab.errors import ConfigError, NumericsError
from edmlab.evaluation import split_confusion
from edmlab.gmm import GmmConfig, fit_em, group_posteriors, normalize_losses, partition
from edmlab.losses import sl_dataset_loss
from edmlab.manifest_io import (load_checkpoint, load_manifest, save_checkpoint,
                                save_manifest)

REPO = Path(__file__).resolve().parents[1]


def run_cli(*args):
    return main([str(a) for a in args])


def gen_pair(tmp_path, per_class=30, rho=0.6, omega=0.5, seed=7):
    """Generate a small train/test manifest pair; returns their paths."""
    train = tmp_path / "train.manifest"
    test = tmp_path / "test.manifest"
    assert run_cli("gen", "--classes", 4, "--per-class", per_class,
                   "--rho", rho, "--omega", omega, "--seed", seed,
                   "--out", train) == EXIT_OK
    assert run_cli("gen", "--classes", 4, "--per-class", per_class // 2,
                   "--rho", 0, "--seed", seed + 3000,
                   "--out", test) == EXIT_OK
    return train, test


def checkpoint_args(tmp_path, widths=(8, 64, 64, 4)):
    """``--checkpoint`` and an untrained network saved for ``eval`` to read."""
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(init_model(widths, seed=0), ckpt)
    return ["--checkpoint", ckpt]


def _resolved_key(node):
    """``k`` for the expression ``resolved["k"]``, else None."""
    if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "resolved"
            and isinstance(node.slice, ast.Constant)):
        return node.slice.value
    return None


def _generator_calls():
    """Each ``benchgen`` call that ``cli`` makes to generate data, as
    (callable, {parameter: the key whose resolved value it gets, or None})."""
    for source in (cli._generate_benchmark, cli._generate_test_set):
        for call in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(source)))):
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and callable(getattr(benchgen, call.func.id, None))):
                continue
            fn = getattr(benchgen, call.func.id)
            bound = inspect.signature(fn).bind(
                *map(_resolved_key, call.args),
                **{kw.arg: _resolved_key(kw.value) for kw in call.keywords})
            yield fn, bound.arguments


#: one out-of-range value per key, in the order their errors win
_FAULTS = {"psi": 0, "mu_min": 0.9, "mu_max": 0.1, "lambda_u": -1.0,
           "lambda_reg": -1.0, "epochs": -1, "batch": 0, "m": 0, "t": 0.0,
           "mix_alpha": 0.0, "lr": 0.0, "warmup_d": -1, "warmup_s": -1,
           "seed": -1, "rho": 1.5, "omega": 2.0}


class TestParseConfig:
    def test_no_flags_gives_documented_defaults(self):
        cfg, resolved = parse_config({}, None, "run")
        assert cfg.num_augments == 2
        assert cfg.temperature == 0.5
        assert cfg.mix_alpha == 4.0
        assert cfg.lambda_u == 25.0
        assert cfg.lambda_reg == 1.0
        assert cfg.gmm.num_components == 20
        assert cfg.gmm.mu_min == 0.3
        assert cfg.gmm.mu_max == 0.7
        assert MOMENTUM == 0.8
        assert WEIGHT_DECAY == 5e-4
        assert cfg.batch_size == 64
        assert cfg.epochs == 30
        assert cfg.learning_rate == 0.02

    def test_out_of_range_value_names_the_flag(self):
        with pytest.raises(ConfigError, match="--rho"):
            parse_config({"rho": 1.5}, None, "run")

    def test_flag_overrides_file_overrides_default(self, tmp_path):
        conf = tmp_path / "exp.conf"
        conf.write_text("t=1.0\nepochs=5\n")
        cfg, _ = parse_config({"t": 0.5}, str(conf), "run")
        assert cfg.temperature == 0.5  # flag wins
        assert cfg.epochs == 5  # file beats default

    def test_file_accepts_comments_and_hyphenated_keys(self, tmp_path):
        conf = tmp_path / "exp.conf"
        conf.write_text("# temperature\nmix-alpha = 2.0\n\nlambda-u=10\n")
        cfg, _ = parse_config({}, str(conf), "run")
        assert cfg.mix_alpha == 2.0
        assert cfg.lambda_u == 10.0

    def test_unknown_file_key_rejected(self, tmp_path):
        conf = tmp_path / "exp.conf"
        conf.write_text("learning=0.1\n")
        with pytest.raises(ConfigError, match="learning"):
            parse_config({}, str(conf), "run")

    def test_unparseable_file_value_rejected(self, tmp_path):
        conf = tmp_path / "exp.conf"
        conf.write_text("epochs=ten\n")
        with pytest.raises(ConfigError, match="epochs"):
            parse_config({}, str(conf), "run")

    def test_file_key_outside_the_command_rejected(self, tmp_path):
        conf = tmp_path / "exp.conf"
        conf.write_text("per_class=10\n# training\nepochs=5\n")
        parse_config({}, str(conf), "run")
        with pytest.raises(ConfigError, match=r"exp.conf:3: key 'epochs'"):
            parse_config({}, str(conf), "gen")

    def test_file_may_start_with_a_byte_order_mark(self, tmp_path):
        conf = tmp_path / "bom.conf"
        conf.write_bytes(b"\xef\xbb\xbfepochs=5\n")
        cfg, _ = parse_config({}, str(conf), "run")
        assert cfg.epochs == 5

    @pytest.mark.parametrize("second", ["epochs=7", "lambda_u=10"])
    def test_key_set_twice_rejected(self, tmp_path, capsys, second):
        """A second line for a key, however it spells the key, exits 2
        naming the file, the first line and the second."""
        first = "epochs=5" if second.startswith("epochs") else "lambda-u=25"
        conf = tmp_path / "twice.conf"
        conf.write_text(f"{first}\n# again\n{second}\n")
        key = second.partition("=")[0]
        with pytest.raises(ConfigError) as exc:
            parse_config({}, str(conf), "run")
        assert str(exc.value) == f"{conf}:1: key {key!r} is set again on line 3"
        out_dir = tmp_path / "out"
        assert run_cli("run", "--config", conf, "--out-dir", out_dir) \
            == EXIT_CONFIG
        assert capsys.readouterr().err \
            == f"config error: {conf}:1: key {key!r} is set again on line 3\n"
        assert not out_dir.exists()

    def test_missing_config_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config({}, str(tmp_path / "absent.conf"), "run")

    def test_band_bounds_must_be_ordered(self):
        with pytest.raises(ConfigError, match="--mu-min"):
            parse_config({"mu_min": 0.7, "mu_max": 0.3}, None, "run")

    @pytest.mark.parametrize("bounds", [{"mu_min": 0.0}, {"mu_max": 1.5}])
    def test_band_bounds_must_lie_inside_the_unit_interval(self, bounds):
        with pytest.raises(ConfigError, match="--mu-min/--mu-max"):
            parse_config(bounds, None, "run")

    @pytest.mark.parametrize("first,second", [
        pair for pair in itertools.combinations(_FAULTS, 2)
        if set(pair) != {"mu_min", "mu_max"}])
    def test_of_two_faults_the_earlier_key_wins(self, first, second):
        """With two out-of-range keys, the error is the one ``first`` alone
        raises: the ``GmmConfig`` keys, then the loss weights, then the rest
        of ``TrainConfig`` in the order its checks run, then the noise rates.
        (``--mu-min`` and ``--mu-max`` share one check and one message.)"""
        with pytest.raises(ConfigError) as alone:
            parse_config({first: _FAULTS[first]}, None, "run")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(alone.value))}$"):
            parse_config({first: _FAULTS[first], second: _FAULTS[second]},
                         None, "run")


class TestGen:
    def test_writes_manifest_with_exact_counts(self, tmp_path):
        out = tmp_path / "bench.manifest"
        assert run_cli("gen", "--classes", 4, "--per-class", 50,
                       "--rho", 0.6, "--omega", 0.5, "--seed", 3,
                       "--out", out) == EXIT_OK
        ds = load_manifest(out)
        assert len(ds) == 200
        assert ds.counts == (80, 60, 60)

    def test_gen_is_deterministic(self, tmp_path):
        a = tmp_path / "a.manifest"
        b = tmp_path / "b.manifest"
        for out in (a, b):
            assert run_cli("gen", "--per-class", 25, "--seed", 11,
                           "--out", out) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_missing_out_is_config_error(self):
        assert run_cli("gen", "--per-class", 10) == EXIT_CONFIG

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("gen", "--spred", 0.5, "--out", "x.manifest")
        assert exc.value.code == 2

    def test_range_error_exits_two(self, tmp_path, capsys):
        code = run_cli("gen", "--rho", 1.5, "--out", tmp_path / "x.manifest")
        assert code == EXIT_CONFIG
        assert "--rho" in capsys.readouterr().err

    def test_config_key_gen_does_not_read_exits_two(self, tmp_path, capsys):
        conf = tmp_path / "f"
        conf.write_text("epochs=5\n")
        out = tmp_path / "x.manifest"
        assert run_cli("gen", "--config", conf, "--per-class", 10,
                       "--out", out) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{conf}:1:" in err and "'epochs'" in err
        assert list(tmp_path.iterdir()) == [conf]


class TestTrain:
    def test_artifacts_and_log_schema(self, tmp_path):
        train, test = gen_pair(tmp_path)
        out_dir = tmp_path / "out"
        assert run_cli("train", "--manifest", train, "--test-manifest", test,
                       "--epochs", 2, "--warmup-d", 1, "--warmup-s", 2,
                       "--out-dir", out_dir) == EXIT_OK
        for name in ("epochs.jsonl", "netd_best.ckpt", "netd_last.ckpt",
                     "nets_last.ckpt", "run_manifest.json"):
            assert (out_dir / name).is_file()
        records = [json.loads(line)
                   for line in (out_dir / "epochs.jsonl").read_text().splitlines()]
        assert len(records) == 2
        for rec in records:
            assert rec["schema_version"] == 1
            assert rec["algo"] == "edm"
            assert rec["n_x"] + rec["n_u"] + rec["n_o"] == 120
            # the confusion tallies the very split the epoch trained on
            assert np.sum(rec["confusion"], axis=0).tolist() \
                == [rec["n_x"], rec["n_u"], rec["n_o"]]

    def test_run_manifest_lists_every_artifact(self, tmp_path):
        train, test = gen_pair(tmp_path)
        out_dir = tmp_path / "out"
        assert run_cli("train", "--manifest", train, "--test-manifest", test,
                       "--epochs", 1, "--warmup-d", 1, "--warmup-s", 1,
                       "--out-dir", out_dir) == EXIT_OK
        manifest = json.loads((out_dir / "run_manifest.json").read_text())
        on_disk = sorted(p.name for p in out_dir.iterdir())
        assert manifest["artifacts"] == on_disk
        assert manifest["outcome"] == "ok"
        assert manifest["started_at"] <= manifest["finished_at"]
        assert set(manifest["input_digests"]) == {str(train), str(test)}
        config = manifest["config"]
        assert config["epochs"] == 1
        # the fixed settings are recorded with their values
        assert config["momentum"] == 0.8
        assert config["weight_decay"] == 5e-4
        assert config["lr_drop_factor"] == 0.1
        assert config["lr_drop_epoch"] == 1
        assert config["hidden_widths"] == [64, 64]
        assert config["augment_mode"] == "gaussian_jitter"
        assert config["jitter_sigma"] == 0.05
        # the manifests' own headers record how their data were corrupted
        assert "open_source" not in config
        assert "flip_distribution" not in config
        # only the keys train reads: no benchmark geometry, no eval/gen paths
        for key in ("per_class", "rho", "omega", "classes", "dim",
                    "checkpoint", "out"):
            assert key not in config
        eval_dir = tmp_path / "eval"
        assert run_cli("eval", "--checkpoint", out_dir / "netd_last.ckpt",
                       "--manifest", train, "--test-manifest", test,
                       "--out-dir", eval_dir) == EXIT_OK
        config = json.loads((eval_dir / "run_manifest.json").read_text())["config"]
        assert set(config) == {"checkpoint", "manifest", "test_manifest",
                               "psi", "mu_min", "mu_max", "out_dir"}

    def test_missing_manifest_file_is_data_error(self, tmp_path):
        out_dir = tmp_path / "out"
        code = run_cli("train", "--manifest", tmp_path / "nope.manifest",
                       "--test-manifest", tmp_path / "nope2.manifest",
                       "--epochs", 1, "--out-dir", out_dir)
        assert code == EXIT_DATA
        assert not out_dir.exists()  # no partial artifacts

    def test_ce_baseline_writes_no_splitter_checkpoint(self, tmp_path):
        train, test = gen_pair(tmp_path)
        out_dir = tmp_path / "out"
        assert run_cli("train", "--manifest", train, "--test-manifest", test,
                       "--epochs", 1, "--warmup-d", 1, "--warmup-s", 1,
                       "--algo", "ce", "--out-dir", out_dir) == EXIT_OK
        assert (out_dir / "netd_last.ckpt").is_file()
        assert not (out_dir / "nets_last.ckpt").exists()
        rec = json.loads((out_dir / "epochs.jsonl").read_text().splitlines()[0])
        assert rec["algo"] == "ce"

    def test_zero_epochs_report_no_accuracy(self, tmp_path, capsys):
        train, test = gen_pair(tmp_path)
        out_dir = tmp_path / "out"
        capsys.readouterr()
        assert run_cli("train", "--manifest", train, "--test-manifest", test,
                       "--epochs", 0, "--warmup-d", 1, "--warmup-s", 1,
                       "--out-dir", out_dir) == EXIT_OK
        printed = json.loads(capsys.readouterr().out)
        assert printed["best_accuracy"] is None
        assert printed["last_accuracy"] is None
        assert (out_dir / "epochs.jsonl").read_bytes() == b""
        assert ((out_dir / "netd_best.ckpt").read_bytes()
                == (out_dir / "netd_last.ckpt").read_bytes())

    def test_bad_algo_is_config_error(self, tmp_path):
        train, test = gen_pair(tmp_path)
        assert run_cli("train", "--manifest", train, "--test-manifest", test,
                       "--algo", "sgd",
                       "--out-dir", tmp_path / "out") == EXIT_CONFIG


class TestEval:
    def test_exports_present_and_parseable(self, tmp_path):
        train, test = gen_pair(tmp_path)
        out_dir = tmp_path / "out"
        assert run_cli("train", "--manifest", train, "--test-manifest", test,
                       "--epochs", 1, "--warmup-d", 1, "--warmup-s", 2,
                       "--out-dir", out_dir) == EXIT_OK
        eval_dir = tmp_path / "eval"
        assert run_cli("eval", "--checkpoint", out_dir / "netd_last.ckpt",
                       "--manifest", train, "--test-manifest", test,
                       "--out-dir", eval_dir) == EXIT_OK
        summary = json.loads((eval_dir / "eval.json").read_text())
        assert 0.0 <= summary["test_accuracy"] <= 1.0
        assert np.asarray(summary["confusion"]).sum() == 120
        hist = (eval_dir / "loss_histogram.csv").read_text().splitlines()
        assert hist[0] == "bin_lo,bin_hi,clean,closed,open"
        assert len(hist) == 21
        post = (eval_dir / "posteriors.csv").read_text().splitlines()
        assert len(post) == 121
        feats = (eval_dir / "features.csv").read_text().splitlines()
        assert len(feats) == 121

    def test_missing_checkpoint_is_data_error(self, tmp_path):
        train, test = gen_pair(tmp_path)
        assert run_cli("eval", "--checkpoint", tmp_path / "none.ckpt",
                       "--manifest", train, "--test-manifest", test,
                       "--out-dir", tmp_path / "e") == EXIT_DATA


class TestRun:
    def _run_once(self, tmp_path, name, seed=5):
        out_dir = tmp_path / name
        assert run_cli("run", "--per-class", 30, "--rho", 0.6, "--omega", 0.5,
                       "--epochs", 1, "--warmup-d", 1, "--warmup-s", 2,
                       "--seed", seed, "--out-dir", out_dir) == EXIT_OK
        return out_dir

    def test_generates_and_completes_all_artifacts(self, tmp_path):
        out_dir = self._run_once(tmp_path, "r0")
        expected = {"train.manifest", "test.manifest", "epochs.jsonl",
                    "netd_best.ckpt", "netd_last.ckpt", "nets_last.ckpt",
                    "loss_histogram.csv", "posteriors.csv", "features.csv",
                    "eval.json", "run_manifest.json"}
        assert {p.name for p in out_dir.iterdir()} == expected
        manifest = json.loads((out_dir / "run_manifest.json").read_text())
        assert sorted(expected) == manifest["artifacts"]

    def test_rerun_is_byte_identical(self, tmp_path):
        a = self._run_once(tmp_path, "a")
        b = self._run_once(tmp_path, "b")
        for name in ("epochs.jsonl", "netd_best.ckpt", "netd_last.ckpt",
                     "nets_last.ckpt", "train.manifest", "test.manifest"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_separate_stages_and_library_cell_reproduce_its_data(self, tmp_path):
        """README's two ``gen`` commands write ``run``'s manifests byte for
        byte, and its library cell builds manifests equal to both.  The test
        set's ``gen --rho 0`` matches only because ``inject_noise`` at rho=0
        keeps the clean set's spec, not the omega and seed it was given."""
        out = tmp_path / "run"
        assert run_cli("run", "--per-class", 30, "--epochs", 0, "--seed", 0,
                       "--out-dir", out) == EXIT_OK
        train, test = tmp_path / "train.manifest", tmp_path / "test.manifest"
        assert run_cli("gen", "--classes", 4, "--per-class", 30, "--rho", 0.6,
                       "--omega", 0.5, "--seed", 0, "--out", train) == EXIT_OK
        assert run_cli("gen", "--classes", 4, "--per-class", 15, "--rho", 0,
                       "--seed", 3000, "--out", test) == EXIT_OK
        for path in (train, test):
            assert path.read_bytes() == (out / path.name).read_bytes(), path.name

        clean = benchgen.make_synthetic_clean(4, 30, 8, 0.5, seed=0)
        pool = benchgen.make_open_pool(2, 18, 8, 0.5, 8.0, seed=1000)  # 36 open
        noisy = benchgen.inject_noise(clean, pool,
                                      NoiseSpec(rho=0.6, omega=0.5, seed=2000))
        assert noisy == load_manifest(train)
        assert benchgen.make_synthetic_clean(4, 15, 8, 0.5, seed=3000) \
            == load_manifest(test)

    def test_eval_of_the_last_checkpoint_reproduces_the_run(self, tmp_path):
        """A checkpoint is the network its run exported: ``eval`` of
        netd_last.ckpt on the run's manifests writes the run's features.csv
        byte for byte and scores the run's test accuracy."""
        run_dir = self._run_once(tmp_path, "run", seed=1)
        eval_dir = tmp_path / "eval"
        assert run_cli("eval", "--checkpoint", run_dir / "netd_last.ckpt",
                       "--manifest", run_dir / "train.manifest",
                       "--test-manifest", run_dir / "test.manifest",
                       "--out-dir", eval_dir) == EXIT_OK
        assert (eval_dir / "features.csv").read_bytes() \
            == (run_dir / "features.csv").read_bytes()
        run_acc, eval_acc = (json.loads((d / "eval.json").read_text())
                             ["test_accuracy"] for d in (run_dir, eval_dir))
        assert eval_acc == run_acc

    def test_best_checkpoint_is_the_first_best_epoch(self, tmp_path,
                                                     monkeypatch):
        """netd_best.ckpt is NetD at the first epoch of highest test accuracy
        in epochs.jsonl, which ``eval`` scores.  Seed 7 ties epochs 1 and 2
        at the best accuracy and ends lower."""
        snapshots = []
        real_run = cli.run

        def recording_run(*args, on_epoch, **kwargs):
            def chained(report, netd, nets):
                on_epoch(report, netd, nets)
                snapshots.append(netd.buffer.copy())
            return real_run(*args, on_epoch=chained, **kwargs)

        monkeypatch.setattr(cli, "run", recording_run)
        out_dir = tmp_path / "run"
        assert run_cli("run", "--per-class", 30, "--epochs", 4, "--warmup-d", 1,
                       "--warmup-s", 2, "--seed", 7, "--out-dir", out_dir) == EXIT_OK
        accuracies = [json.loads(line)["test_accuracy"] for line in
                      (out_dir / "epochs.jsonl").read_text().splitlines()]
        best = accuracies.index(max(accuracies))
        assert accuracies.count(max(accuracies)) > 1 and best < 3
        saved = load_checkpoint(out_dir / "netd_best.ckpt")
        assert saved.buffer.tobytes() == snapshots[best].tobytes()
        assert saved.buffer.tobytes() != snapshots[best + 1].tobytes()
        eval_dir = tmp_path / "eval"
        assert run_cli("eval", "--checkpoint", out_dir / "netd_best.ckpt",
                       "--manifest", out_dir / "train.manifest",
                       "--test-manifest", out_dir / "test.manifest",
                       "--out-dir", eval_dir) == EXIT_OK
        assert json.loads((eval_dir / "eval.json").read_text())[
            "test_accuracy"] == accuracies[best]

    def test_environment_does_not_set_the_seed(self, tmp_path, monkeypatch):
        """A run is set by its flags and config file alone: an ``EDM_SEED``
        variable in its environment changes none of its bytes."""
        a = self._run_once(tmp_path, "a", seed=5)
        monkeypatch.setenv("EDM_SEED", "6")
        b = self._run_once(tmp_path, "b", seed=5)
        for name in ("train.manifest", "epochs.jsonl"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_accepts_existing_manifests(self, tmp_path):
        train, test = gen_pair(tmp_path)
        out_dir = tmp_path / "out"
        assert run_cli("run", "--manifest", train, "--test-manifest", test,
                       "--epochs", 1, "--warmup-d", 1, "--warmup-s", 2,
                       "--out-dir", out_dir) == EXIT_OK
        assert not (out_dir / "train.manifest").exists()
        assert (out_dir / "netd_last.ckpt").is_file()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_geometry_with_given_manifests_rejected(self, tmp_path, capsys,
                                                    source):
        """A given manifest fixes the geometry; setting it exits 2 up front."""
        train, test = gen_pair(tmp_path)
        conf = tmp_path / "exp.conf"
        conf.write_text("epochs=1\nrho=0.9\n")
        extra = (("--per-class", 3) if source == "flag"
                 else ("--config", conf))
        out_dir = tmp_path / "out"
        capsys.readouterr()
        assert run_cli("run", "--manifest", train, "--test-manifest", test,
                       *extra, "--out-dir", out_dir) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert ("--per-class" in err if source == "flag"
                else f"{conf}:2: key 'rho'" in err)
        assert not out_dir.exists()

    def test_given_manifests_record_no_geometry(self, tmp_path):
        train, test = gen_pair(tmp_path)
        out_dir = tmp_path / "out"
        assert run_cli("run", "--manifest", train, "--test-manifest", test,
                       "--epochs", 1, "--warmup-d", 1, "--warmup-s", 2,
                       "--out-dir", out_dir) == EXIT_OK
        config = json.loads((out_dir / "run_manifest.json").read_text())["config"]
        assert not set(config) & set(cli._GEOMETRY)
        assert config["manifest"] == str(train)

    def test_half_specified_manifests_rejected(self, tmp_path):
        train, _ = gen_pair(tmp_path)
        assert run_cli("run", "--manifest", train,
                       "--out-dir", tmp_path / "out") == EXIT_CONFIG

    def test_config_file_drives_the_run(self, tmp_path):
        conf = tmp_path / "exp.conf"
        conf.write_text("per_class=30\nepochs=1\nwarmup_d=1\nwarmup_s=2\n"
                        "rho=0.6\nomega=0.5\nseed=5\n")
        out_dir = tmp_path / "out"
        assert run_cli("run", "--config", conf,
                       "--out-dir", out_dir) == EXIT_OK
        manifest = json.loads((out_dir / "run_manifest.json").read_text())
        assert manifest["config"]["per_class"] == 30
        baseline = self._run_once(tmp_path, "flagrun")
        assert (out_dir / "epochs.jsonl").read_bytes() \
            == (baseline / "epochs.jsonl").read_bytes()

    def test_eval_splits_with_the_splitter_network(self, tmp_path, monkeypatch):
        """eval.json scores the noise split NetS gives, as training does."""
        outcomes = []
        real_run = cli.run

        def recording_run(*args, **kwargs):
            outcomes.append(real_run(*args, **kwargs))
            return outcomes[-1]

        monkeypatch.setattr(cli, "run", recording_run)
        out_dir = self._run_once(tmp_path, "r")
        train_ds = load_manifest(out_dir / "train.manifest")
        gmm_cfg = GmmConfig()
        _, per_sample = sl_dataset_loss(outcomes[0].nets, train_ds.features,
                                        train_ds.one_hot_observed())
        split = group_posteriors(fit_em(normalize_losses(per_sample), gmm_cfg),
                                 gmm_cfg)
        summary = json.loads((out_dir / "eval.json").read_text())
        assert summary["confusion"] \
            == split_confusion(partition(split), train_ds).matrix.tolist()


#: the keys of the line that ``train`` and ``eval`` print; ``run`` prints
#: both and ``generated_benchmark``
_TRAIN_LINE = {"schema_version", "event", "out_dir", "algo", "epochs",
               "best_accuracy", "last_accuracy"}
_EVAL_LINE = {"schema_version", "event", "out_dir", "test_accuracy",
              "split_balanced_accuracy"}


class TestPrintedLine:
    """Each command prints one JSON line, which agrees with its files."""

    @pytest.mark.parametrize("command", ["train", "eval", "run",
                                         "run --manifest"])
    def test_line_matches_the_artifacts(self, tmp_path, capsys, command):
        train, test = gen_pair(tmp_path)
        out_dir = tmp_path / "out"
        inputs = ["--manifest", train, "--test-manifest", test]
        schedule = ["--epochs", 2, "--warmup-d", 1, "--warmup-s", 1]
        args = {"train": ["train", *inputs, *schedule],
                "eval": ["eval", *checkpoint_args(tmp_path), *inputs],
                "run": ["run", "--per-class", 30, "--seed", 7, *schedule],
                "run --manifest": ["run", *inputs, *schedule]}[command]
        capsys.readouterr()
        assert run_cli(*args, "--out-dir", out_dir) == EXIT_OK
        (line,) = capsys.readouterr().out.splitlines()
        printed = json.loads(line)

        trains, evals = command != "eval", command != "train"
        keys = (_TRAIN_LINE if trains else set()) | (_EVAL_LINE if evals else set())
        if command.startswith("run"):
            keys.add("generated_benchmark")
            assert printed["generated_benchmark"] is (command == "run")
        assert set(printed) == keys
        assert printed["event"] == args[0]
        assert printed["out_dir"] == str(out_dir)
        if trains:
            accuracies = [json.loads(rec)["test_accuracy"] for rec in
                          (out_dir / "epochs.jsonl").read_text().splitlines()]
            assert (printed["algo"], printed["epochs"]) == ("edm", 2)
            assert printed["best_accuracy"] == max(accuracies)
            assert printed["last_accuracy"] == accuracies[-1]
        if evals:
            summary = json.loads((out_dir / "eval.json").read_text())
            for key in ("test_accuracy", "split_balanced_accuracy"):
                assert printed[key] == summary[key]


class TestRunManifest:
    def test_records_its_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        train, test = gen_pair(tmp_path)
        out_dir = tmp_path / "out"
        assert run_cli("train", "--manifest", train, "--test-manifest", test,
                       "--epochs", 1, "--warmup-d", 1, "--warmup-s", 1,
                       "--out-dir", out_dir) == EXIT_OK
        manifest = json.loads((out_dir / "run_manifest.json").read_text())
        assert (manifest["outcome"], manifest["exit_code"], manifest["error"]) \
            == ("ok", EXIT_OK, None)
        assert manifest["environment"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "libc": list(platform.libc_ver()),
            "simd": {target: __cpu_features__[target]
                     for target in __cpu_dispatch__},
            "threads": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2",
                        "MKL_NUM_THREADS": None},
        }

    @pytest.mark.parametrize("command", ["run", "train", "eval"])
    def test_failure_after_the_output_directory_exists_is_recorded(
            self, tmp_path, capsys, monkeypatch, command):
        def fail(*args, **kwargs):
            raise NumericsError("non-finite cross-entropy loss")

        train, test = gen_pair(tmp_path)
        out_dir = tmp_path / "out"
        if command == "eval":
            ckpt = tmp_path / "netd.ckpt"
            save_checkpoint(init_model((8, 64, 64, 4), seed=0), ckpt)
            monkeypatch.setattr(cli, "export_features", fail)
            args = ["--checkpoint", ckpt, "--manifest", train,
                    "--test-manifest", test]
        else:
            # warm-up for run; for train, a phase after the epoch log opens
            phase = "warmup" if command == "run" else "train_nets_epoch"
            monkeypatch.setattr(train_mod, phase, fail)
            args = (["--per-class", 10] if command == "run" else
                    ["--manifest", train, "--test-manifest", test])
            args += ["--epochs", 1, "--warmup-d", 1, "--warmup-s", 1]
        capsys.readouterr()
        assert run_cli(command, *args, "--out-dir", out_dir) == EXIT_RUNTIME
        message = "numerics error: non-finite cross-entropy loss"
        if command == "train":  # the main loop names the epoch it was in
            message += " of main-loop epoch 0"
        assert message in capsys.readouterr().err
        manifest = json.loads((out_dir / "run_manifest.json").read_text())
        assert manifest["outcome"] == "failed"
        assert manifest["error"] == message
        assert manifest["exit_code"] == EXIT_RUNTIME
        assert manifest["started_at"] <= manifest["finished_at"]
        assert len(manifest["input_digests"]) == (3 if command == "eval" else 2)
        expected = {"run": ["run_manifest.json", "test.manifest", "train.manifest"],
                    "train": ["run_manifest.json"], "eval": ["run_manifest.json"]}
        assert manifest["artifacts"] == expected[command]

    def test_diverged_step_names_its_network(self, tmp_path):
        """A non-finite warm-up loss names the network, step, phase and epoch.

        Run as a subprocess: the overflow warnings on the way to it would
        be errors under the suite's warning filter.
        """
        out_dir = tmp_path / "out"
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "edmlab.cli", "run", "--lr", "1e12",
             "--epochs", "1", "--per-class", "20", "--out-dir", str(out_dir)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_RUNTIME, proc.stderr
        manifest = json.loads((out_dir / "run_manifest.json").read_text())
        assert manifest["outcome"] == "failed"
        assert re.fullmatch(r"numerics error: non-finite cross-entropy loss "
                            r"in NetD at step \d+ of warm-up epoch \d+",
                            manifest["error"]), manifest["error"]
        assert manifest["error"] in proc.stderr

    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM],
                             ids=["SIGINT", "SIGTERM"])
    def test_interrupted_run_is_recorded(self, tmp_path, signum):
        """A run that SIGINT or SIGTERM ends once its epoch log has a line
        exits 130 with one stderr line, writes a failed manifest, and leaves
        no process behind."""
        out_dir = tmp_path / "out"
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        # a shell may start a background job with SIGINT ignored; the child
        # takes it as an interactive command does
        proc = subprocess.Popen(
            [sys.executable, "-c",
             "import signal, sys; "
             "signal.signal(signal.SIGINT, signal.default_int_handler); "
             "from edmlab.cli import main; "
             "sys.exit(main(['run', '--per-class', '100', '--epochs', '300', "
             f"'--out-dir', {str(out_dir)!r}]))"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, start_new_session=True)
        try:
            log = out_dir / "epochs.jsonl"
            deadline = time.monotonic() + 60
            while not (log.exists() and "\n" in log.read_text()):
                assert proc.poll() is None, proc.stderr.read()
                assert time.monotonic() < deadline
                time.sleep(0.005)
            os.kill(proc.pid, signum)
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == EXIT_INTERRUPTED == 130
        assert err == "interrupted\n"
        manifest = json.loads((out_dir / "run_manifest.json").read_text())
        assert (manifest["outcome"], manifest["exit_code"], manifest["error"]) \
            == ("failed", EXIT_INTERRUPTED, "interrupted")
        assert manifest["artifacts"] == ["run_manifest.json", "test.manifest",
                                         "train.manifest"]
        with pytest.raises(ProcessLookupError):  # its session is empty
            os.killpg(proc.pid, 0)

    def test_sigterm_handler_is_restored(self, tmp_path):
        """``main`` takes SIGTERM only for its own duration."""
        before = signal.getsignal(signal.SIGTERM)
        assert run_cli("gen", "--per-class", 5,
                       "--out", tmp_path / "x.manifest") == EXIT_OK
        assert signal.getsignal(signal.SIGTERM) is before

    def test_run_never_imports_numpy_ma(self, tmp_path):
        """A run loads no ``numpy.ma``, which costs 10-30 ms to import and
        which ``np.quantile`` and ``np.unique`` pull in."""
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from edmlab.cli import main; "
             "rc = main(['run', '--epochs', '2', '--per-class', '20', "
             f"'--out-dir', {str(tmp_path / 'out')!r}]); "
             "print(rc, 'numpy.ma' in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == f"{EXIT_OK} False"


class TestBadGeometry:
    # each case expects the exact start of its message: a library range
    # error under every flag whose field it names, else the CLI's own rule;
    # a case is named by the first flag of that start
    @pytest.mark.parametrize("args, start", [
        (("run", "--per-class", 2), "--per-class 2 x --classes 4 gives "),
        (("run", "--classes", 4, "--dim", 2), "--classes/--dim: "),
        (("gen", "--classes", 4, "--dim", 2), "--classes/--dim: "),
        (("run", "--seed", -1), "--seed: "),
        (("gen", "--seed", -1), "--seed: "),
        (("run", "--lambda-u", "inf"), "--lambda-u must be a finite number"),
        (("run", "--lambda-reg", "nan"), "--lambda-reg must be a finite number"),
        (("run", "--t", "inf"), "--t must be a finite number"),
        (("run", "--spread", "inf"), "--spread must be a finite number"),
        (("gen", "--pool-offset", "inf"), "--pool-offset must be a finite number"),
        (("run", "--lr", "inf"), "--lr must be a finite number"),
        (("run", "--mix-alpha", "inf"), "--mix-alpha must be a finite number"),
        (("run", "--pool-clusters", 0), "--pool-clusters: "),
        (("gen", "--pool-clusters", 0), "--pool-clusters: "),
    ] + [((command, flag, value), f"{flag}: ")
         for command in ("run", "gen")
         for flag, value in (("--per-class", 0), ("--dim", 1), ("--spread", 0),
                             ("--pool-offset", 0), ("--rho", 1.5),
                             ("--omega", 2), ("--classes", 1),
                             ("--pool-clusters", -1))
    ] + [(("run", flag, value), f"{flag}: ")
         for flag, value in (("--epochs", -1), ("--batch", 0), ("--lr", 0),
                             ("--m", 0), ("--t", 0), ("--mix-alpha", 0),
                             ("--warmup-d", -1), ("--warmup-s", -1),
                             ("--lambda-u", -1), ("--lambda-reg", -1))
    ] + [
        # features float32 cannot hold, rejected before any overflow warning
        # (which the suite's warning filter would turn into exit 4)
        (("gen", "--spread", 1e38), "--spread: features from cluster_spread="),
        (("gen", "--pool-offset", 1e300), "--spread/--pool-offset: "),
        (("run", "--spread", 1e300), "--spread: features from cluster_spread="),
    ], ids=lambda value: re.match(r"--[\w-]+", value)[0]
       if isinstance(value, str) else None)
    def test_rejected_before_anything_is_written(self, tmp_path, capsys, args, start):
        out = tmp_path / "out"
        dest = ("--out", out / "x.manifest") if args[0] == "gen" \
            else ("--out-dir", out)
        assert run_cli(*args, *dest) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {start}"), err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command, psi, rule", [
        ("run", 2, "num_components >= 3"),
        ("run", 0, "num_components must be >= 1"),
        ("eval", 2, "num_components >= 3"),
    ])
    def test_psi_reports_the_config_rule_it_breaks(self, tmp_path, capsys,
                                                   command, psi, rule):
        out = tmp_path / "out"
        assert run_cli(command, "--psi", psi, "--out-dir", out) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: --psi: ") and rule in err, err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "run", "eval"])
    def test_manifest_smaller_than_the_mixture_exits_two(self, tmp_path, capsys,
                                                         command):
        train, test = gen_pair(tmp_path, per_class=4)
        args = [command, "--manifest", train, "--test-manifest", test]
        if command == "eval":
            args += checkpoint_args(tmp_path)
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli(*args, "--out-dir", out) == EXIT_CONFIG
        assert ("--manifest gives 16 training samples, fewer than the --psi 20 "
                "mixture components" in capsys.readouterr().err)
        assert not out.exists()

    def test_non_utf8_config_file_rejected_before_anything_is_written(
            self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_bytes(b"epochs=\xff\xfe\n")
        out = tmp_path / "out"
        assert run_cli("run", "--config", conf, "--out-dir", out) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config file {conf} is not UTF-8")
        assert not out.exists()

    def test_non_finite_config_value_rejected_before_anything_is_written(
            self, tmp_path, capsys):
        conf = tmp_path / "exp.conf"
        conf.write_text("lambda_u=inf\n")
        out = tmp_path / "out"
        assert run_cli("run", "--config", conf, "--out-dir", out) == EXIT_CONFIG
        assert "--lambda-u must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_every_key_name_resolves(self):
        """What each key names exists.  A training key's path resolves on
        ``TrainConfig()`` to a value of the key's type and default.  A
        geometry key's names are parameters of the generators the generated
        data path calls, and each parameter given ``resolved[key]`` is one
        of them.  Every key that names something is a parser flag."""
        defaults = train_mod.TrainConfig()
        for key, spec in cli._TRAINING.items():
            for path in spec.names:
                value = functools.reduce(getattr, path.split("."), defaults)
                assert (type(value), value) == (spec.cast, spec.default), key

        calls = list(_generator_calls())
        parameters = {name for fn, _ in calls
                      for name in inspect.signature(fn).parameters}
        for key, spec in cli._GEOMETRY.items():
            assert spec.names and set(spec.names) <= parameters, key
        for fn, arguments in calls:
            for name, key in arguments.items():
                if key is not None:
                    assert name in cli._GEOMETRY[key].names, (fn, name, key)

        sub = next(action for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        defined = {option for parser in sub.choices.values()
                   for option in parser._option_string_actions}
        for key, spec in cli._KEYS.items():
            assert not spec.names or cli._flag(key) in defined, key


class TestBadInputs:
    """Unusable manifests exit 3 before the output directory is created."""

    @pytest.mark.parametrize("command", ["run", "train", "eval"])
    def test_noisy_test_manifest_rejected_before_anything_is_written(
            self, tmp_path, capsys, command):
        noisy = tmp_path / "noisy.manifest"
        assert run_cli("gen", "--per-class", 30, "--seed", 1,
                       "--out", noisy) == EXIT_OK
        args = [command, "--manifest", noisy, "--test-manifest", noisy]
        if command == "eval":
            args += checkpoint_args(tmp_path)
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli(*args, "--out-dir", out) == EXIT_DATA
        assert "--test-manifest" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, test_flags, ckpt_widths, flag", [
        ("run", ("--dim", 6), None, "--test-manifest"),
        ("train", ("--classes", 3), None, "--test-manifest"),
        ("eval", ("--dim", 6), (8, 64, 64, 4), "--test-manifest"),
        ("eval", (), (6, 64, 64, 4), "--checkpoint"),
        ("eval", (), (8, 64, 64, 3), "--checkpoint"),
    ])
    def test_mismatched_shape_rejected_before_anything_is_written(
            self, tmp_path, capsys, command, test_flags, ckpt_widths, flag):
        train = tmp_path / "train.manifest"
        test = tmp_path / "test.manifest"
        assert run_cli("gen", "--per-class", 30, "--seed", 7,
                       "--out", train) == EXIT_OK
        assert run_cli("gen", "--per-class", 15, "--rho", 0, "--seed", 3007,
                       *test_flags, "--out", test) == EXIT_OK
        args = [command, "--manifest", train, "--test-manifest", test]
        if ckpt_widths is not None:
            args += checkpoint_args(tmp_path, ckpt_widths)
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli(*args, "--out-dir", out) == EXIT_DATA
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_empty_test_manifest_rejected_before_anything_is_written(
            self, tmp_path, capsys):
        train, _ = gen_pair(tmp_path)
        empty = tmp_path / "empty.manifest"
        save_manifest(DatasetManifest(
            features=np.zeros((0, 8), np.float32), observed=np.zeros(0, np.int32),
            true_class=np.zeros(0, np.int32),
            num_classes=4, noise_spec=NoiseSpec(rho=0.0, omega=0.0)), empty)
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli("train", "--manifest", train, "--test-manifest", empty,
                       "--out-dir", out) == EXIT_DATA
        assert "--test-manifest" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--manifest", "--test-manifest"],
                             ids=["empty-train", "empty-test"])
    @pytest.mark.parametrize("command", [["train"], ["train", "--algo", "ce"],
                                         ["run"], ["eval"]],
                             ids=["train", "train-ce", "run", "eval"])
    def test_empty_manifest_rejected_before_anything_is_written(
            self, tmp_path, capsys, flag, command):
        """A manifest without samples is bad data for every command and
        algorithm, not a mixture too large for it or a run of no steps."""
        manifests = dict(zip(("--manifest", "--test-manifest"), gen_pair(tmp_path)))
        manifests[flag] = tmp_path / "empty.manifest"
        save_manifest(DatasetManifest(
            features=np.zeros((0, 8), np.float32), observed=np.zeros(0, np.int32),
            true_class=np.zeros(0, np.int32),
            num_classes=4, noise_spec=NoiseSpec(rho=0.0, omega=0.0)),
            manifests[flag])
        args = [*command, *(str(a) for item in manifests.items() for a in item)]
        if command == ["eval"]:
            args += checkpoint_args(tmp_path)
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli(*args, "--out-dir", out) == EXIT_DATA
        assert (f"{flag} {manifests[flag]} holds no samples"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("flag, old, new", [
        ("--manifest", b"open_source=synthetic-pool", b"open_source=none"),
        ("--test-manifest", b"open_source=none", b"open_source=synthetic-pool"),
        ("--manifest", b"flip=UNIFORM_EXCLUDING_TRUE", b"flip=PAIRWISE"),
    ], ids=["none-at-rho-0.6", "pool-at-rho-0", "flip"])
    @pytest.mark.parametrize("command", ["train", "eval", "run"])
    def test_disagreeing_fixed_header_value_rejected_before_anything_is_written(
            self, tmp_path, capsys, command, flag, old, new):
        manifests = dict(zip(("--manifest", "--test-manifest"), gen_pair(tmp_path)))
        blob = manifests[flag].read_bytes()
        header = blob[:blob.index(b"\n")]
        assert old in header
        manifests[flag].write_bytes(reframe(blob, header.replace(old, new)))
        args = [command, *(str(a) for item in manifests.items() for a in item)]
        if command == "eval":
            args += checkpoint_args(tmp_path)
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli(*args, "--out-dir", out) == EXIT_DATA
        key, _, value = new.decode().partition("=")
        assert f"bad header value {key}={value!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_feature_exits_three(self, tmp_path, capsys):
        train, test = gen_pair(tmp_path)
        blob = bytearray(train.read_bytes())
        start = blob.index(b"\n") + 1 + 4 + 1 + 4 + 4
        blob[start:start + 4] = struct.pack("<f", float("nan"))
        train.write_bytes(bytes(blob))
        out = tmp_path / "out"
        assert run_cli("train", "--manifest", train, "--test-manifest", test,
                       "--out-dir", out) == EXIT_DATA
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_provenance_tag_disagreeing_with_labels_exits_three(
            self, tmp_path, capsys):
        """A closed-set record whose stored tag says clean is rejected."""
        train, test = gen_pair(tmp_path)
        provenance = load_manifest(train).provenance
        closed = int(np.flatnonzero(provenance == Provenance.CLOSED)[0])
        blob = bytearray(train.read_bytes())
        # records are id:u32, provenance:u8, two i32 classes, 8 f32 features
        blob[blob.index(b"\n") + 1 + closed * 45 + 4] = Provenance.CLEAN
        train.write_bytes(bytes(blob))
        ckpt = tmp_path / "netd.ckpt"
        save_checkpoint(init_model((8, 64, 64, 4), seed=0), ckpt)
        out = tmp_path / "out"
        assert run_cli("eval", "--checkpoint", ckpt,
                       "--manifest", train, "--test-manifest", test,
                       "--out-dir", out) == EXIT_DATA
        assert "disagrees with its labels" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("command, flag, target", [
        ("gen", "--out", "directory"),
        ("gen", "--out", "file/x.manifest"),
        ("run", "--out-dir", "file"),
    ])
    def test_unwritable_output_path_exits_three(self, tmp_path, capsys,
                                                command, flag, target):
        (tmp_path / "directory").mkdir()
        (tmp_path / "file").write_bytes(b"keep")
        assert run_cli(command, "--per-class", 10, flag,
                       tmp_path / target) == EXIT_DATA
        assert capsys.readouterr().err.startswith("data error: ")
        assert (tmp_path / "file").read_bytes() == b"keep"
        assert not any((tmp_path / "directory").iterdir())

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", ["gen", "train", "eval", "run"])
    def test_empty_output_path_exits_two(self, tmp_path, capsys, monkeypatch,
                                         command, source):
        """An empty ``--out``/``--out-dir`` would name the working directory;
        it exits 2 before anything is generated or written there."""
        def fail(*args, **kwargs):
            raise AssertionError("generated data")

        key = "out" if command == "gen" else "out_dir"
        args = [command]
        if command in ("train", "eval"):
            train, test = gen_pair(tmp_path)
            args += ["--manifest", train, "--test-manifest", test]
        if command == "eval":
            args += checkpoint_args(tmp_path)
        if source == "flag":
            args += [cli._flag(key), ""]
        else:
            conf = tmp_path / "exp.conf"
            conf.write_text(f"{key}=\n")
            args += ["--config", conf]
        monkeypatch.setattr(cli, "make_synthetic_clean", fail)
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        capsys.readouterr()
        assert run_cli(*args) == EXIT_CONFIG
        assert capsys.readouterr().err \
            == f"config error: {cli._flag(key)} must not be empty\n"
        assert not any(cwd.iterdir())


class TestDeadEvidence:
    """ROADMAP item 1: after warm-up, NetS's evidence for a sample's own
    label is ``max(z, 0) + 1``, so a sample whose labelled logit is <= 0
    gives that class no evidence and no gradient."""

    @pytest.mark.parametrize("seed", [
        pytest.param(0, marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 1: seed 0 warms up with every "
                                "sample labelled 3 dead")),
        1, 2])
    def test_no_class_warms_up_dead(self, seed):
        cfg, resolved = parse_config({"seed": seed}, None, "run")
        ds = cli._generate_benchmark(resolved)
        widths = (ds.feature_dim, *train_mod.HIDDEN_WIDTHS, ds.num_classes)
        netd_ss, nets_ss, rng = train_mod._seed_bundle(cfg.seed)
        netd = init_model(widths, netd_ss, role=ROLE_NETD)
        nets = init_model(widths, nets_ss, role=ROLE_NETS)
        train_mod.warmup(netd, nets, ds.features, ds.one_hot_observed(), cfg, rng)
        logits = forward_logits(nets, ds.features)
        dead = [float(np.mean(logits[ds.observed == c, c] <= 0.0))
                for c in range(ds.num_classes)]
        assert max(dead) <= 0.1, dead


class TestTracedBenchmark:
    """perfbench wraps phase functions by their module-global names."""

    @pytest.mark.parametrize("algo", ["edm", "ce"])
    def test_traced_run_records_every_phase(self, tmp_path, algo):
        spans = tmp_path / "spans.json"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env["OPENBLAS_NUM_THREADS"] = "1"
        proc = subprocess.run(
            [sys.executable, str(REPO / "perfbench" / "child.py"),
             "--src", str(REPO / "src"), "--timing", str(tmp_path / "timing.json"),
             "--trace", str(spans), "--", "--per-class", "10", "--epochs", "2",
             "--algo", algo, "--out-dir", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        spans = json.loads(spans.read_text())["spans"]
        names = {span[0] for span in spans}
        assert {"train.warmup", "train.netd_epoch", "gmm.fit", "backbone.step",
                "losses.batch_loss"} <= names
        if algo == "edm":
            # the epoch loop's own phases, not the eval-time scan and split
            def in_run(idx):
                while idx >= 0 and spans[idx][0] != "train.run":
                    idx = spans[idx][3]
                return idx >= 0

            assert {"train.relabel", "train.nets_epoch", "losses.scan",
                    "gmm.split"} <= {span[0] for span in spans
                                     if in_run(span[3])}
        fits = [span[4] for span in spans if span[0] == "gmm.fit"]
        assert fits and all(not f["capped"] and f["ll_drops"] == 0
                            for f in fits)

        # each step span nests its loss head
        steps = {i for i, span in enumerate(spans) if span[0] == "backbone.step"}
        with_loss = set()
        for span in spans:
            if span[0] == "losses.batch_loss":
                idx = span[3]
                while idx >= 0 and idx not in steps:
                    idx = spans[idx][3]
                with_loss.add(idx)
        assert with_loss == steps
        if algo == "ce":
            # 4 default classes of 10 samples, every pass one step per batch
            passes = cli._KEYS["warmup_d"].default + 2
            batches = math.ceil(4 * 10 / cli._KEYS["batch"].default)
            assert len(steps) == passes * batches

    def test_every_wrapped_name_resolves(self):
        """perfbench's install() finds every edmlab name it wraps."""
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env["PYTHONPATH"] = os.pathsep.join([str(REPO / "perfbench"),
                                             str(REPO / "src")])
        proc = subprocess.run(
            [sys.executable, "-c",
             "from layers import Tracer, install; install(Tracer())"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
