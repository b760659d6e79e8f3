"""Tests for the command-line interface: config resolution, subcommands,
artifact layout, exit codes, and rerun determinism."""

import argparse
import json
import math
import os
import platform
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from edmlab import cli
from edmlab import train as train_mod
from edmlab.backbone import MOMENTUM, WEIGHT_DECAY, init_model
from edmlab.benchgen import DatasetManifest, NoiseSpec, Provenance
from edmlab.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    EXIT_RUNTIME,
    main,
    parse_config,
)
from edmlab.errors import ConfigError, NumericsError
from edmlab.evaluation import split_confusion
from edmlab.gmm import GmmConfig, fit_em, group_posteriors, normalize_losses, partition
from edmlab.losses import sl_dataset_loss
from edmlab.manifest_io import load_manifest, save_checkpoint, save_manifest

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


class TestParseConfig:
    def test_no_flags_gives_documented_defaults(self):
        cfg, resolved = parse_config({}, None, "run")
        assert cfg.num_augments == 2
        assert cfg.temperature == 0.5
        assert cfg.mix_alpha == 4.0
        assert cfg.loss_weights.lambda_u == 25.0
        assert cfg.loss_weights.lambda_reg == 1.0
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
        assert cfg.loss_weights.lambda_u == 10.0

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

    def test_missing_config_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config({}, str(tmp_path / "absent.conf"), "run")

    def test_env_seed_beats_flag(self, monkeypatch):
        monkeypatch.setenv("EDM_SEED", "99")
        cfg, resolved = parse_config({"seed": 1}, None, "run")
        assert cfg.seed == 99
        assert resolved["seed"] == 99

    def test_bad_env_seed_rejected(self, monkeypatch):
        monkeypatch.setenv("EDM_SEED", "lots")
        with pytest.raises(ConfigError, match="EDM_SEED"):
            parse_config({}, None, "run")

    def test_env_seed_ignored_by_a_command_without_a_seed(self, monkeypatch):
        monkeypatch.setenv("EDM_SEED", "lots")
        _, resolved = parse_config({}, None, "eval")
        assert "seed" not in resolved

    def test_band_bounds_must_be_ordered(self):
        with pytest.raises(ConfigError, match="--mu-min"):
            parse_config({"mu_min": 0.7, "mu_max": 0.3}, None, "run")

    @pytest.mark.parametrize("bounds", [{"mu_min": 0.0}, {"mu_max": 1.5}])
    def test_band_bounds_must_lie_inside_the_unit_interval(self, bounds):
        with pytest.raises(ConfigError, match="--mu-min/--mu-max"):
            parse_config(bounds, None, "run")


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

    def test_env_seed_changes_the_benchmark(self, tmp_path, monkeypatch):
        a = self._run_once(tmp_path, "a", seed=5)
        monkeypatch.setenv("EDM_SEED", "6")
        b = self._run_once(tmp_path, "b", seed=5)
        assert (a / "train.manifest").read_bytes() \
            != (b / "train.manifest").read_bytes()

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
            "platform": "-".join((platform.system(), platform.release(),
                                  platform.machine())),
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
        env = {k: v for k, v in os.environ.items() if k != "EDM_SEED"}
        env["PYTHONPATH"] = str(REPO / "src")
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

    def test_run_never_imports_numpy_ma(self, tmp_path):
        """A run loads no ``numpy.ma``, which costs 10-30 ms to import and
        which ``np.quantile`` and ``np.unique`` pull in."""
        env = {k: v for k, v in os.environ.items() if k != "EDM_SEED"}
        env["PYTHONPATH"] = str(REPO / "src")
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
    @pytest.mark.parametrize("args, flag", [
        (("run", "--per-class", 2), "--per-class"),
        (("run", "--classes", 4, "--dim", 2), "--classes"),
        (("gen", "--classes", 4, "--dim", 2), "--classes"),
        (("run", "--seed", -1), "--seed"),
        (("gen", "--seed", -1), "--seed"),
        (("run", "--lambda-u", "inf"), "--lambda-u"),
        (("run", "--lambda-reg", "nan"), "--lambda-reg"),
        (("run", "--t", "inf"), "--t"),
        (("run", "--spread", "inf"), "--spread"),
        (("gen", "--pool-offset", "inf"), "--pool-offset"),
        (("run", "--lr", "inf"), "--lr"),
        (("run", "--mix-alpha", "inf"), "--mix-alpha"),
        (("run", "--pool-clusters", 0), "--pool-clusters"),
        (("gen", "--pool-clusters", 0), "--pool-clusters"),
    ] + [((command, flag, value), flag)
         for command in ("run", "gen")
         for flag, value in (("--per-class", 0), ("--dim", 1), ("--spread", 0),
                             ("--pool-offset", 0), ("--rho", 1.5),
                             ("--omega", 2), ("--classes", 1),
                             ("--pool-clusters", -1))
    ] + [(("run", flag, value), flag)
         for flag, value in (("--epochs", -1), ("--batch", 0), ("--lr", 0),
                             ("--m", 0), ("--t", 0), ("--mix-alpha", 0),
                             ("--warmup-d", -1), ("--warmup-s", -1),
                             ("--lambda-u", -1), ("--lambda-reg", -1))
    ])
    def test_rejected_before_anything_is_written(self, tmp_path, capsys, args, flag):
        out = tmp_path / "out"
        dest = ("--out", out / "x.manifest") if args[0] == "gen" \
            else ("--out-dir", out)
        assert run_cli(*args, *dest) == EXIT_CONFIG
        assert flag in capsys.readouterr().err
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
        assert "--psi" in err and rule in err
        assert not out.exists()

    def test_non_finite_config_value_rejected_before_anything_is_written(
            self, tmp_path, capsys):
        conf = tmp_path / "exp.conf"
        conf.write_text("lambda_u=inf\n")
        out = tmp_path / "out"
        assert run_cli("run", "--config", conf, "--out-dir", out) == EXIT_CONFIG
        assert "--lambda-u must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_every_field_flag_is_a_parser_flag(self):
        """Each flag a library error can be reported under exists."""
        sub = next(action for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        defined = {option for parser in sub.choices.values()
                   for option in parser._option_string_actions}
        for flags in cli._FIELD_FLAGS.values():
            assert set(flags.split("/")) <= defined, flags

    def test_negative_env_seed_names_the_variable(self, tmp_path, capsys,
                                                  monkeypatch):
        monkeypatch.setenv("EDM_SEED", "-3")
        out = tmp_path / "x.manifest"
        assert run_cli("gen", "--out", out) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "EDM_SEED" in err and "--seed" not in err
        assert not out.exists()


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
            ckpt = tmp_path / "model.ckpt"
            save_checkpoint(init_model((8, 64, 64, 4), seed=0), ckpt)
            args += ["--checkpoint", ckpt]
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
            ckpt = tmp_path / "model.ckpt"
            save_checkpoint(init_model(ckpt_widths, seed=0), ckpt)
            args += ["--checkpoint", ckpt]
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


class TestTracedBenchmark:
    """perfbench wraps phase functions by their module-global names."""

    @pytest.mark.parametrize("algo", ["edm", "ce"])
    def test_traced_run_records_every_phase(self, tmp_path, algo):
        spans = tmp_path / "spans.json"
        env = {k: v for k, v in os.environ.items()
               if k not in ("EDM_SEED", "PYTHONPATH")}
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
