"""Command-line interface: generate benchmarks, train, evaluate, reproduce.

Four subcommands share one configuration model:

  gen    write a provenance-tagged benchmark manifest
  train  run the dual-network procedure (or the plain baseline) on manifests
  eval   score a checkpoint and export analysis tables
  run    gen (unless manifests are given) + train + eval in one output tree

Configuration precedence is flag > config-file line > built-in default.  The
optional config file is flat ``key=value`` text whose keys mirror the flag
names.  The ``EDM_SEED`` environment variable, when set, overrides the seed
of the commands that read one (gen, train, run).  The CLI only parses a
key (a float must be finite); its range rule belongs to the library object
or generator the key feeds, whose error exits 2 under the key's flag before
anything is written.
Epoch logs are line-buffered JSON lines carrying a schema version field, and
every output directory gets a run manifest snapshotting the config keys the
command reads, input digests, timestamps, the environment, the outcome (with
the error and exit code of a failure), and the artifact list.

Exit codes: 0 success, 2 configuration error, 3 data/file error (any
``OSError`` included), 4 runtime (numerical or unexpected) failure.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import hashlib
import json
import math
import os
import platform
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .backbone import JITTER_SIGMA, MOMENTUM, WEIGHT_DECAY
from .benchgen import (
    DatasetManifest,
    NoiseSpec,
    inject_noise,
    make_open_pool,
    make_synthetic_clean,
)
from .errors import ConfigError, DataError, NumericsError
from .evaluation import (
    export_features,
    export_loss_histogram,
    export_posteriors,
    split_confusion,
    test_accuracy,
)
from .gmm import GmmConfig, fit_em, group_posteriors, normalize_losses, partition
from .losses import LossWeights, sl_dataset_loss
from .manifest_io import (load_checkpoint, load_manifest, save_checkpoint,
                          save_manifest)
from .train import (ALGO_CE, ALGO_EDM, HIDDEN_WIDTHS, LR_DROP_FACTOR, TrainConfig,
                    run, run_baseline_ce)

SCHEMA_VERSION = 1
HISTOGRAM_BINS = 20

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4

#: exit code and message prefix of each known failure, most specific first
_FAILURES = (
    (ConfigError, EXIT_CONFIG, "config error"),
    (DataError, EXIT_DATA, "data error"),
    (OSError, EXIT_DATA, "data error"),
    (NumericsError, EXIT_RUNTIME, "numerics error"),
)



@dataclass
class _Key:
    """One configuration key: its type, default and help text.  The library
    objects it feeds own its range rules (see ``_FIELD_FLAGS``)."""

    cast: type
    default: object
    help: str


# TrainConfig, GmmConfig and LossWeights own the training defaults.
_TRAIN = TrainConfig()

_KEYS: dict[str, _Key] = {
    # benchmark geometry
    "classes": _Key(int, 4, "number of in-distribution classes"),
    "per_class": _Key(int, 500, "training samples per class"),
    "dim": _Key(int, 8, "feature dimension"),
    "spread": _Key(float, 0.5, "cluster standard deviation"),
    "rho": _Key(float, 0.6, "total label-noise rate"),
    "omega": _Key(float, 0.5, "closed-set share of the noisy portion"),
    "pool_clusters": _Key(int, 2, "number of out-of-distribution pool clusters"),
    "pool_offset": _Key(float, 8.0,
                        "distance of the pool from the clean clusters"),
    # optimization
    "epochs": _Key(int, _TRAIN.epochs, "main-loop epochs"),
    "batch": _Key(int, _TRAIN.batch_size, "minibatch size"),
    "lr": _Key(float, _TRAIN.learning_rate, "initial learning rate"),
    "lambda_u": _Key(float, _TRAIN.loss_weights.lambda_u,
                     "weight of the unlabeled consistency term"),
    "lambda_reg": _Key(float, _TRAIN.loss_weights.lambda_reg,
                       "weight of the uniform-prior regularizer"),
    "mix_alpha": _Key(float, _TRAIN.mix_alpha,
                      "Beta parameter of the pairwise mixing coefficient"),
    "m": _Key(int, _TRAIN.num_augments, "augmented views per sample"),
    "t": _Key(float, _TRAIN.temperature, "sharpening temperature"),
    "psi": _Key(int, _TRAIN.gmm.num_components,
                "mixture components of the loss-band classifier"),
    "mu_min": _Key(float, _TRAIN.gmm.mu_min,
                   "upper mean bound of the clean band"),
    "mu_max": _Key(float, _TRAIN.gmm.mu_max,
                   "lower mean bound of the closed-set band"),
    "warmup_d": _Key(int, _TRAIN.warmup_epochs_netd,
                     "classifier warm-up epochs"),
    "warmup_s": _Key(int, _TRAIN.warmup_epochs_nets, "splitter warm-up epochs"),
    "seed": _Key(int, _TRAIN.seed, "master random seed"),
    "algo": _Key(str, ALGO_EDM, f"training procedure: {ALGO_EDM} or {ALGO_CE}"),
    # paths (no defaults; requiredness is per-subcommand)
    "manifest": _Key(str, None, "training manifest file"),
    "test_manifest": _Key(str, None, "all-clean test manifest"),
    "checkpoint": _Key(str, None, "model checkpoint file"),
    "out": _Key(str, None, "output manifest file"),
    "out_dir": _Key(str, None, "output directory"),
}

_GEOMETRY = ("classes", "per_class", "dim", "spread", "rho", "omega",
             "pool_clusters", "pool_offset")
_TRAINING = ("epochs", "batch", "lr", "lambda_u", "lambda_reg", "mix_alpha",
             "m", "t", "psi", "mu_min", "mu_max", "warmup_d", "warmup_s",
             "seed", "algo")

#: the keys each subcommand reads: its flags, and its run manifest's config
_COMMAND_KEYS = {
    "gen": _GEOMETRY + ("seed", "out"),
    "train": ("manifest", "test_manifest") + _TRAINING + ("out_dir",),
    "eval": ("checkpoint", "manifest", "test_manifest", "psi", "mu_min",
             "mu_max", "out_dir"),
    "run": _GEOMETRY + ("manifest", "test_manifest") + _TRAINING + ("out_dir",),
}

#: the flag that sets each field or argument the library names in its range
#: errors; an error is reported under the first entry its message contains,
#: so an entry that contains another (warmup_epochs_netd, epochs) comes first
_FIELD_FLAGS = {
    "num_classes": "--classes", "per_class": "--per-class",
    "feature_dim": "--dim", "cluster_spread": "--spread",
    "rho": "--rho", "omega": "--omega", "num_clusters": "--pool-clusters",
    "pool": "--pool-clusters", "offset": "--pool-offset",
    "warmup_epochs_netd": "--warmup-d", "warmup_epochs_nets": "--warmup-s",
    "epochs": "--epochs", "batch_size": "--batch", "learning_rate": "--lr",
    "lambda_u": "--lambda-u", "lambda_reg": "--lambda-reg",
    "mix_alpha": "--mix-alpha", "num_augments": "--m", "temperature": "--t",
    "num_components": "--psi", "mu_min": "--mu-min/--mu-max", "seed": "--seed",
}


@contextlib.contextmanager
def _as_config_errors(flags: dict = _FIELD_FLAGS):
    """Report a library ValueError as a ConfigError under its field's flag."""
    try:
        yield
    except ValueError as exc:
        message = str(exc)
        flag = next((f for name, f in flags.items() if name in message), None)
        raise ConfigError(f"{flag}: {message}" if flag else message) from None


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def parse_config(flag_values: dict, config_path: str | None,
                 command: str) -> tuple[TrainConfig, dict]:
    """Resolve every configuration key: flag > config file > default.

    Returns the training configuration and the resolved value of every key
    ``command`` reads; ``run`` on a given manifest reads what ``train``
    reads, because the manifest fixes the benchmark geometry.
    Builds the TrainConfig, and the NoiseSpec when ``command`` reads
    ``rho``, so their bounds are checked.  Raises ConfigError for unknown
    keys, for non-finite or out-of-range values, naming the offending flag,
    and for a flag or config-file key that ``command`` does not read.
    """
    resolved = {k: spec.default for k, spec in _KEYS.items()}
    explicit: dict[str, str] = {}  # key -> where it was set

    if config_path is not None:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(
                    f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                resolved[key] = _KEYS[key].cast(value.strip())
            except ValueError:
                kind = "an integer" if _KEYS[key].cast is int else "a number"
                raise ConfigError(f"{path}:{lineno}: {key} must be {kind}, "
                                  f"got {value.strip()!r}") from None
            explicit[key] = f"{path}:{lineno}: key {key!r}"

    for key, value in flag_values.items():
        if key in _KEYS and value is not None:
            resolved[key] = value
            explicit[key] = _flag(key)

    on_manifest = command == "run" and resolved["manifest"] is not None
    read = _COMMAND_KEYS["train" if on_manifest else command]
    for key, source in explicit.items():
        if key not in read:
            raise ConfigError(f"{source} is not read by {command}"
                              + (" with --manifest" if on_manifest else ""))

    flags = _FIELD_FLAGS
    env_seed = os.environ.get("EDM_SEED")
    if env_seed is not None and "seed" in read:
        try:
            resolved["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(
                f"EDM_SEED must be an integer, got {env_seed!r}") from None
        flags = {**_FIELD_FLAGS, "seed": "EDM_SEED"}

    for key, spec in _KEYS.items():
        if spec.cast is float and not math.isfinite(resolved[key]):
            raise ConfigError(
                f"{_flag(key)} must be a finite number, got {resolved[key]}")
    if resolved["algo"] not in (ALGO_EDM, ALGO_CE):
        raise ConfigError(f"--algo must be one of {{{ALGO_EDM}, {ALGO_CE}}}, "
                          f"got {resolved['algo']}")

    with _as_config_errors(flags):
        cfg = TrainConfig(
            epochs=resolved["epochs"],
            batch_size=resolved["batch"],
            learning_rate=resolved["lr"],
            warmup_epochs_netd=resolved["warmup_d"],
            warmup_epochs_nets=resolved["warmup_s"],
            num_augments=resolved["m"],
            temperature=resolved["t"],
            mix_alpha=resolved["mix_alpha"],
            loss_weights=LossWeights(lambda_u=resolved["lambda_u"],
                                     lambda_reg=resolved["lambda_reg"]),
            gmm=GmmConfig(num_components=resolved["psi"],
                          mu_min=resolved["mu_min"], mu_max=resolved["mu_max"]),
            seed=resolved["seed"],
        )
        if "rho" in read:
            NoiseSpec(resolved["rho"], resolved["omega"])
    return cfg, {key: resolved[key] for key in read}


def _environment() -> dict:
    """What a run's bytes depend on beyond its config: bitwise determinism
    holds only within one Python, numpy, platform and BLAS thread setting."""
    u = platform.uname()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        # not platform.platform(): it reads the interpreter binary (8 ms)
        "platform": f"{u.system}-{u.release}-{u.machine}",
        "threads": {name: os.environ.get(name) for name in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


@dataclass
class RunManifest:
    """Reproducibility record written next to every run's artifacts when the
    command ends; ``artifacts`` lists what the command completed."""

    command: str
    config: dict
    input_digests: dict = field(default_factory=dict)
    artifacts: list = field(default_factory=list)
    started_at: str = ""
    finished_at: str = ""
    outcome: str = "incomplete"
    error: str | None = None
    exit_code: int | None = None
    environment: dict = field(default_factory=_environment)
    schema_version: int = SCHEMA_VERSION
    artifact_version: str = __version__

    def end(self, out_dir: Path, exit_code: int, error: str | None = None) -> None:
        """Record how the command ended, then write the manifest."""
        self.finished_at = _utc_now()
        self.outcome = "ok" if exit_code == EXIT_OK else "failed"
        self.exit_code, self.error = exit_code, error
        self.artifacts = sorted(set(self.artifacts + ["run_manifest.json"]))
        payload = json.dumps(self.__dict__, sort_keys=True, indent=2)
        (out_dir / "run_manifest.json").write_text(payload + "\n")


@contextlib.contextmanager
def _recorded(command: str, resolved: dict, cfg: TrainConfig):
    """Create the output directory and yield it with the command's manifest,
    which is written when the block ends: as failed if the block raises."""
    out_dir = Path(resolved["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(command=command,
                           config=_config_snapshot(command, resolved, cfg),
                           started_at=_utc_now())
    try:
        yield out_dir, manifest
    except Exception as exc:
        manifest.end(out_dir, *_failure(exc))
        raise
    manifest.end(out_dir, EXIT_OK)


def _failure(exc: Exception) -> tuple[int, str]:
    """The exit code and the message that report ``exc``."""
    for kind, code, label in _FAILURES:
        if isinstance(exc, kind):
            return code, f"{label}: {exc}"
    return EXIT_RUNTIME, f"runtime error: {exc}"


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _digests(*paths: Path) -> dict:
    return {str(p): _sha256(p) for p in paths}


def _sha256(path: str | os.PathLike) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _config_snapshot(command: str, resolved: dict, cfg: TrainConfig) -> dict:
    """The resolved keys ``command`` reads; for training, the fixed settings.

    How the data were corrupted is not here: each manifest's own header
    records it, and ``input_digests`` pins the manifests.
    """
    snapshot = dict(resolved)
    if command == "eval":
        return snapshot
    snapshot.update({
        "momentum": MOMENTUM,
        "weight_decay": WEIGHT_DECAY,
        "lr_drop_factor": LR_DROP_FACTOR,
        "lr_drop_epoch": cfg.resolved_lr_drop_epoch,
        "hidden_widths": list(HIDDEN_WIDTHS),
        "augment_mode": "gaussian_jitter",
        "jitter_sigma": JITTER_SIGMA,
    })
    return snapshot


def _require_file(path: str | None, flag: str) -> Path:
    if path is None:
        raise ConfigError(f"{flag} is required")
    p = Path(path)
    if not p.is_file():
        raise DataError(f"{flag} file not found: {p}")
    return p


def _check_shape(flag: str, path: Path, shape: tuple, train_ds: DatasetManifest
                 ) -> None:
    """An input's (features, classes) must be the training manifest's."""
    want = (train_ds.feature_dim, train_ds.num_classes)
    if shape != want:
        raise DataError(f"{flag} {path} has (features, classes) = {shape}, "
                        f"but --manifest has {want}")


def _load_test_set(path: Path, train_ds: DatasetManifest) -> DatasetManifest:
    """Load the held-out set: samples in the training set's feature and label
    space, every one clean."""
    test_ds = load_manifest(path)
    if len(test_ds) == 0:
        raise DataError(f"--test-manifest {path} holds no samples")
    _check_shape("--test-manifest", path,
                 (test_ds.feature_dim, test_ds.num_classes), train_ds)
    _, closed, open_ = test_ds.counts
    if closed or open_:
        raise DataError(f"--test-manifest {path} must be all-clean, but holds "
                        f"{closed} closed-set and {open_} open-set samples")
    return test_ds


def _check_fit_size(n: int, psi: int, source: str) -> None:
    """The noise split fits psi mixture components to n per-sample losses."""
    if n < psi:
        raise ConfigError(f"{source} gives {n} training samples, fewer than "
                          f"the --psi {psi} mixture components")


def _generate_benchmark(resolved: dict) -> DatasetManifest:
    """Clean blobs plus injected noise, all derived from one seed."""
    seed = resolved["seed"]
    clean = make_synthetic_clean(resolved["classes"], resolved["per_class"],
                                 resolved["dim"], resolved["spread"], seed=seed)
    spec = NoiseSpec(rho=resolved["rho"], omega=resolved["omega"],
                     seed=seed + 2000)
    _, n_open = spec.counts(len(clean))
    per_cluster = (max(1, math.ceil(n_open / resolved["pool_clusters"]))
                   if resolved["pool_clusters"] > 0 else 0)
    pool = make_open_pool(resolved["pool_clusters"], per_cluster,
                          resolved["dim"], resolved["spread"],
                          resolved["pool_offset"], seed=seed + 1000)
    return inject_noise(clean, pool, spec)


def _generate_test_set(resolved: dict) -> DatasetManifest:
    """All-clean held-out set: half the training size, disjoint seed."""
    per_class = max(1, resolved["per_class"] // 2)
    return make_synthetic_clean(resolved["classes"], per_class,
                                resolved["dim"], resolved["spread"],
                                seed=resolved["seed"] + 3000)


def _train_into(train_ds: DatasetManifest, test_ds: DatasetManifest,
                cfg: TrainConfig, algo: str, out_dir: Path) -> tuple:
    """Run training, streaming the epoch log; write best/last checkpoints."""
    artifacts = ["epochs.jsonl"]
    best = {"accuracy": -1.0, "params": None}
    with open(out_dir / "epochs.jsonl", "w", buffering=1) as fh:

        def on_epoch(report, netd, nets):
            record = asdict(report)
            record["schema_version"] = SCHEMA_VERSION
            record["algo"] = algo
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            if report.test_accuracy > best["accuracy"]:
                best["accuracy"] = report.test_accuracy
                best["params"] = netd.copy()

        if algo == ALGO_EDM:
            outcome = run(train_ds, test_ds, cfg, on_epoch=on_epoch)
        else:
            outcome = run_baseline_ce(train_ds, test_ds, cfg, on_epoch=on_epoch)

    save_checkpoint(outcome.netd, out_dir / "netd_last.ckpt")
    artifacts.append("netd_last.ckpt")
    best_params = best["params"] if best["params"] is not None else outcome.netd
    save_checkpoint(best_params, out_dir / "netd_best.ckpt")
    artifacts.append("netd_best.ckpt")
    if outcome.nets is not None:
        save_checkpoint(outcome.nets, out_dir / "nets_last.ckpt")
        artifacts.append("nets_last.ckpt")
    return outcome, artifacts


def _eval_into(model, train_ds: DatasetManifest, test_ds: DatasetManifest,
               gmm_cfg: GmmConfig, out_dir: Path, splitter=None
               ) -> tuple[list, dict]:
    """Score a model and export the analysis tables into ``out_dir``.

    The noise split (the confusion in eval.json, posteriors, loss histogram)
    comes from ``splitter``'s evidence losses, partitioned as in training;
    test accuracy and features come from ``model``.  Without a splitter,
    ``model`` does both.  The CSV exports write their rows to the files as
    they go, one ``backbone.chunks`` slice at a time (features and
    posteriors in two processes, see ``evaluation``); ``eval.json`` is
    written last.  Returns the artifact names and the eval.json summary.
    """
    _, per_sample = sl_dataset_loss(model if splitter is None else splitter,
                                    train_ds.features,
                                    train_ds.one_hot_observed())
    norm = normalize_losses(per_sample)
    split = group_posteriors(fit_em(norm, gmm_cfg), gmm_cfg)
    confusion = split_confusion(partition(split), train_ds)

    provenance = train_ds.provenance
    export_loss_histogram(norm, provenance, HISTOGRAM_BINS,
                          out_dir / "loss_histogram.csv")
    export_posteriors(norm, split, provenance, out_dir / "posteriors.csv")
    export_features(model, train_ds, out_dir / "features.csv")
    summary = {
        "schema_version": SCHEMA_VERSION,
        "test_accuracy": test_accuracy(model, test_ds),
        "split_balanced_accuracy": confusion.balanced_accuracy,
        "confusion": confusion.matrix.tolist(),
        "provenance_counts": list(train_ds.counts),
    }
    (out_dir / "eval.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return ["loss_histogram.csv", "posteriors.csv", "features.csv",
            "eval.json"], summary


def _emit(payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    print(json.dumps(payload, sort_keys=True), flush=True)


# -- subcommand handlers -----------------------------------------------


def cmd_gen(ns: argparse.Namespace) -> int:
    _, resolved = parse_config(vars(ns), ns.config, ns.command)
    if resolved["out"] is None:
        raise ConfigError("--out is required")
    with _as_config_errors():
        dataset = _generate_benchmark(resolved)
    out = Path(resolved["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    save_manifest(dataset, out)
    clean, closed, open_ = dataset.counts
    _emit({"event": "gen", "out": str(out), "n": len(dataset),
           "n_clean": clean, "n_closed": closed, "n_open": open_})
    return EXIT_OK


def cmd_train(ns: argparse.Namespace) -> int:
    cfg, resolved = parse_config(vars(ns), ns.config, ns.command)
    train_path = _require_file(resolved["manifest"], "--manifest")
    test_path = _require_file(resolved["test_manifest"], "--test-manifest")
    if resolved["out_dir"] is None:
        raise ConfigError("--out-dir is required")
    train_ds = load_manifest(train_path)
    test_ds = _load_test_set(test_path, train_ds)
    if resolved["algo"] == ALGO_EDM:
        _check_fit_size(len(train_ds), cfg.gmm.num_components, "--manifest")

    with _recorded("train", resolved, cfg) as (out_dir, manifest):
        manifest.input_digests = _digests(train_path, test_path)
        outcome, manifest.artifacts = _train_into(train_ds, test_ds, cfg,
                                                  resolved["algo"], out_dir)
    _emit({"event": "train", "out_dir": str(out_dir), "algo": resolved["algo"],
           "epochs": cfg.epochs, "best_accuracy": outcome.best_accuracy,
           "last_accuracy": outcome.last_accuracy})
    return EXIT_OK


def cmd_eval(ns: argparse.Namespace) -> int:
    cfg, resolved = parse_config(vars(ns), ns.config, ns.command)
    ckpt_path = _require_file(resolved["checkpoint"], "--checkpoint")
    train_path = _require_file(resolved["manifest"], "--manifest")
    test_path = _require_file(resolved["test_manifest"], "--test-manifest")
    if resolved["out_dir"] is None:
        raise ConfigError("--out-dir is required")
    model = load_checkpoint(ckpt_path)
    train_ds = load_manifest(train_path)
    test_ds = _load_test_set(test_path, train_ds)
    _check_shape("--checkpoint", ckpt_path,
                 (model.input_dim, model.num_classes), train_ds)
    _check_fit_size(len(train_ds), cfg.gmm.num_components, "--manifest")

    with _recorded("eval", resolved, cfg) as (out_dir, manifest):
        manifest.input_digests = _digests(ckpt_path, train_path, test_path)
        manifest.artifacts, summary = _eval_into(model, train_ds, test_ds,
                                                 cfg.gmm, out_dir)
    _emit({"event": "eval", "out_dir": str(out_dir),
           "test_accuracy": summary["test_accuracy"],
           "split_balanced_accuracy": summary["split_balanced_accuracy"]})
    return EXIT_OK


def cmd_run(ns: argparse.Namespace) -> int:
    cfg, resolved = parse_config(vars(ns), ns.config, ns.command)
    if resolved["out_dir"] is None:
        raise ConfigError("--out-dir is required")
    if (resolved["manifest"] is None) != (resolved["test_manifest"] is None):
        raise ConfigError(
            "--manifest and --test-manifest must be given together")

    generated = resolved["manifest"] is None
    if generated:
        with _as_config_errors():
            train_ds = _generate_benchmark(resolved)
            test_ds = _generate_test_set(resolved)
        source = (f"--per-class {resolved['per_class']} "
                  f"x --classes {resolved['classes']}")
    else:
        train_path = _require_file(resolved["manifest"], "--manifest")
        test_path = _require_file(resolved["test_manifest"], "--test-manifest")
        train_ds = load_manifest(train_path)
        test_ds = _load_test_set(test_path, train_ds)
        source = "--manifest"
    _check_fit_size(len(train_ds), cfg.gmm.num_components, source)

    with _recorded("run", resolved, cfg) as (out_dir, manifest):
        if generated:
            train_path = out_dir / "train.manifest"
            test_path = out_dir / "test.manifest"
            save_manifest(train_ds, train_path)
            save_manifest(test_ds, test_path)
            manifest.artifacts += ["train.manifest", "test.manifest"]
        manifest.input_digests = _digests(train_path, test_path)
        outcome, artifacts = _train_into(train_ds, test_ds, cfg,
                                         resolved["algo"], out_dir)
        manifest.artifacts += artifacts
        artifacts, summary = _eval_into(outcome.netd, train_ds, test_ds,
                                        cfg.gmm, out_dir, splitter=outcome.nets)
        manifest.artifacts += artifacts
    _emit({"event": "run", "out_dir": str(out_dir), "algo": resolved["algo"],
           "generated_benchmark": generated, "epochs": cfg.epochs,
           "best_accuracy": outcome.best_accuracy,
           "last_accuracy": outcome.last_accuracy,
           "test_accuracy": summary["test_accuracy"],
           "split_balanced_accuracy": summary["split_balanced_accuracy"]})
    return EXIT_OK


# -- parser wiring -----------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edmlab",
        description="Benchmark generation, noise-robust training, and "
                    "evaluation for combined closed-set/open-set label noise.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, func, help_text in (
            ("gen", cmd_gen, "generate a benchmark manifest"),
            ("train", cmd_train, "train on existing manifests"),
            ("eval", cmd_eval, "score a checkpoint and export tables"),
            ("run", cmd_run,
             "generate (unless manifests are given), train, evaluate")):
        sp = sub.add_parser(command, help=help_text)
        for key in _COMMAND_KEYS[command]:
            spec = _KEYS[key]
            sp.add_argument(_flag(key), dest=key, type=spec.cast,
                            default=None, help=spec.help)
        sp.add_argument("--config", default=None,
                        help="flat key=value config file (flags win)")
        sp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return ns.func(ns)
    except Exception as exc:  # every failure ends as a message and exit code
        code, message = _failure(exc)
        print(message, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
