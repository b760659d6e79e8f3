"""Command-line interface: generate benchmarks, train, evaluate, reproduce.

Four subcommands share one configuration model:

  gen    write a provenance-tagged benchmark manifest
  train  run the dual-network procedure (or the plain baseline) on manifests
  eval   score a checkpoint and export analysis tables
  run    gen (unless manifests are given) + train + eval in one output tree

Configuration precedence is flag > config-file line > built-in default.  The
optional config file is flat ``key=value`` text whose keys mirror the flag
names.  Each key names what it sets: a training key its ``TrainConfig``
field, a geometry key the generator arguments its range errors mention.  The
CLI only parses a key (a float must be finite); its range rule belongs to
the library object or generator the key feeds, whose error exits 2 before
anything is written, under the flag of every key whose name the message
mentions.
Epoch logs are line-buffered JSON lines carrying a schema version field, and
every output directory gets a run manifest snapshotting the config keys the
command reads, input digests, timestamps, the environment, the outcome (with
the error and exit code of a failure), and the artifact list.

Exit codes: 0 success, 2 configuration error, 3 data/file error (any
``OSError`` included), 4 runtime (numerical or unexpected) failure, 130
interrupted (SIGINT, or SIGTERM while ``main`` runs).
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import functools
import hashlib
import json
import math
import os
import platform
import re
import signal
import sys
from dataclasses import asdict, dataclass, field, replace
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
from .losses import sl_dataset_loss
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
#: the shell's code for a command that SIGINT ended
EXIT_INTERRUPTED = 130

#: exit code and message prefix of each known failure, most specific first
_FAILURES = (
    (ConfigError, EXIT_CONFIG, "config error"),
    (DataError, EXIT_DATA, "data error"),
    (OSError, EXIT_DATA, "data error"),
    (NumericsError, EXIT_RUNTIME, "numerics error"),
)


@dataclass
class _Key:
    """One configuration key: its type, default, help text and the names of
    what it sets.  A training key names its ``TrainConfig`` field path, whose
    value in ``TrainConfig()`` gives its type and default; a geometry key
    names the generator arguments its range errors mention.  A range error
    names the flag of every key whose name the message mentions."""

    cast: type
    default: object
    help: str
    names: tuple[str, ...] = ()


def _training_keys(**paths: tuple[str, str]) -> dict[str, _Key]:
    """One key per (``TrainConfig`` field path, help text)."""
    defaults = TrainConfig()
    keys = {}
    for key, (path, help_text) in paths.items():
        default = functools.reduce(getattr, path.split("."), defaults)
        keys[key] = _Key(type(default), default, help_text, (path,))
    return keys


_GEOMETRY = {
    "classes": _Key(int, 4, "number of in-distribution classes", ("num_classes",)),
    "per_class": _Key(int, 500, "training samples per class", ("per_class",)),
    "dim": _Key(int, 8, "feature dimension", ("feature_dim",)),
    "spread": _Key(float, 0.5, "cluster standard deviation", ("cluster_spread",)),
    "rho": _Key(float, 0.6, "total label-noise rate", ("rho",)),
    "omega": _Key(float, 0.5, "closed-set share of the noisy portion", ("omega",)),
    "pool_clusters": _Key(int, 2, "number of out-of-distribution pool clusters",
                          ("num_clusters", "pool")),
    "pool_offset": _Key(float, 8.0, "distance of the pool from the clean clusters",
                        ("offset",)),
}

_TRAINING = _training_keys(
    epochs=("epochs", "main-loop epochs"),
    batch=("batch_size", "minibatch size"),
    lr=("learning_rate", "initial learning rate"),
    lambda_u=("lambda_u", "weight of the unlabeled consistency term"),
    lambda_reg=("lambda_reg", "weight of the uniform-prior regularizer"),
    mix_alpha=("mix_alpha", "Beta parameter of the pairwise mixing coefficient"),
    m=("num_augments", "augmented views per sample"),
    t=("temperature", "sharpening temperature"),
    psi=("gmm.num_components", "mixture components of the loss-band classifier"),
    mu_min=("gmm.mu_min", "upper mean bound of the clean band"),
    mu_max=("gmm.mu_max", "lower mean bound of the closed-set band"),
    warmup_d=("warmup_epochs_netd", "classifier warm-up epochs"),
    warmup_s=("warmup_epochs_nets", "splitter warm-up epochs"),
    seed=("seed", "master random seed"),
)

_KEYS: dict[str, _Key] = {
    **_GEOMETRY,
    **_TRAINING,
    "algo": _Key(str, ALGO_EDM, f"training procedure: {ALGO_EDM} or {ALGO_CE}"),
    # paths (no defaults; requiredness is per-subcommand)
    "manifest": _Key(str, None, "training manifest file"),
    "test_manifest": _Key(str, None, "all-clean test manifest"),
    "checkpoint": _Key(str, None, "model checkpoint file"),
    "out": _Key(str, None, "output manifest file"),
    "out_dir": _Key(str, None, "output directory"),
}

#: the keys each subcommand reads: its flags, and its run manifest's config
_COMMAND_KEYS = {
    "gen": (*_GEOMETRY, "seed", "out"),
    "train": ("manifest", "test_manifest", *_TRAINING, "algo", "out_dir"),
    "eval": ("checkpoint", "manifest", "test_manifest", "psi", "mu_min",
             "mu_max", "out_dir"),
    "run": (*_GEOMETRY, "manifest", "test_manifest", *_TRAINING, "algo",
            "out_dir"),
}


@contextlib.contextmanager
def _as_config_errors():
    """Report a library ValueError as a ConfigError under the flag of every
    key whose field or argument name the message has as a whole word, in
    table order."""
    try:
        yield
    except ValueError as exc:
        message = str(exc)
        words = set(re.findall(r"\w+", message))
        flags = [_flag(key) for key, spec in _KEYS.items()
                 if any(name.rpartition(".")[2] in words for name in spec.names)]
        raise ConfigError(f"{'/'.join(flags)}: {message}" if flags
                          else message) from None


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
    for a config-file key set twice, and for a flag or config-file key that
    ``command`` does not read.
    """
    resolved = {k: spec.default for k, spec in _KEYS.items()}
    explicit: dict[str, str] = {}  # key -> where it was set

    if config_path is not None:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            # utf-8-sig: a byte-order mark is not part of the first key
            text = path.read_text(encoding="utf-8-sig")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8 text: {exc}"
                              ) from None
        for lineno, raw in enumerate(text.splitlines(), start=1):
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
            if key in explicit:
                raise ConfigError(f"{explicit[key]} is set again on line {lineno}")
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

    for key, spec in _KEYS.items():
        if spec.cast is float and not math.isfinite(resolved[key]):
            raise ConfigError(
                f"{_flag(key)} must be a finite number, got {resolved[key]}")
    if resolved["algo"] not in (ALGO_EDM, ALGO_CE):
        raise ConfigError(f"--algo must be one of {{{ALGO_EDM}, {ALGO_CE}}}, "
                          f"got {resolved['algo']}")

    with _as_config_errors():
        fields: dict[str, dict] = {}  # "" holds TrainConfig's own fields
        for key, spec in _TRAINING.items():
            outer, _, name = spec.names[0].rpartition(".")
            fields.setdefault(outer, {})[name] = resolved[key]
        defaults = TrainConfig()
        nested = {outer: replace(getattr(defaults, outer), **inner)
                  for outer, inner in fields.items() if outer}
        cfg = replace(defaults, **fields[""], **nested)
        if "rho" in read:
            NoiseSpec(resolved["rho"], resolved["omega"])
    return cfg, {key: resolved[key] for key in read}


def _environment() -> dict:
    """What a run's bytes depend on beyond its config: bitwise determinism
    holds only within one Python, numpy, machine architecture, C library,
    set of SIMD targets numpy dispatches to (None where numpy does not say)
    and BLAS thread setting."""
    try:  # numpy's private record; NPY_DISABLE_CPU_FEATURES turns targets off
        from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                                   __cpu_features__)
        simd = {target: __cpu_features__[target] for target in __cpu_dispatch__}
    except ImportError:
        simd = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "libc": list(platform.libc_ver()),
        "simd": simd,
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
    which is written when the block ends: as failed if the block raises or
    is interrupted."""
    out_dir = Path(resolved["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(command=command,
                           config=_config_snapshot(command, resolved, cfg),
                           started_at=_utc_now())
    try:
        yield out_dir, manifest
    except (Exception, KeyboardInterrupt) as exc:
        manifest.end(out_dir, *_failure(exc))
        raise
    manifest.end(out_dir, EXIT_OK)


def _failure(exc: BaseException) -> tuple[int, str]:
    """The exit code and the message that report ``exc``."""
    if isinstance(exc, KeyboardInterrupt):
        return EXIT_INTERRUPTED, "interrupted"
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


def _require_out(resolved: dict, key: str) -> Path:
    """The output path ``key`` names; an empty one would name ``.``."""
    if resolved[key] is None:
        raise ConfigError(f"{_flag(key)} is required")
    if not resolved[key]:
        raise ConfigError(f"{_flag(key)} must not be empty")
    return Path(resolved[key])


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


def _load_samples(flag: str, path: Path) -> DatasetManifest:
    """Load the manifest ``flag`` names; one that holds no samples is bad data."""
    dataset = load_manifest(path)
    if len(dataset) == 0:
        raise DataError(f"{flag} {path} holds no samples")
    return dataset


def _load_inputs(resolved: dict, checkpoint: bool = False):
    """``[--checkpoint,] --manifest, --test-manifest``: their paths, the
    checkpoint's network or None, and both datasets.  Every path is checked
    before any file is loaded; the held-out set must be clean samples, and
    it and the checkpoint in the training set's feature and label space."""
    keys = ("checkpoint",) * checkpoint + ("manifest", "test_manifest")
    paths = [_require_file(resolved[key], _flag(key)) for key in keys]
    model = load_checkpoint(paths[0]) if checkpoint else None
    train_ds = _load_samples("--manifest", paths[-2])
    test_ds = _load_samples("--test-manifest", paths[-1])
    _check_shape("--test-manifest", paths[-1],
                 (test_ds.feature_dim, test_ds.num_classes), train_ds)
    _, closed, open_ = test_ds.counts
    if closed or open_:
        raise DataError(f"--test-manifest {paths[-1]} must be all-clean, but "
                        f"holds {closed} closed-set and {open_} open-set samples")
    if checkpoint:
        _check_shape("--checkpoint", paths[0],
                     (model.input_dim, model.num_classes), train_ds)
    return paths, model, train_ds, test_ds


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
    """Run training, streaming the epoch log; write best/last checkpoints,
    the best one NetD's last state after zero epochs."""
    artifacts = ["epochs.jsonl"]
    with open(out_dir / "epochs.jsonl", "w", buffering=1) as fh:

        def on_epoch(report, netd, nets):
            record = asdict(report)
            record["schema_version"] = SCHEMA_VERSION
            record["algo"] = algo
            fh.write(json.dumps(record, sort_keys=True) + "\n")

        if algo == ALGO_EDM:
            outcome = run(train_ds, test_ds, cfg, on_epoch=on_epoch)
        else:
            outcome = run_baseline_ce(train_ds, test_ds, cfg, on_epoch=on_epoch)

    save_checkpoint(outcome.netd, out_dir / "netd_last.ckpt")
    artifacts.append("netd_last.ckpt")
    best = outcome.best_netd if outcome.best_netd is not None else outcome.netd
    save_checkpoint(best, out_dir / "netd_best.ckpt")
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
    out = _require_out(resolved, "out")
    with _as_config_errors():
        dataset = _generate_benchmark(resolved)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_manifest(dataset, out)
    clean, closed, open_ = dataset.counts
    _emit({"event": "gen", "out": str(out), "n": len(dataset),
           "n_clean": clean, "n_closed": closed, "n_open": open_})
    return EXIT_OK


def cmd_pipeline(ns: argparse.Namespace) -> int:
    """``train``, ``eval`` and ``run``, which is ``train`` then ``eval`` on
    generated data unless manifests are given: ``eval`` scores NetD with
    NetS's noise split, or a checkpoint with its own."""
    command = ns.command
    trains, evals = command != "eval", command != "train"
    cfg, resolved = parse_config(vars(ns), ns.config, command)
    _require_out(resolved, "out_dir")
    if command == "run" and ((resolved["manifest"] is None)
                             != (resolved["test_manifest"] is None)):
        raise ConfigError(
            "--manifest and --test-manifest must be given together")

    generated = command == "run" and resolved["manifest"] is None
    if generated:
        with _as_config_errors():
            train_ds = _generate_benchmark(resolved)
            test_ds = _generate_test_set(resolved)
        source = (f"--per-class {resolved['per_class']} "
                  f"x --classes {resolved['classes']}")
    else:
        paths, model, train_ds, test_ds = _load_inputs(resolved,
                                                       checkpoint=not trains)
        source = "--manifest"
    if evals or resolved["algo"] == ALGO_EDM:
        _check_fit_size(len(train_ds), cfg.gmm.num_components, source)

    with _recorded(command, resolved, cfg) as (out_dir, manifest):
        if generated:
            paths = [out_dir / "train.manifest", out_dir / "test.manifest"]
            save_manifest(train_ds, paths[0])
            save_manifest(test_ds, paths[1])
            manifest.artifacts += ["train.manifest", "test.manifest"]
        manifest.input_digests = _digests(*paths)
        payload = {"event": command, "out_dir": str(out_dir)}
        splitter = None
        if trains:
            outcome, artifacts = _train_into(train_ds, test_ds, cfg,
                                             resolved["algo"], out_dir)
            manifest.artifacts += artifacts
            model, splitter = outcome.netd, outcome.nets
            payload.update(algo=resolved["algo"], epochs=cfg.epochs,
                           best_accuracy=outcome.best_accuracy,
                           last_accuracy=outcome.last_accuracy)
        if evals:
            artifacts, summary = _eval_into(model, train_ds, test_ds, cfg.gmm,
                                            out_dir, splitter=splitter)
            manifest.artifacts += artifacts
            payload.update(
                test_accuracy=summary["test_accuracy"],
                split_balanced_accuracy=summary["split_balanced_accuracy"])
    if command == "run":
        payload["generated_benchmark"] = generated
    _emit(payload)
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
            ("train", cmd_pipeline, "train on existing manifests"),
            ("eval", cmd_pipeline, "score a checkpoint and export tables"),
            ("run", cmd_pipeline,
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
    # SIGTERM interrupts the command as SIGINT does, until it returns
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        return ns.func(ns)
    except (Exception, KeyboardInterrupt) as exc:
        # every failure ends as a message and exit code
        code, message = _failure(exc)
        print(message, file=sys.stderr)
        return code
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
