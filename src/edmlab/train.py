"""Dual-network training under combined closed-set and open-set label noise.

One network (NetS) is trained with the evidence loss purely to make noise
visible: after warm-up, its per-sample losses separate clean, open-set, and
closed-set samples into low, middle, and high bands.  Each epoch those
losses are normalized, a mixture model classifies every sample into a
(clean, open, closed) posterior triple, and a strict-max rule partitions
the data into a labeled set X, an unlabeled set U, and a discard set O.

The classifier (NetD) then trains semi-supervised on X and U only: labels
in X are co-refined toward the model's own averaged predictions, U gets
sharpened pseudo-labels, both are mixed pairwise against a shuffled union
of the two batches, and one SGD step minimizes the combined objective.
Predicted open-set samples never contribute to a NetD gradient.  Finally
NetS retrains for one pass on labels relabeled by NetD, and the loop
repeats.  Inference uses NetD's argmax alone.  One function runs every SGD
step of every phase and of the cross-entropy baseline; it writes the
gradient into the buffer the optimiser state owns.

All randomness flows through one sequential generator derived from the
config seed, so a run is reproducible to the byte.
"""

from __future__ import annotations

import logging
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .backbone import (
    ROLE_NETD,
    ROLE_NETS,
    ModelParams,
    OptimState,
    augment,
    backward,
    forward_logits,
    forward_logits_chunked,
    forward_logits_t,
    init_model,
    init_optim,
    param_tensors,
    sgd_step,
    softmax_probs,
)
from .benchgen import DatasetManifest
from .errors import NumericsError
from .evaluation import split_confusion, test_accuracy
from .gmm import (
    GmmConfig,
    Partition,
    PosteriorSplit,
    fit_em,
    group_posteriors,
    normalize_losses,
    partition,
)
from .losses import (
    ce_batch_loss_t,
    dm_batch_loss_t,
    sl_batch_loss_t,
    sl_dataset_loss,
    softmax_t,
    temp_sharpen,
)

log = logging.getLogger("edmlab")

ALGO_EDM = "edm"
ALGO_CE = "ce"

# Fixed settings of the method, the same in every run: the learning rate cut
# by LR_DROP_FACTOR at TrainConfig.resolved_lr_drop_epoch, and the hidden
# widths of both networks.  SGD's momentum and decay are backbone's constants.
LR_DROP_FACTOR = 0.1
HIDDEN_WIDTHS = (64, 64)


@dataclass(frozen=True)
class TrainConfig:
    """The settable parts of a training run, seed included.

    Every field is range-checked when built, ``gmm`` included; vary one with
    ``dataclasses.replace``.  The optimiser, the learning-rate cut and the
    network widths are module constants, not settings.
    """

    epochs: int = 30
    batch_size: int = 64
    learning_rate: float = 0.02
    warmup_epochs_netd: int = 10
    warmup_epochs_nets: int = 30
    num_augments: int = 2
    temperature: float = 0.5
    mix_alpha: float = 4.0
    lambda_u: float = 25.0
    lambda_reg: float = 1.0
    gmm: GmmConfig = field(default_factory=GmmConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        # first, so a loss weight's error wins over every other field's
        for name in ("lambda_u", "lambda_reg"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        for name in ("learning_rate", "temperature", "mix_alpha"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.num_augments < 1:
            raise ValueError(f"num_augments must be >= 1, got {self.num_augments}")
        if self.temperature <= 0:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")
        if self.mix_alpha <= 0:
            raise ValueError(f"mix_alpha must be > 0, got {self.mix_alpha}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        for name in ("warmup_epochs_netd", "warmup_epochs_nets", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        # the split needs enough mixture components to cover three bands
        if self.gmm.num_components < 3:
            raise ValueError(f"training requires num_components >= 3, "
                             f"got {self.gmm.num_components}")

    @property
    def resolved_lr_drop_epoch(self) -> int:
        """Drop at epoch 100 on long schedules, halfway otherwise."""
        return 100 if self.epochs >= 200 else max(1, self.epochs // 2)

    def lr_at(self, epoch: int) -> float:
        if epoch >= self.resolved_lr_drop_epoch:
            return self.learning_rate * LR_DROP_FACTOR
        return self.learning_rate


@dataclass
class EpochReport:
    """Everything logged about one main-loop epoch."""

    epoch: int
    n_x: int
    n_u: int
    n_o: int
    test_accuracy: float
    learning_rate: float
    mean_sl_loss: float | None = None
    mean_labeled_loss: float | None = None
    mean_unlabeled_loss: float | None = None
    mean_reg_loss: float | None = None
    split_balanced_accuracy: float | None = None
    confusion: list[list[int]] | None = None


@dataclass
class TrainOutcome:
    """Final models, the per-epoch report trail, and NetD at its best epoch.

    ``best_netd`` is a copy of NetD taken at the first epoch of highest test
    accuracy.  It and the best and last test accuracy are None after zero
    epochs.
    """

    netd: ModelParams
    nets: ModelParams | None = None
    reports: list[EpochReport] = field(default_factory=list)
    best_netd: ModelParams | None = None
    best_accuracy: float | None = None

    @property
    def last_accuracy(self) -> float | None:
        return self.reports[-1].test_accuracy if self.reports else None

    def end_epoch(self, report: EpochReport, on_epoch=None) -> None:
        """Record ``report``, copy NetD if it beats every earlier epoch, then
        call ``on_epoch(report, netd, nets)``."""
        self.reports.append(report)
        if self.best_accuracy is None or report.test_accuracy > self.best_accuracy:
            self.best_accuracy = report.test_accuracy
            self.best_netd = self.netd.copy()
        if on_epoch is not None:
            on_epoch(report, self.netd, self.nets)


def _seed_bundle(seed: int):
    """Independent init seeds for the two networks plus one run stream."""
    netd_ss, nets_ss, run_ss = np.random.SeedSequence(seed).spawn(3)
    return netd_ss, nets_ss, np.random.default_rng(run_ss)


# -- MixMatch steps ----------------------------------------------------


def co_refine(labels: np.ndarray, clean_weight: np.ndarray, mean_probs: np.ndarray,
              temperature: float) -> np.ndarray:
    """Blend each label with the model's averaged prediction, then sharpen.

    Row i keeps ``clean_weight[i]`` of its label; (n, K) labels and
    predictions, (n,) weights.
    """
    w = np.asarray(clean_weight, dtype=np.float64)[:, None]
    # posterior masses are sums of responsibilities and may pass 1 by rounding
    if np.any(w < 0.0) or np.any(w > 1.0 + 1e-9):
        raise ValueError("clean weights must lie in [0, 1]")
    # a weight past 1 would give the prediction a negative share
    w = np.minimum(w, 1.0)
    return temp_sharpen(w * labels + (1.0 - w) * mean_probs, temperature)


def guess_unlabeled(model: ModelParams, batches: list[np.ndarray],
                    num_augments: int, rng: np.random.Generator
                    ) -> tuple[np.ndarray, list[np.ndarray]]:
    """M stochastic views of each batch, stacked, and the model's average
    softmax over each batch's views.

    The views are batch 0's M copies, then batch 1's, and so on, jittered by
    one :func:`augment` call and run through one no-grad forward; the
    generator is consumed as M sequential ``augment`` calls per batch would
    consume it.  Each average is MixMatch's label guess: unlabeled rows
    train on it sharpened, labeled rows blend it with their label first
    (:func:`co_refine`).
    """
    stacked = np.concatenate([b for b in batches for _ in range(num_augments)])
    views = augment(stacked, rng)
    probs = softmax_probs(forward_logits(model, views))
    means, start = [], 0
    for b in batches:
        stop = start + num_augments * len(b)
        # a reduction over the leading axis adds the views in draw order
        means.append(probs[start:stop].reshape(num_augments, len(b), -1)
                     .sum(axis=0) / num_augments)
        start = stop
    return views, means


def mixmatch_batch(inputs: np.ndarray, targets: np.ndarray, mix_alpha: float,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Mix every row against a shuffled partner from the same pool; returns
    the mixed inputs and the mixed targets.

    Each coefficient is drawn from Beta(mix_alpha, mix_alpha) and folded to
    its upper half, so a mixed row stays closer to its own original.  Draw
    order is fixed (partner permutation first, then the coefficient vector)
    so runs are reproducible.
    """
    n = inputs.shape[0]
    perm = rng.permutation(n)
    lam = rng.beta(mix_alpha, mix_alpha, size=n)
    lam = np.maximum(lam, 1.0 - lam)
    return (lam[:, None] * inputs + (1.0 - lam[:, None]) * inputs[perm],
            lam[:, None] * targets + (1.0 - lam[:, None]) * targets[perm])


# -- epoch-level passes ------------------------------------------------


def _train_step(model: ModelParams, inputs: np.ndarray, targets: np.ndarray,
                head, opt: OptimState, what: str, step: int) -> tuple:
    """One SGD step on ``head(logits, targets)``, which returns the loss, its
    gradient at the logits and any extras; returns the head's result.  A
    non-finite loss raises :class:`NumericsError` naming ``what`` (formatted
    with the head's result), the network and the step."""
    arrays = param_tensors(model)
    acts = forward_logits_t(arrays, inputs)
    out = head(acts[-1], targets)
    if not math.isfinite(out[0]):
        raise NumericsError(f"non-finite {what.format(*out)} in {model.role} "
                            f"at step {step}")
    backward(arrays, acts, out[1], opt.grads)
    sgd_step(model, opt.grad, opt)
    return out


def _minibatch_pass(what: str, head, model: ModelParams, feats: np.ndarray,
                    labels: np.ndarray, batch_size: int, opt: OptimState,
                    rng: np.random.Generator) -> float:
    """One minibatch epoch of ``head`` over contiguous slices of the rows
    shuffled once; returns the mean loss."""
    order = rng.permutation(feats.shape[0])
    feats, labels = feats[order], labels[order]
    starts = range(0, len(order), batch_size)
    total = 0.0
    for step, start in enumerate(starts):
        rows = slice(start, start + batch_size)
        total += float(_train_step(model, feats[rows], labels[rows], head, opt,
                                   what, step)[0])
    return total / max(len(starts), 1)


# A step calls its functions, and a head its losses, through this module's
# globals at call time, so a wrapper on one of them (perfbench's) sees every call.
_ce_pass = partial(_minibatch_pass, "cross-entropy loss",
                   lambda logits, y: ce_batch_loss_t(softmax_t(logits), y))
_sl_pass = partial(_minibatch_pass, "evidence loss",
                   lambda logits, y: sl_batch_loss_t(logits, y))


@contextmanager
def _epoch(phase: str, epoch: int):
    """Name the phase and epoch in a :class:`NumericsError` raised inside."""
    try:
        yield
    except NumericsError as exc:
        raise NumericsError(f"{exc} of {phase} epoch {epoch}") from None


def warmup(netd: ModelParams, nets: ModelParams, feats: np.ndarray,
           labels: np.ndarray, cfg: TrainConfig, rng: np.random.Generator
           ) -> None:
    """Independent warm-up passes: NetD on cross-entropy, NetS on evidence.

    Both see the unchanged noisy labels (``labels``, one-hot) at the initial
    learning rate.
    """
    for model, one_pass, epochs in ((netd, _ce_pass, cfg.warmup_epochs_netd),
                                    (nets, _sl_pass, cfg.warmup_epochs_nets)):
        opt = init_optim(model, cfg.learning_rate)
        for epoch in range(epochs):
            with _epoch("warm-up", epoch):
                one_pass(model, feats, labels, cfg.batch_size, opt, rng)


def train_netd_epoch(netd: ModelParams, feats: np.ndarray, labels: np.ndarray,
                     split: PosteriorSplit, part: Partition, cfg: TrainConfig,
                     opt: OptimState, rng: np.random.Generator
                     ) -> dict[str, float]:
    """One semi-supervised epoch of the classifier on X (labeled) and U.

    Runs ceil(|X|/batch) iterations.  Each iteration draws M views of its
    labeled and unlabeled batches and guesses their labels in one no-grad
    forward (:func:`guess_unlabeled`), co-refines labels and sharpens
    guesses, mixes everything against a shuffled union, and takes one
    forward pass and one SGD step over that whole mixed batch on the
    combined objective.  Samples in O are never touched.  Returns the epoch
    mean of each loss component, keyed by its :class:`EpochReport` field; an
    empty X skips the epoch with a warning and returns ``{}``.
    """
    if len(part.x_idx) == 0:
        log.warning("labeled set X is empty this epoch; classifier update skipped")
        return {}

    batch = cfg.batch_size
    m = cfg.num_augments
    x_order = rng.permutation(part.x_idx)
    u_idx = part.u_idx
    num_iters = math.ceil(len(x_order) / batch)
    sums = np.zeros(3)

    for it in range(num_iters):
        xb = x_order[it * batch:(it + 1) * batch]
        batches = [feats[xb]]
        if len(u_idx) > 0:
            ub = rng.choice(u_idx, size=batch, replace=len(u_idx) < batch)
            batches.append(feats[ub])

        # labeled rows (first) get co-refined, sharpened targets; unlabeled
        # rows sharpened average-of-views pseudo-labels
        views, means = guess_unlabeled(netd, batches, m, rng)
        targets = [co_refine(labels[xb], split.w[xb], means[0], cfg.temperature)]
        targets += [temp_sharpen(q, cfg.temperature) for q in means[1:]]

        mixed_inputs, mixed_targets = mixmatch_batch(
            views, np.concatenate([t for t in targets for _ in range(m)]),
            cfg.mix_alpha, rng)
        comps = _train_step(netd, mixed_inputs, mixed_targets, lambda z, t:
                            dm_batch_loss_t(z, t, m * len(xb), cfg.lambda_u,
                                            cfg.lambda_reg),
                            opt, "combined loss {2}", it)[2]
        sums += (comps["labeled"], comps["unlabeled"], comps["regularizer"])

    return dict(zip(("mean_labeled_loss", "mean_unlabeled_loss", "mean_reg_loss"),
                    (sums / num_iters).tolist()))


def relabel_for_nets(netd: ModelParams, feats: np.ndarray, labels: np.ndarray,
                     split: PosteriorSplit) -> np.ndarray:
    """NetS's (n, K) one-hot targets: each label blended with NetD's prediction.

    The blend weight is the sample's closed-set posterior: the more likely
    a label flip, the more the classifier's opinion counts.  Argmax ties
    resolve to the lowest class index.
    """
    probs = softmax_probs(forward_logits_chunked(netd, feats))
    w_cl = split.w_cl[:, None]
    scores = w_cl * probs + (1.0 - w_cl) * labels
    return np.eye(labels.shape[1])[np.argmax(scores, axis=1)]


def train_nets_epoch(nets: ModelParams, feats: np.ndarray, targets: np.ndarray,
                     cfg: TrainConfig, opt: OptimState,
                     rng: np.random.Generator) -> None:
    """One full minibatch pass of the evidence loss on relabeled targets."""
    _sl_pass(nets, feats, targets, cfg.batch_size, opt, rng)


# -- full runs ---------------------------------------------------------


def run(dataset: DatasetManifest, test_dataset: DatasetManifest,
        cfg: TrainConfig, on_epoch=None) -> TrainOutcome:
    """Warm-up, then the full split/refine/relabel loop for cfg.epochs.

    ``on_epoch(report, netd, nets)``, when given, is called after every
    epoch so callers can stream logs.
    """
    widths = (dataset.feature_dim, *HIDDEN_WIDTHS, dataset.num_classes)
    netd_ss, nets_ss, rng = _seed_bundle(cfg.seed)
    netd = init_model(widths, netd_ss, role=ROLE_NETD)
    nets = init_model(widths, nets_ss, role=ROLE_NETS)
    feats = dataset.features
    labels = dataset.one_hot_observed()
    warmup(netd, nets, feats, labels, cfg, rng)

    opt_d = init_optim(netd, cfg.lr_at(0))
    opt_s = init_optim(nets, cfg.lr_at(0))
    outcome = TrainOutcome(netd=netd, nets=nets)
    for epoch in range(cfg.epochs):
        lr = cfg.lr_at(epoch)
        opt_d.learning_rate = lr
        opt_s.learning_rate = lr

        mean_sl, raw = sl_dataset_loss(nets, feats, labels)
        split = group_posteriors(fit_em(normalize_losses(raw), cfg.gmm), cfg.gmm)
        part = partition(split)

        with _epoch("main-loop", epoch):
            netd_losses = train_netd_epoch(netd, feats, labels, split, part, cfg,
                                           opt_d, rng)
            targets = relabel_for_nets(netd, feats, labels, split)
            train_nets_epoch(nets, feats, targets, cfg, opt_s, rng)

        conf = split_confusion(part, dataset)
        outcome.end_epoch(EpochReport(
            epoch=epoch,
            n_x=len(part.x_idx), n_u=len(part.u_idx), n_o=len(part.o_idx),
            test_accuracy=test_accuracy(netd, test_dataset),
            learning_rate=lr,
            mean_sl_loss=mean_sl,
            **netd_losses,
            split_balanced_accuracy=conf.balanced_accuracy,
            confusion=conf.matrix.tolist(),
        ), on_epoch)
    return outcome


def run_baseline_ce(dataset: DatasetManifest, test_dataset: DatasetManifest,
                    cfg: TrainConfig, on_epoch=None) -> TrainOutcome:
    """Control condition: plain cross-entropy on the noisy labels.

    Same architecture, same classifier init seed, same schedule and epoch
    count; no split, no relabeling, no unlabeled term.
    """
    widths = (dataset.feature_dim, *HIDDEN_WIDTHS, dataset.num_classes)
    netd_ss, _, rng = _seed_bundle(cfg.seed)
    model = init_model(widths, netd_ss, role=ROLE_NETD)
    feats = dataset.features
    labels = dataset.one_hot_observed()

    opt = init_optim(model, cfg.learning_rate)
    for epoch in range(cfg.warmup_epochs_netd):
        with _epoch("warm-up", epoch):
            _ce_pass(model, feats, labels, cfg.batch_size, opt, rng)

    n = len(dataset)
    outcome = TrainOutcome(netd=model)
    for epoch in range(cfg.epochs):
        opt.learning_rate = cfg.lr_at(epoch)
        with _epoch("main-loop", epoch):
            mean_ce = _ce_pass(model, feats, labels, cfg.batch_size, opt, rng)
        outcome.end_epoch(EpochReport(
            epoch=epoch,
            n_x=n, n_u=0, n_o=0,
            test_accuracy=test_accuracy(model, test_dataset),
            learning_rate=cfg.lr_at(epoch),
            mean_labeled_loss=mean_ce,
        ), on_epoch)
    return outcome
