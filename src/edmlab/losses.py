"""Training objectives: evidence-based loss, cross-entropy, consistency
penalty, uniformity regularizer, and their weighted combination.

Each objective has one implementation: batched numpy code for its value
and its closed-form gradient.  The ``*_t`` functions wrap it as single
:class:`~edmlab.backbone.Tensor` nodes for the training loop to
differentiate, and the per-sample loss scan evaluates the same
evidence-loss rows on plain arrays.

The evidence loss treats rectified logits plus one as the concentration of
a Dirichlet opinion; its value decomposes into a squared error between the
label and the mean prediction plus the prediction's own variance.  A
confidently wrong prediction therefore scores strictly higher than a
confidently right one, with the zero-evidence prediction in between — the
separation the noise classifier feeds on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backbone import Tensor, forward_logits_chunked, softmax_probs

#: probability floor applied inside every logarithm
EPS = 1e-12


@dataclass(frozen=True)
class LossWeights:
    """Mixing weights of the combined objective."""

    lambda_u: float = 25.0
    lambda_reg: float = 1.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.lambda_u) or self.lambda_u < 0:
            raise ValueError(f"lambda_u must be finite and >= 0, got {self.lambda_u}")
        if not np.isfinite(self.lambda_reg) or self.lambda_reg < 0:
            raise ValueError(f"lambda_reg must be finite and >= 0, got {self.lambda_reg}")

    def combine(self, labeled, unlabeled, regularizer):
        """labeled + lambda_u·unlabeled + lambda_reg·regularizer."""
        return labeled + self.lambda_u * unlabeled + self.lambda_reg * regularizer


# -- batched objectives (what training differentiates) -----------------
#
# Each head is one graph node with a hand-derived gradient.  The private
# helpers compute a loss value with a fixed op order, and its gradient with
# respect to their array input (the evidence loss, whose per-sample scan
# needs values only, leaves the gradient to its node).


def _softmax_backprop(p: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Gradient at the logits of a row-wise softmax with output ``p``."""
    return p * (grad - (grad * p).sum(axis=-1, keepdims=True))


def _ce(p: np.ndarray, labels) -> tuple[np.floating, np.ndarray]:
    """Mean cross-entropy against (soft) labels, log floored at EPS."""
    labels = np.asarray(labels, dtype=np.float64)
    floored = np.maximum(p, EPS)
    scale = 1.0 / p.shape[0]
    value = -((np.log(floored) * labels).sum(axis=1).sum() * scale)
    return value, (-scale * labels / floored) * (p > EPS)


def _mse(p: np.ndarray, targets) -> tuple[np.floating, np.ndarray]:
    """Mean per-row squared Euclidean distance to fixed targets."""
    diff = p - np.asarray(targets, dtype=np.float64)
    scale = 1.0 / p.shape[0]
    return (diff ** 2).sum(axis=1).sum() * scale, (2.0 * scale) * diff


def _reg(mean_probs: np.ndarray) -> tuple[np.floating, np.ndarray]:
    """Uniformity penalty of a mean prediction; see :func:`reg_loss_t`."""
    pi = 1.0 / mean_probs.shape[-1]
    floored = np.maximum(mean_probs, EPS)
    value = (pi * (np.log(pi) - np.log(floored))).sum()
    return value, (-pi / floored) * (mean_probs > EPS)


def _sl_parts(logits: np.ndarray, labels: np.ndarray):
    """Per-row evidence losses and the arrays their gradient needs.

    alpha = max(logit, 0) + 1 is the Dirichlet concentration, its row sum
    the opinion's strength; a row's loss is its label-fit error plus the
    predictive variance.
    """
    alpha = np.maximum(logits, 0.0) + 1.0
    strength = alpha.sum(axis=1, keepdims=True)
    p = alpha / strength
    err = ((p - labels) ** 2).sum(axis=1)
    var = (p * (1.0 - p)).sum(axis=1) / (strength[:, 0] + 1.0)
    return err + var, p, strength, var


def softmax_t(logits: Tensor) -> Tensor:
    """Row-wise softmax node (max-shifted for overflow safety)."""
    p = softmax_probs(logits.value)
    return Tensor(p, (logits,), lambda g: (_softmax_backprop(p, g),))


def sl_batch_loss_t(logits: Tensor, labels_one_hot: np.ndarray) -> Tensor:
    """Mean evidence loss of a batch, as a scalar node over the logits."""
    labels = np.asarray(labels_one_hot, dtype=np.float64)
    z = logits.value
    rows, p, strength, var = _sl_parts(z, labels)
    scale = 1.0 / rows.shape[0]

    def backprop(g):
        s1 = strength + 1.0
        d_p = 2.0 * (p - labels) + (1.0 - 2.0 * p) / s1
        d_alpha = ((d_p - (d_p * p).sum(axis=1, keepdims=True)) / strength
                   - var[:, None] / s1)
        return ((g * scale) * d_alpha * (z > 0.0),)

    return Tensor(rows.sum() * scale, (logits,), backprop)


def ce_batch_loss_t(probs: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of a batch against (possibly soft) labels."""
    value, d_p = _ce(probs.value, labels)
    return Tensor(value, (probs,), lambda g: (g * d_p,))


def mse_batch_loss_t(probs: Tensor, targets: np.ndarray) -> Tensor:
    """Mean per-row squared Euclidean distance to fixed target distributions."""
    value, d_p = _mse(probs.value, targets)
    return Tensor(value, (probs,), lambda g: (g * d_p,))


def reg_loss_t(mean_probs: Tensor) -> Tensor:
    """Divergence of a mean prediction from the uniform distribution.

    Zero exactly when the mean prediction is uniform; grows as mass
    collapses onto few classes.
    """
    value, d_mean = _reg(mean_probs.value)
    return Tensor(value, (mean_probs,), lambda g: (g * d_mean,))


def dm_batch_loss_t(logits_x: Tensor | None, labels_x: np.ndarray | None,
                    logits_u: Tensor | None, targets_u: np.ndarray | None,
                    weights: LossWeights) -> tuple[Tensor, dict]:
    """Combined objective over a labeled and an unlabeled mixed batch.

    Either part may be absent (None); its term is then a constant zero.  The
    uniformity penalty uses the mean prediction over all rows present.
    Returns one scalar node over the logits present, plus the float value
    of each component.
    """
    parts = [t for t in (logits_x, logits_u) if t is not None]
    if not parts:
        raise ValueError("combined loss needs at least one batch part")
    probs = [softmax_probs(t.value) for t in parts]
    row_sums = probs[0].sum(axis=0)
    for p in probs[1:]:
        row_sums = row_sums + p.sum(axis=0)
    scale = 1.0 / sum(p.shape[0] for p in probs)
    l_reg, d_mean = _reg(row_sums * scale)
    # every probability row feeds the mean prediction with weight ``scale``
    d_shared = (weights.lambda_reg * scale) * d_mean

    l_x = l_u = 0.0
    d_probs = []
    if logits_x is not None:
        l_x, d_p = _ce(probs[0], labels_x)
        d_probs.append(d_p + d_shared)
    if logits_u is not None:
        l_u, d_p = _mse(probs[-1], targets_u)
        d_probs.append(weights.lambda_u * d_p + d_shared)

    def backprop(g):
        return [_softmax_backprop(p, g * d) for p, d in zip(probs, d_probs)]

    total = Tensor(weights.combine(l_x, l_u, l_reg), parts, backprop)
    components = {
        "labeled": float(l_x),
        "unlabeled": float(l_u),
        "regularizer": float(l_reg),
    }
    return total, components


# -- per-sample scan ---------------------------------------------------


def sl_losses_from_logits(logits: np.ndarray, labels_one_hot: np.ndarray) -> np.ndarray:
    """Per-row evidence losses for an (N, K) logit matrix, as an array."""
    return _sl_parts(np.asarray(logits, dtype=np.float64),
                     np.asarray(labels_one_hot, dtype=np.float64))[0]


def sl_dataset_loss(model, dataset) -> tuple[float, np.ndarray]:
    """Mean and per-sample evidence losses over a whole manifest.

    Per-sample values are ordered by sample id.  ``model`` is a
    :class:`~edmlab.backbone.ModelParams`.
    """
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    logits = forward_logits_chunked(model, dataset.features)
    per_sample = sl_losses_from_logits(logits, dataset.one_hot_observed())
    return float(per_sample.mean()), per_sample


def temp_sharpen(p: np.ndarray, temperature: float) -> np.ndarray:
    """Raise a distribution to 1/T and renormalize along the last axis."""
    if temperature <= 0:
        raise ValueError(f"temperature must be > 0, got {temperature}")
    p = np.asarray(p, dtype=np.float64)
    powered = p ** (1.0 / temperature)
    total = powered.sum(axis=-1, keepdims=True)
    if np.any(total == 0.0):
        raise ValueError("cannot sharpen an all-zero distribution")
    return powered / total
