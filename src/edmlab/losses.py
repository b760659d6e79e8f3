"""Training objectives: evidence-based loss, cross-entropy, consistency
penalty, uniformity regularizer, and their weighted combination.

Each objective has one implementation: batched numpy code for its value
and its closed-form gradient.  The ``*_t`` heads that a training step calls
return a batch's loss value together with its gradient at the logits,
which :func:`edmlab.backbone.backward` carries through the network; the
per-sample loss scan evaluates the same evidence-loss rows on plain arrays.

The evidence loss treats rectified logits plus one as the concentration of
a Dirichlet opinion; its value decomposes into a squared error between the
label and the mean prediction plus the prediction's own variance.  A
confidently wrong prediction therefore scores strictly higher than a
confidently right one, with the zero-evidence prediction in between — the
separation the noise classifier feeds on.
"""

from __future__ import annotations

import numpy as np

from .backbone import forward_logits_chunked, softmax_probs

#: probability floor applied inside every logarithm
EPS = 1e-12


# -- batched objectives (what training differentiates) -----------------
#
# The private helpers compute a loss value with a fixed op order, and its
# gradient with respect to their array input (the evidence loss, whose
# per-sample scan needs values only, leaves the gradient to its head).  The
# heads below return ``(value, dL/dlogits)``; ``edmlab.train`` calls them by
# these names, which perfbench/layers.py wraps.


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
    """Divergence of a mean prediction from the uniform distribution: zero
    exactly when it is uniform, growing as mass collapses onto few classes."""
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


#: the cross-entropy step's softmax, whose output :func:`ce_batch_loss_t` takes
softmax_t = softmax_probs


def sl_batch_loss_t(logits, labels_one_hot) -> tuple[np.floating, np.ndarray]:
    """Mean evidence loss of a batch and its gradient at the logits."""
    labels = np.asarray(labels_one_hot, dtype=np.float64)
    z = np.asarray(logits, dtype=np.float64)
    rows, p, strength, var = _sl_parts(z, labels)
    scale = 1.0 / rows.shape[0]
    s1 = strength + 1.0
    d_p = 2.0 * (p - labels) + (1.0 - 2.0 * p) / s1
    d_alpha = ((d_p - (d_p * p).sum(axis=1, keepdims=True)) / strength
               - var[:, None] / s1)
    return rows.sum() * scale, scale * d_alpha * (z > 0.0)


def ce_batch_loss_t(probs: np.ndarray, labels) -> tuple[np.floating, np.ndarray]:
    """Mean cross-entropy of a batch against (possibly soft) labels.

    ``probs`` is the softmax of the logits (:func:`softmax_t`); the
    gradient returned is the one at those logits.
    """
    value, d_p = _ce(probs, labels)
    return value, _softmax_backprop(probs, d_p)


def dm_batch_loss_t(logits: np.ndarray, targets: np.ndarray, n_x: int,
                    lambda_u: float, lambda_reg: float
                    ) -> tuple[np.floating, np.ndarray, dict]:
    """Combined objective over the logits of one mixed batch of n rows:
    labeled + lambda_u·unlabeled + lambda_reg·regularizer.

    The first ``n_x`` rows, ``0 < n_x <= n``, are labeled and score
    cross-entropy against their targets; the rest (none when ``n_x == n``)
    are unlabeled and score squared error.  The uniformity penalty uses the
    mean prediction over every row.  Returns the value, its gradient at
    ``logits``, and the float value of each component.
    """
    n = logits.shape[0]
    if not 0 < n_x <= n:
        raise ValueError(f"n_x must lie in (0, {n}], got {n_x}")
    p = softmax_probs(logits)
    scale = 1.0 / n
    l_reg, d_mean = _reg(p.sum(axis=0) * scale)
    d_p = np.empty_like(p)
    l_x, d_p[:n_x] = _ce(p[:n_x], targets[:n_x])
    l_u = 0.0
    if n_x < n:
        l_u, d_u = _mse(p[n_x:], targets[n_x:])
        d_p[n_x:] = lambda_u * d_u
    # every probability row feeds the mean prediction with weight ``scale``
    d_p += (lambda_reg * scale) * d_mean

    components = {
        "labeled": float(l_x),
        "unlabeled": float(l_u),
        "regularizer": float(l_reg),
    }
    return (l_x + lambda_u * l_u + lambda_reg * l_reg,
            _softmax_backprop(p, d_p), components)


# -- per-sample scan ---------------------------------------------------


def sl_losses_from_logits(logits: np.ndarray, labels_one_hot: np.ndarray) -> np.ndarray:
    """Per-row evidence losses for an (N, K) logit matrix, as an array."""
    return _sl_parts(np.asarray(logits, dtype=np.float64),
                     np.asarray(labels_one_hot, dtype=np.float64))[0]


def sl_dataset_loss(model, feats: np.ndarray, labels: np.ndarray
                    ) -> tuple[float, np.ndarray]:
    """Mean and per-row evidence losses of (n, d) features against (n, K)
    one-hot labels.

    ``model`` is a :class:`~edmlab.backbone.ModelParams`.
    """
    if feats.shape[0] == 0:
        raise ValueError("dataset is empty")
    per_sample = sl_losses_from_logits(forward_logits_chunked(model, feats),
                                       labels)
    return float(per_sample.mean()), per_sample


def temp_sharpen(p: np.ndarray, temperature: float) -> np.ndarray:
    """Raise a distribution to 1/T and renormalize along the last axis."""
    if temperature <= 0:
        raise ValueError(f"temperature must be > 0, got {temperature}")
    p = np.asarray(p, dtype=np.float64)
    powered = p ** (1.0 / temperature)
    total = powered.sum(axis=-1, keepdims=True)
    underflow = total < np.finfo(np.float64).tiny
    if np.any(underflow):
        # a low T: sharpen such a row from p / max(p), equal in exact arithmetic
        peak = np.where(underflow, p.max(axis=-1, keepdims=True), 1.0)
        if np.any(peak == 0.0):
            raise ValueError("cannot sharpen an all-zero distribution")
        return temp_sharpen(p / peak, temperature)
    return powered / total
