"""Training objectives: evidence-based loss, cross-entropy, consistency
penalty, uniformity regularizer, and their weighted combination.

Each objective has one implementation: a batched function over
:class:`~edmlab.autodiff.Tensor` graphs (the ``*_t`` functions) that the
training loop differentiates.  The per-sample loss scan evaluates the same
evidence-loss graph on constant tensors, and the single-sample functions
(``sl_loss``, ``ce_loss``, ``unlabeled_mse``, ``reg_loss``, ``dm_loss``) are
one-row wrappers that validate their inputs and return a float.

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

from .autodiff import Tensor
from .backbone import forward_logits_chunked

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
        """labeled + lambda_u·unlabeled + lambda_reg·regularizer (floats or tensors)."""
        return labeled + self.lambda_u * unlabeled + self.lambda_reg * regularizer


def _check_distribution(p: np.ndarray, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if np.any(p < -1e-9) or abs(p.sum() - 1.0) > 1e-6:
        raise ValueError(f"{name} is not a probability distribution: {p}")
    return p


def _check_one_hot(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if not (np.all((y == 0.0) | (y == 1.0)) and y.sum() == 1.0):
        raise ValueError(f"label is not one-hot: {y}")
    return y


# -- batched objectives (what training differentiates) -----------------


def softmax_t(logits: Tensor) -> Tensor:
    """Row-wise softmax as a tensor graph, with a detached stability shift."""
    shift = logits.value.max(axis=-1, keepdims=True)
    e = (logits - shift).exp()
    return e / e.sum(axis=-1, keepdims=True)


def sl_row_losses_t(logits: Tensor, labels_one_hot: np.ndarray) -> Tensor:
    """Per-row evidence losses: label-fit error plus predictive variance.

    alpha = max(logit, 0) + 1 is the Dirichlet concentration, its sum the
    opinion's strength.
    """
    labels = np.asarray(labels_one_hot, dtype=np.float64)
    alpha = logits.relu() + 1.0
    strength = alpha.sum(axis=1, keepdims=True)
    p = alpha / strength
    err = ((p - labels) ** 2).sum(axis=1)
    var = (p * (1.0 - p)).sum(axis=1) / (strength.sum(axis=1) + 1.0)
    return err + var


def sl_batch_loss_t(logits: Tensor, labels_one_hot: np.ndarray) -> Tensor:
    """Mean evidence loss of a batch, as a scalar tensor."""
    return sl_row_losses_t(logits, labels_one_hot).mean()


def ce_batch_loss_t(probs: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of a batch against (possibly soft) labels."""
    logp = probs.clip_min(EPS).log()
    return -((logp * np.asarray(labels, dtype=np.float64)).sum(axis=1).mean())


def mse_batch_loss_t(probs: Tensor, targets: np.ndarray) -> Tensor:
    """Mean per-row squared Euclidean distance to fixed target distributions."""
    diff = probs - np.asarray(targets, dtype=np.float64)
    return (diff ** 2).sum(axis=1).mean()


def reg_loss_t(mean_probs: Tensor) -> Tensor:
    """Divergence of a mean prediction from the uniform distribution.

    Zero exactly when the mean prediction is uniform; grows as mass
    collapses onto few classes.
    """
    pi = 1.0 / mean_probs.shape[-1]
    return (pi * (np.log(pi) - mean_probs.clip_min(EPS).log())).sum()


def dm_batch_loss_t(logits_x: Tensor | None, labels_x: np.ndarray | None,
                    logits_u: Tensor | None, targets_u: np.ndarray | None,
                    weights: LossWeights) -> tuple[Tensor, dict]:
    """Combined objective over a labeled and an unlabeled mixed batch.

    Either part may be absent (None); its term is then a constant zero.  The
    uniformity penalty uses the mean prediction over all rows present.
    Returns the scalar tensor plus the float value of each component.
    """
    parts = []
    if logits_x is not None:
        parts.append(softmax_t(logits_x))
    if logits_u is not None:
        parts.append(softmax_t(logits_u))
    if not parts:
        raise ValueError("combined loss needs at least one batch part")

    l_x = ce_batch_loss_t(parts[0], labels_x) if logits_x is not None else Tensor(0.0)
    l_u = (mse_batch_loss_t(parts[-1], targets_u)
           if logits_u is not None else Tensor(0.0))

    total_rows = sum(p.shape[0] for p in parts)
    row_sums = parts[0].sum(axis=0)
    for p in parts[1:]:
        row_sums = row_sums + p.sum(axis=0)
    l_reg = reg_loss_t(row_sums * (1.0 / total_rows))

    total = weights.combine(l_x, l_u, l_reg)
    components = {
        "labeled": float(l_x.value),
        "unlabeled": float(l_u.value),
        "regularizer": float(l_reg.value),
    }
    return total, components


# -- per-sample scan ---------------------------------------------------


def sl_losses_from_logits(logits: np.ndarray, labels_one_hot: np.ndarray) -> np.ndarray:
    """Per-row evidence losses for an (N, K) logit matrix, as an array."""
    return sl_row_losses_t(Tensor(logits), labels_one_hot).value


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


# -- single-sample contracts -------------------------------------------


def sl_loss(logits: np.ndarray, y: np.ndarray) -> float:
    """Evidence loss of one sample against a one-hot label."""
    y = _check_one_hot(y)
    logits = np.asarray(logits, dtype=np.float64)
    if y.shape != logits.shape:
        raise ValueError(f"label length {y.shape} != logit length {logits.shape}")
    return float(sl_losses_from_logits(logits[None, :], y[None, :])[0])


def ce_loss(probs: np.ndarray, label: np.ndarray) -> float:
    """−Σ label·log(probs), probabilities floored at EPS; accepts soft labels."""
    probs = _check_distribution(probs, "probs")
    label = _check_distribution(label, "label")
    return float(ce_batch_loss_t(Tensor(probs[None, :]), label[None, :]).value)


def unlabeled_mse(guess: np.ndarray, probs: np.ndarray) -> float:
    """Squared Euclidean distance between two distributions."""
    guess = _check_distribution(guess, "guess")
    probs = _check_distribution(probs, "probs")
    if guess.shape != probs.shape:
        raise ValueError(f"length mismatch: {guess.shape} vs {probs.shape}")
    return float(mse_batch_loss_t(Tensor(probs[None, :]), guess[None, :]).value)


def reg_loss(mean_probs: np.ndarray) -> float:
    """Uniformity penalty of one mean prediction; see :func:`reg_loss_t`."""
    return float(reg_loss_t(Tensor(mean_probs)).value)


def dm_loss(labeled_loss: float, unlabeled_loss: float, mean_probs: np.ndarray,
            weights: LossWeights) -> float:
    """labeled + lambda_u·unlabeled + lambda_reg·uniformity penalty."""
    return float(weights.combine(labeled_loss, unlabeled_loss, reg_loss(mean_probs)))


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
