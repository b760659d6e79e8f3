"""Noise classification from per-sample losses via a 1-D Gaussian mixture.

After min–max normalization, per-sample losses live in [0,1], where the
absolute band thresholds are meaningful: mixture components with small
means capture well-fit (likely clean) samples, large means capture
confidently contradicted (likely mislabeled) samples, and the middle band
captures out-of-distribution inputs.  Summing component responsibilities
over those bands gives each sample a (clean, open, closed) posterior
triple; a strict-max rule then partitions the dataset into a labeled set,
an unlabeled set, and a discard set.

EM is vectorized numpy: a log-space E-step (row-wise log-sum-exp), then
closed-form M-step updates with floored variances; a component whose
responsibility mass vanishes keeps its old mean and variance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_LOG_2PI = float(np.log(2.0 * np.pi))
_WEIGHT_FLOOR = 1e-300
_DEAD_MASS = 1e-12
_VARIANCE_FLOOR = 1e-6
_EXP_UNDERFLOW = -746.0  # np.exp(x) == 0.0 for every x below this


@dataclass(frozen=True)
class GmmConfig:
    """Mixture size, band thresholds, and EM stopping controls.

    Fitting has no randomness: initialization is deterministic by quantiles.
    """

    num_components: int = 20
    mu_min: float = 0.3
    mu_max: float = 0.7
    max_iters: int = 100
    tol: float = 1e-6

    def validate(self) -> None:
        if self.num_components < 1:
            raise ValueError(f"num_components must be >= 1, got {self.num_components}")
        if not 0.0 < self.mu_min < self.mu_max < 1.0:
            raise ValueError(
                f"need 0 < mu_min < mu_max < 1, got ({self.mu_min}, {self.mu_max})"
            )
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be > 0")

    def validate_for_training(self) -> None:
        """The training loop needs enough components to cover three bands."""
        self.validate()
        if self.num_components < 3:
            raise ValueError(
                f"training requires num_components >= 3, got {self.num_components}"
            )


@dataclass(frozen=True)
class GmmModel:
    """A fitted mixture plus the log-likelihood trace of its EM run."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    log_likelihood_trace: np.ndarray

    def __post_init__(self) -> None:
        if abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("component weights must sum to 1")
        if np.any(self.weights < -1e-12):
            raise ValueError("component weights must be non-negative")
        if np.any(self.variances <= 0):
            raise ValueError("variances must be positive")

    @property
    def num_components(self) -> int:
        return self.means.shape[0]


@dataclass(frozen=True)
class PosteriorSplit:
    """Per-sample (clean, open, closed) posterior masses, rows summing to 1."""

    w: np.ndarray
    w_op: np.ndarray
    w_cl: np.ndarray

    def __post_init__(self) -> None:
        if not (self.w.shape == self.w_op.shape == self.w_cl.shape):
            raise ValueError("posterior arrays must share one shape")
        total = self.w + self.w_op + self.w_cl
        if total.size and np.abs(total - 1.0).max() > 1e-6:
            raise ValueError("posterior triples must sum to 1 within 1e-6")

    def __len__(self) -> int:
        return self.w.shape[0]


@dataclass
class Partition:
    """Index sets of the three-way split, each sorted ascending."""

    x_idx: np.ndarray  # predicted clean: labels kept
    u_idx: np.ndarray  # predicted closed-set: treated as unlabeled
    o_idx: np.ndarray  # predicted open-set: excluded from classifier training

    def sizes(self) -> tuple[int, int, int]:
        return len(self.x_idx), len(self.u_idx), len(self.o_idx)


def normalize_losses(raw: np.ndarray) -> np.ndarray:
    """Min–max rescale to [0,1]; a constant vector maps to all zeros."""
    x = np.asarray(raw, dtype=np.float64)
    if x.size == 0:
        raise ValueError("loss vector is empty")
    if not np.all(np.isfinite(x)):
        raise ValueError("loss vector contains non-finite values")
    lo = x.min()
    hi = x.max()
    if hi == lo:
        return np.zeros_like(x)
    return (x - lo) / (hi - lo)


def _loglik_resp(x, weights, means, variances) -> tuple[float, np.ndarray]:
    """E-step: data log-likelihood and (n, psi) responsibilities."""
    # per-component constants are hoisted out of the per-sample work
    log_const = (np.log(np.maximum(weights, _WEIGHT_FLOOR))
                 - 0.5 * (_LOG_2PI + np.log(variances)))
    inv_two_var = 0.5 / variances
    logp = log_const[None, :] \
        - (x[:, None] - means[None, :]) ** 2 * inv_two_var[None, :]
    top = logp.max(axis=1, keepdims=True)
    logp -= top
    # exp is exactly 0 below -746, where numpy's exp takes a slow path; the
    # tight loss bands of a trained splitter put many entries there
    resp = np.zeros_like(logp)
    np.exp(logp, out=resp, where=logp > _EXP_UNDERFLOW)
    norm = resp.sum(axis=1)
    ll = float((top[:, 0] + np.log(norm)).sum())
    resp /= norm[:, None]
    return ll, resp


def fit_em(losses: np.ndarray, cfg: GmmConfig) -> GmmModel:
    """Fit the mixture by EM with deterministic quantile initialization."""
    cfg.validate()
    x = np.asarray(losses, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("losses must be a 1-D vector")
    if x.shape[0] < cfg.num_components:
        raise ValueError(
            f"need at least {cfg.num_components} samples to fit "
            f"{cfg.num_components} components, got {x.shape[0]}"
        )
    # Deterministic start: means at the psi evenly spaced quantiles (midpoints
    # of equal probability bands), the data variance split across components
    # (floored), uniform weights.
    n, psi = x.shape[0], cfg.num_components
    means = np.quantile(x, (np.arange(psi, dtype=np.float64) + 0.5) / psi)
    variances = np.full(psi, max(float(x.var()) / psi, _VARIANCE_FLOOR))
    weights = np.full(psi, 1.0 / psi)
    ll, resp = _loglik_resp(x, weights, means, variances)
    trace = [ll]
    for _ in range(cfg.max_iters):
        nk = resp.sum(axis=0)
        alive = nk > _DEAD_MASS
        new_means = means.copy()
        new_vars = variances.copy()
        safe_nk = np.where(alive, nk, 1.0)
        new_means[alive] = ((resp * x[:, None]).sum(axis=0) / safe_nk)[alive]
        sq = (resp * (x[:, None] - new_means[None, :]) ** 2).sum(axis=0) / safe_nk
        new_vars[alive] = np.maximum(sq, _VARIANCE_FLOOR)[alive]
        weights = nk / n
        means = new_means
        variances = new_vars

        ll, resp = _loglik_resp(x, weights, means, variances)
        trace.append(ll)
        if ll - trace[-2] < cfg.tol:
            break
    return GmmModel(weights=weights, means=means, variances=variances,
                    log_likelihood_trace=np.asarray(trace, dtype=np.float64))


def responsibilities(model: GmmModel, losses: np.ndarray) -> np.ndarray:
    """(n, psi) posterior component memberships under the fitted model."""
    x = np.asarray(losses, dtype=np.float64)
    _, resp = _loglik_resp(x, model.weights, model.means, model.variances)
    return resp


def group_posteriors(model: GmmModel, losses: np.ndarray,
                     cfg: GmmConfig) -> PosteriorSplit:
    """Sum component responsibilities over the three mean bands.

    Band rule: mean <= mu_min counts as clean, mean >= mu_max as closed,
    anything strictly between as open.  An empty band contributes exactly
    zero mass.
    """
    resp = responsibilities(model, losses)
    clean_band = model.means <= cfg.mu_min
    closed_band = model.means >= cfg.mu_max
    open_band = ~(clean_band | closed_band)
    return PosteriorSplit(
        w=resp[:, clean_band].sum(axis=1),
        w_op=resp[:, open_band].sum(axis=1),
        w_cl=resp[:, closed_band].sum(axis=1),
    )


def partition(split: PosteriorSplit, n: int | None = None) -> Partition:
    """Strict-max three-way assignment.

    A sample lands in the labeled set only if its clean mass strictly
    exceeds both others, in the unlabeled set only if its closed mass
    strictly exceeds both others; everything else (ties included) is
    excluded.
    """
    if n is not None and n != len(split):
        raise ValueError(f"split has {len(split)} rows, dataset has {n}")
    w, w_op, w_cl = split.w, split.w_op, split.w_cl
    in_x = (w > w_op) & (w > w_cl)
    in_u = (w_cl > w) & (w_cl > w_op)
    in_o = ~(in_x | in_u)
    idx = np.arange(len(split))
    return Partition(x_idx=idx[in_x], u_idx=idx[in_u], o_idx=idx[in_o])
