"""Noise classification from per-sample losses via a 1-D Gaussian mixture.

After min–max normalization, per-sample losses live in [0,1], where the
absolute band thresholds are meaningful: mixture components with small
means capture well-fit (likely clean) samples, large means capture
confidently contradicted (likely mislabeled) samples, and the middle band
captures out-of-distribution inputs.  Summing component responsibilities
over those bands gives each sample a (clean, open, closed) posterior
triple; a strict-max rule then partitions the dataset into a labeled set,
an unlabeled set, and a discard set.

EM starts from means at evenly spaced quantiles, read off one sort
(``np.quantile`` takes about 7 times as long and imports ``numpy.ma``),
and works on the basis [1, x, x^2] (x centred), built once per fit: the
E-step's log-densities are one product of a (psi, 3) coefficient matrix
with it, followed by a per-sample log-sum-exp, and the M-step's masses and
first and second moments are one product of the responsibilities with it.
The log-sum-exp gives every log-density 700 or more below its sample's
largest exactly zero responsibility: such an entry is far under the
rounding of the log-likelihood, no subnormal reaches the M-step, and
numpy's exp stays on its fast path (it slows 15-150x for inputs below
-708, which a trained splitter's tight loss bands produce in bulk).
Variances are E[x^2] - m^2, floored; a component whose responsibility mass
vanishes keeps its old mean and variance.  EM stops once an iteration
gains less than ``GmmConfig.tol`` log-likelihood per sample.  The fitted
model keeps that last E-step's responsibilities, and the band sums reuse
them: one split runs one E-step per EM iteration plus the initial one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

_LOG_2PI = float(np.log(2.0 * np.pi))
_WEIGHT_FLOOR = 1e-300
_DEAD_MASS = 1e-12
_VARIANCE_FLOOR = 1e-6
_EXP_FLOOR = -700.0  # shifted log-densities at or below this get exactly 0


@dataclass(frozen=True)
class GmmConfig:
    """Mixture size and band thresholds, checked when built; EM's stopping
    controls are fixed.

    ``tol`` is per sample: EM stops once an iteration raises the summed
    log-likelihood by less than ``tol * n``.  ``max_iters`` is a safety cap:
    a fit that uses it up without meeting ``tol`` reports
    ``converged=False``.  Fitting has no randomness: initialization is
    deterministic by quantiles.
    """

    num_components: int = 20
    mu_min: float = 0.3
    mu_max: float = 0.7
    max_iters: ClassVar[int] = 100
    tol: ClassVar[float] = 1e-3

    def __post_init__(self) -> None:
        if self.num_components < 1:
            raise ValueError(f"num_components must be >= 1, got {self.num_components}")
        if not 0.0 < self.mu_min < self.mu_max < 1.0:
            raise ValueError(
                f"need 0 < mu_min < mu_max < 1, got ({self.mu_min}, {self.mu_max})"
            )


@dataclass(frozen=True)
class GmmModel:
    """A fitted mixture plus the log-likelihood trace of its EM run.

    ``resp`` holds the (psi, n) responsibilities of EM's final E-step, each
    column summing to 1.  ``converged`` is True only when EM stopped on its
    tolerance, not at the iteration cap.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    log_likelihood_trace: np.ndarray
    resp: np.ndarray
    converged: bool = False

    def __post_init__(self) -> None:
        if abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("component weights must sum to 1")
        if np.any(self.weights < -1e-12):
            raise ValueError("component weights must be non-negative")
        if np.any(self.variances <= 0):
            raise ValueError("variances must be positive")
        if self.resp.ndim != 2 or self.resp.shape[0] != self.means.shape[0]:
            raise ValueError("resp must be (num_components, n)")

    @property
    def num_components(self) -> int:
        return self.means.shape[0]

    @property
    def iterations(self) -> int:
        """EM iterations run: the trace also holds the initial fit."""
        return len(self.log_likelihood_trace) - 1


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


def _basis(x: np.ndarray) -> tuple[np.ndarray, float]:
    """(3, n) rows [1, y, y^2] with y = x - c, and the centre c.

    Log-densities and moments are linear in these rows.  Centring at the
    midrange keeps the expanded square y^2 - 2my + m^2 and the variance
    E[y^2] - m^2 well conditioned; callers work with means minus c.
    """
    c = 0.5 * (float(x.min()) + float(x.max()))
    y = x - c
    return np.stack([np.ones_like(y), y, y * y]), c


def _log_density_coef(weights, means, variances) -> np.ndarray:
    """(psi, 3) matrix C with (C @ basis)[k, i] = log(w_k N(y_i; m_k, v_k)).

    Filled in place: ``np.stack`` of the three columns takes half again as long.
    """
    inv_var = 1.0 / variances
    coef = np.empty((means.shape[0], 3))
    coef[:, 0] = (np.log(np.maximum(weights, _WEIGHT_FLOOR))
                  - 0.5 * (_LOG_2PI + np.log(variances) + means * means * inv_var))
    coef[:, 1] = means * inv_var
    coef[:, 2] = -0.5 * inv_var
    return coef


def _quantiles(x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``np.quantile(x, q)`` (its default 'linear' method) bit for bit, from
    one sort: at position (n - 1) q between sorted neighbours a and b with
    fraction g, a + (b - a) g, or b - (b - a)(1 - g) where g >= 0.5.
    """
    s = np.sort(x)
    pos = (s.shape[0] - 1) * q
    lo = np.floor(pos)
    g = pos - lo
    i = lo.astype(np.intp)
    a, b = s[i], s[np.minimum(i + 1, s.shape[0] - 1)]
    d = b - a
    return np.where(g >= 0.5, b - d * (1 - g), a + d * g)


def _loglik_resp(basis, weights, means, variances, resp
                 ) -> tuple[float, np.ndarray, np.ndarray]:
    """E-step: data log-likelihood, unnormalized (psi, n) responsibilities
    and their column sums; sample i's responsibilities are resp[:, i] / norm[i].

    Arrays are component-major, so the per-sample max and sum run over
    psi rows of length n.  The (psi, n) buffer ``resp`` takes the
    log-densities, then the responsibilities; EM reuses it every iteration.
    """
    np.matmul(_log_density_coef(weights, means, variances), basis, out=resp)
    top = resp.max(axis=0)
    resp -= top
    # Entries at or below the floor get exactly 0: clip, plain exp, mask.
    # -700 is the lowest round floor above exp's subnormal range (inputs
    # below -708 cost ~180 ns each), and a where= mask would send exp down
    # a masked loop.  Each column's max is now exactly 0, so norm >= 1 and
    # e^-700 lies far under its rounding.
    keep = resp > _EXP_FLOOR
    np.maximum(resp, _EXP_FLOOR, out=resp)
    np.exp(resp, out=resp)
    resp *= keep
    norm = resp.sum(axis=0)
    ll = float((top + np.log(norm)).sum())
    return ll, resp, norm


def _m_step(resp, norm, basis, means, variances
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form weights, means and floored variances from one E-step.

    One (psi, n) @ (n, 3) product gives each component's mass, first and
    second moment; a component whose mass vanishes keeps its old mean and
    variance.
    """
    moments = resp @ (basis / norm).T
    mass = moments[:, 0]
    alive = mass > _DEAD_MASS
    safe_mass = np.where(alive, mass, 1.0)
    new_means = moments[:, 1] / safe_mass
    new_vars = np.maximum(moments[:, 2] / safe_mass - new_means * new_means,
                          _VARIANCE_FLOOR)
    return (mass / basis.shape[1], np.where(alive, new_means, means),
            np.where(alive, new_vars, variances))


def fit_em(losses: np.ndarray, cfg: GmmConfig) -> GmmModel:
    """Fit the mixture by EM with deterministic quantile initialization.

    EM stops once an iteration raises the log-likelihood by less than
    ``cfg.tol`` per sample, or after ``cfg.max_iters`` iterations.
    """
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
    basis, centre = _basis(x)
    means = _quantiles(x, (np.arange(psi, dtype=np.float64) + 0.5) / psi)
    means -= centre
    variances = np.full(psi, max(float(x.var()) / psi, _VARIANCE_FLOOR))
    weights = np.full(psi, 1.0 / psi)
    ll, resp, norm = _loglik_resp(basis, weights, means, variances,
                                  np.empty((psi, n)))
    trace = [ll]
    converged = False
    for _ in range(cfg.max_iters):
        weights, means, variances = _m_step(resp, norm, basis, means, variances)
        ll, resp, norm = _loglik_resp(basis, weights, means, variances, resp)
        trace.append(ll)
        if (ll - trace[-2]) / n < cfg.tol:
            converged = True
            break
    resp /= norm
    return GmmModel(weights=weights, means=means + centre, variances=variances,
                    log_likelihood_trace=np.asarray(trace, dtype=np.float64),
                    resp=resp, converged=converged)


def group_posteriors(model: GmmModel, cfg: GmmConfig) -> PosteriorSplit:
    """Sum the fitted responsibilities over the three mean bands.

    Band rule: mean <= mu_min counts as clean, mean >= mu_max as closed,
    anything strictly between as open.  An empty band contributes exactly
    zero mass.
    """
    resp = model.resp.T
    clean_band = model.means <= cfg.mu_min
    closed_band = model.means >= cfg.mu_max
    open_band = ~(clean_band | closed_band)
    return PosteriorSplit(
        w=resp[:, clean_band].sum(axis=1),
        w_op=resp[:, open_band].sum(axis=1),
        w_cl=resp[:, closed_band].sum(axis=1),
    )


def partition(split: PosteriorSplit) -> Partition:
    """Strict-max three-way assignment.

    A sample lands in the labeled set only if its clean mass strictly
    exceeds both others, in the unlabeled set only if its closed mass
    strictly exceeds both others; everything else (ties included) is
    excluded.
    """
    w, w_op, w_cl = split.w, split.w_op, split.w_cl
    in_x = (w > w_op) & (w > w_cl)
    in_u = (w_cl > w) & (w_cl > w_op)
    in_o = ~(in_x | in_u)
    idx = np.arange(len(split))
    return Partition(x_idx=idx[in_x], u_idx=idx[in_u], o_idx=idx[in_o])
