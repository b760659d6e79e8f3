"""A minimal multilayer rectifier classifier with SGD-momentum training.

The model is a fully connected network ``d -> hidden... -> K`` with rectifier
activations between layers and linear outputs.  Inference and every no-grad
pass (loss scans, label guessing, relabelling) use the plain numpy forward;
whole datasets go through it in bounded chunks.  An SGD step builds no
graph: :func:`forward_logits_t` keeps each layer's input, a loss head in
:mod:`edmlab.losses` returns its value and its gradient at the logits in
closed form, :func:`backward` writes every parameter's gradient into one
flat array laid out like ``ModelParams.buffer``, and :func:`sgd_step`
updates that buffer in place.  The test suite checks those gradients
against finite differences.  The training views of a batch
(:func:`augment`) add Gaussian jitter of the fixed scale JITTER_SIGMA.

Parameters live in float64 in memory; :mod:`edmlab.manifest_io` reads and
writes them as checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericsError

ROLE_NETD = "NetD"
ROLE_NETS = "NetS"
ROLES = (ROLE_NETD, ROLE_NETS)

#: rows per no-grad forward call over a whole dataset: in
#: :func:`forward_logits_chunked` (the loss scan ``losses.sl_dataset_loss``
#: and ``train.relabel_for_nets``), and in ``evaluation.test_accuracy``,
#: ``evaluation.export_features`` and ``evaluation.export_posteriors``, which
#: also write their CSV rows this many at a time
FORWARD_CHUNK = 4096

#: standard deviation of the Gaussian jitter :func:`augment` adds
JITTER_SIGMA = 0.05


def _views(flat: np.ndarray, arrays: list[np.ndarray]) -> list[np.ndarray]:
    """Views of ``flat`` shaped like ``arrays``, laid end to end."""
    views, offset = [], 0
    for arr in arrays:
        views.append(flat[offset:offset + arr.size].reshape(arr.shape))
        offset += arr.size
    if offset != flat.size:
        raise ValueError(f"flat array of {flat.size} values does not hold "
                         f"parameters of {offset}")
    return views


@dataclass
class ModelParams:
    """Weights and biases of a rectifier network, plus its shape and role.

    The arrays are copied into one contiguous ``buffer`` (in :meth:`flat`
    order) and kept as views of it, so an SGD step updates every parameter
    with a handful of array operations.  Update them in place only.
    """

    widths: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    role: str = ROLE_NETD

    def __post_init__(self) -> None:
        self.widths = tuple(int(w) for w in self.widths)
        if len(self.widths) < 2:
            raise ValueError("architecture needs at least input and output widths")
        if any(w < 1 for w in self.widths):
            raise ValueError(f"zero-width layer in architecture {self.widths}")
        if self.role not in ROLES:
            raise ValueError(f"role must be one of {ROLES}, got {self.role!r}")
        expected = len(self.widths) - 1
        if len(self.weights) != expected or len(self.biases) != expected:
            raise ValueError("layer count does not match architecture")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (self.widths[i], self.widths[i + 1]):
                raise ValueError(f"weight {i} has shape {w.shape}, "
                                 f"expected {(self.widths[i], self.widths[i + 1])}")
            if b.shape != (self.widths[i + 1],):
                raise ValueError(f"bias {i} has shape {b.shape}")
        for arr in self.weights + self.biases:
            if not np.all(np.isfinite(arr)):
                raise ValueError("non-finite model parameter")
        self.buffer = np.concatenate([a.ravel() for a in self.flat()], dtype=np.float64)
        views = _views(self.buffer, self.flat())
        self.weights, self.biases = views[0::2], views[1::2]

    @property
    def input_dim(self) -> int:
        return self.widths[0]

    @property
    def num_classes(self) -> int:
        return self.widths[-1]

    def copy(self) -> "ModelParams":
        return ModelParams(
            widths=self.widths,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            role=self.role,
        )

    def flat(self) -> list[np.ndarray]:
        """Parameters in the canonical order W0, b0, W1, b1, ..."""
        out: list[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out


def init_model(widths, seed: int, role: str = ROLE_NETD) -> ModelParams:
    """Zero-mean weights with variance 1/fan_in; biases exactly zero."""
    widths = tuple(int(w) for w in widths)
    if len(widths) < 2 or any(w < 1 for w in widths):
        raise ValueError(f"invalid architecture {widths}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        scale = 1.0 / np.sqrt(fan_in)
        weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out, dtype=np.float64))
    return ModelParams(widths=widths, weights=weights, biases=biases, role=role)


def forward_logits(params: ModelParams, batch: np.ndarray) -> np.ndarray:
    """Plain-numpy forward pass; pure function of (params, batch)."""
    return forward_logits_t(params.flat(), batch)[-1]


def forward_logits_chunked(params: ModelParams, batch: np.ndarray) -> np.ndarray:
    """:func:`forward_logits` over a whole dataset, FORWARD_CHUNK rows at a time.

    Chunking bounds the hidden activations held at once on large manifests.
    """
    n = batch.shape[0]
    out = np.empty((n, params.num_classes), dtype=np.float64)
    for start in range(0, n, FORWARD_CHUNK):
        out[start:start + FORWARD_CHUNK] = forward_logits(
            params, batch[start:start + FORWARD_CHUNK])
    return out


def hidden_features(params: ModelParams, batch: np.ndarray) -> np.ndarray:
    """Activations of the last hidden layer (the penultimate representation)."""
    return forward_logits_t(params.flat(), batch)[-2]


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for overflow safety."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# The step functions below keep the names ``edmlab.train`` calls them by,
# which perfbench/layers.py wraps to time each part of a step.


def param_tensors(params: ModelParams) -> list[np.ndarray]:
    """The parameter arrays a step differentiates, in canonical flat order."""
    return params.flat()


def forward_logits_t(arrays: list[np.ndarray], batch: np.ndarray) -> list[np.ndarray]:
    """Forward pass over the arrays from :func:`param_tensors`.

    Returns the input of every layer followed by the logits: ``[-1]`` is
    the logits and ``[-2]`` the last hidden layer.  A training step keeps
    the list for :func:`backward`.
    """
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != arrays[0].shape[0]:
        raise ValueError(f"batch shape {x.shape} incompatible with input width "
                         f"{arrays[0].shape[0]}")
    acts = [x]
    for w, b in zip(arrays[0:-2:2], arrays[1:-2:2]):
        # in place on the fresh product: one array per layer, not three
        x = x @ w
        x += b
        np.maximum(x, 0.0, out=x)
        acts.append(x)
    x = x @ arrays[-2]
    x += arrays[-1]
    acts.append(x)
    return acts


def backward(arrays: list[np.ndarray], acts: list[np.ndarray],
             grad: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Backpropagate dL/dlogits through the network of one forward pass.

    ``arrays`` and ``acts`` come from :func:`param_tensors` and
    :func:`forward_logits_t`; ``grad`` is a head's gradient at
    ``acts[-1]``.  Every weight and bias gradient is written into ``out``
    (a new array when None), one flat float64 array laid out like
    ``ModelParams.buffer``, which is returned.  The rectifier passes no
    gradient where its output is exactly 0.
    """
    if grad.shape != acts[-1].shape:
        raise ValueError(f"gradient shape {grad.shape} does not match the "
                         f"logits {acts[-1].shape}")
    if out is None:
        out = np.empty(sum(a.size for a in arrays))
    views = _views(out, arrays)
    for i in range(len(arrays) // 2 - 1, -1, -1):
        np.add.reduce(grad, axis=0, out=views[2 * i + 1])
        np.matmul(acts[i].T, grad, out=views[2 * i])
        if i:
            grad = grad @ arrays[2 * i].T
            grad *= acts[i] > 0.0
    return out


@dataclass
class OptimState:
    """SGD-with-momentum state: the velocity, and a scratch array each step
    reuses, both laid out like ``ModelParams.buffer``."""

    learning_rate: float
    momentum: float
    weight_decay: float
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(0))
    scratch: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.learning_rate < 0 or self.momentum < 0 or self.weight_decay < 0:
            raise ValueError("optimizer hyperparameters must be non-negative")
        self.scratch = np.empty_like(self.velocity)


def init_optim(params: ModelParams, learning_rate: float, momentum: float,
               weight_decay: float) -> OptimState:
    return OptimState(
        learning_rate=learning_rate,
        momentum=momentum,
        weight_decay=weight_decay,
        velocity=np.zeros_like(params.buffer),
    )


def sgd_step(params: ModelParams, grad: np.ndarray, opt: OptimState) -> None:
    """v <- m*v + g + wd*theta; theta <- theta - lr*v (in place).

    ``grad`` is one flat array laid out like ``params.buffer``, as
    :func:`backward` writes it.  Classic coupled weight decay: the decay
    term enters the velocity.  A non-finite gradient aborts the step
    before any parameter or velocity changes.
    """
    theta, v, tmp = params.buffer, opt.velocity, opt.scratch
    if grad.shape != theta.shape or v.shape != theta.shape:
        raise ValueError(f"gradient {grad.shape} and velocity {v.shape} must "
                         f"match the parameter buffer {theta.shape}")
    if not np.isfinite(grad).all():
        bad = next(i for i, g in enumerate(_views(grad, params.flat()))
                   if not np.isfinite(g).all())
        raise NumericsError(f"non-finite gradient in parameter array {bad} "
                            f"({'Wb'[bad % 2]}{bad // 2})")
    np.multiply(theta, opt.weight_decay, out=tmp)
    tmp += grad
    v *= opt.momentum
    v += tmp
    np.multiply(v, opt.learning_rate, out=tmp)
    theta -= tmp


def augment(batch: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One jittered view of a batch; each call consumes fresh draws."""
    x = np.asarray(batch, dtype=np.float64)
    return x + rng.normal(0.0, JITTER_SIGMA, size=x.shape)

