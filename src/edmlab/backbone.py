"""A minimal multilayer rectifier classifier with SGD-momentum training.

The model is a fully connected network ``d -> hidden... -> K`` with rectifier
activations between layers and linear outputs.  Inference and every no-grad
pass (loss scans, label guessing, relabelling) use the plain numpy forward;
whole datasets go through it in bounded chunks.  An SGD step builds a graph
of a few fused :class:`Tensor` nodes (this forward, then the loss heads in
:mod:`edmlab.losses`), each with a hand-derived backward; the test suite
checks those gradients against finite differences.  The training views of a
batch (:func:`augment`) add Gaussian jitter of the fixed scale JITTER_SIGMA.

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
        views, offset = [], 0
        for arr in self.flat():
            views.append(self.buffer[offset:offset + arr.size].reshape(arr.shape))
            offset += arr.size
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
    return hidden_features(params, batch) @ params.weights[-1] + params.biases[-1]


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
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ValueError(f"batch shape {x.shape} incompatible with input width "
                         f"{params.input_dim}")
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        # in place on the fresh product: one layer's array per step, not three
        x = x @ w
        x += b
        np.maximum(x, 0.0, out=x)
    return x


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for overflow safety."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


class Tensor:
    """A node of one SGD step's graph: a value and how its gradient flows back.

    A leaf (``backprop`` is None) is a parameter array or a constant.  Every
    other node is one fused operation (the network forward, a softmax, a loss
    head) whose ``backprop(grad)`` maps the gradient of its output to one
    gradient per parent, in closed form from arrays cached at forward time.
    The closure never refers to its own node, so a step's graph holds no
    reference cycles and is freed as soon as the step drops it.
    """

    __slots__ = ("value", "grad", "parents", "backprop", "__weakref__")

    def __init__(self, value, parents=(), backprop=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.parents: tuple[Tensor, ...] = tuple(parents)
        self.backprop = backprop


def param_tensors(params: ModelParams) -> list[Tensor]:
    """Leaf tensors over the parameters, in canonical flat order."""
    return [Tensor(arr) for arr in params.flat()]


def forward_logits_t(tensors: list[Tensor], batch: np.ndarray) -> Tensor:
    """Differentiable forward pass through tensors from :func:`param_tensors`.

    One node whose parents are the parameter leaves; it keeps each layer's
    input for the backward pass.  A graph may hold several forward nodes
    over one set of leaves: :func:`backward` adds up their gradients.
    """
    if len(tensors) < 2 or len(tensors) % 2 != 0:
        raise ValueError("expected an even-length W,b tensor list")
    weights = [t.value for t in tensors[0::2]]
    biases = [t.value for t in tensors[1::2]]
    inputs = [np.asarray(batch, dtype=np.float64)]
    for w, b in zip(weights[:-1], biases[:-1]):
        inputs.append(np.maximum(inputs[-1] @ w + b, 0.0))
    logits = inputs[-1] @ weights[-1] + biases[-1]

    def backprop(grad):
        grads = []
        for i in range(len(weights) - 1, -1, -1):
            grads += [grad.sum(axis=0), inputs[i].T @ grad]
            if i:
                grad = (grad @ weights[i].T) * (inputs[i] > 0.0)
        return grads[::-1]

    return Tensor(logits, tensors, backprop)


def backward(param_ts: list[Tensor], loss: Tensor) -> list[np.ndarray]:
    """Backpropagate a scalar loss and collect per-parameter gradients.

    Each node's gradient is pushed to its parents as soon as it is known;
    backprop is linear, so a node reached along several paths may pass each
    share on separately, and a leaf shared by several nodes sums its shares.
    Raises if any parameter tensor is not part of the loss graph.
    """
    if loss.value.size != 1:
        raise ValueError("backward() requires a scalar loss")
    for t in param_ts:
        t.grad = None
    pending = [(loss, np.ones_like(loss.value))]
    while pending:
        node, grad = pending.pop()
        if node.backprop is None:
            node.grad = grad if node.grad is None else node.grad + grad
            continue
        pending.extend(zip(node.parents, node.backprop(grad)))
    grads = []
    for i, t in enumerate(param_ts):
        if t.grad is None:
            raise ValueError(f"loss is not connected to parameter tensor {i}")
        grads.append(t.grad)
    return grads


@dataclass
class OptimState:
    """SGD-with-momentum state: the velocity, laid out like ``ModelParams.buffer``."""

    learning_rate: float
    momentum: float
    weight_decay: float
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self) -> None:
        if self.learning_rate < 0 or self.momentum < 0 or self.weight_decay < 0:
            raise ValueError("optimizer hyperparameters must be non-negative")


def init_optim(params: ModelParams, learning_rate: float, momentum: float,
               weight_decay: float) -> OptimState:
    return OptimState(
        learning_rate=learning_rate,
        momentum=momentum,
        weight_decay=weight_decay,
        velocity=np.zeros_like(params.buffer),
    )


def sgd_step(params: ModelParams, grads: list[np.ndarray],
             opt: OptimState) -> None:
    """v <- m*v + g + wd*theta; theta <- theta - lr*v (in place).

    Classic coupled weight decay: the decay term enters the velocity.
    A non-finite gradient aborts the step before touching any parameter.
    """
    flat = params.flat()
    if len(grads) != len(flat) or opt.velocity.shape != params.buffer.shape:
        raise ValueError("gradient/velocity count does not match parameters")
    for i, g in enumerate(grads):
        if g.shape != flat[i].shape:
            raise ValueError(f"gradient {i} shape {g.shape} != {flat[i].shape}")
    grad = np.concatenate([g.ravel() for g in grads])
    if not np.isfinite(grad).all():
        bad = next(i for i, g in enumerate(grads) if not np.isfinite(g).all())
        raise NumericsError(f"non-finite gradient in parameter array {bad}")
    v, theta = opt.velocity, params.buffer
    v *= opt.momentum
    v += grad + opt.weight_decay * theta
    theta -= opt.learning_rate * v


def augment(batch: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One jittered view of a batch; each call consumes fresh draws."""
    x = np.asarray(batch, dtype=np.float64)
    return x + rng.normal(0.0, JITTER_SIGMA, size=x.shape)

