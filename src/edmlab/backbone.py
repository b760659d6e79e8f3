"""A minimal multilayer rectifier classifier with SGD-momentum training.

The model is a fully connected network ``d -> hidden... -> K`` with rectifier
activations between layers and linear outputs.  Inference and every no-grad
pass (loss scans, label guessing, relabelling) use the plain numpy forward;
whole datasets go through it in bounded chunks.  An SGD step builds no
graph: :func:`forward_logits_t` keeps each layer's input, a loss head in
:mod:`edmlab.losses` returns its value and its gradient at the logits in
closed form, :func:`backward` writes every parameter's gradient into the
flat gradient :class:`OptimState` owns, and :func:`sgd_step` updates the
parameter buffer in place; one :mod:`edmlab.train` function runs every
step.  The tests check the gradients against finite differences.  The
training views of a batch (:func:`augment`) add Gaussian jitter of the
fixed scale JITTER_SIGMA.

A network's parameters are one buffer that :class:`ModelParams` owns;
:func:`param_shapes` is the only statement of its W0, b0, W1, b1, ...
layout.  :func:`init_model` builds it in PARAM_DTYPE (float32), the dtype
:mod:`edmlab.manifest_io` stores, so a checkpoint is exactly the network
that was saved; the gradient checks run the same code on float64 networks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericsError

ROLE_NETD = "NetD"
ROLE_NETS = "NetS"
ROLES = (ROLE_NETD, ROLE_NETS)

#: rows per no-grad pass over a whole dataset: every such pass (the loss
#: scan, relabelling, test accuracy, and the CSV exports, which also write
#: their rows this many at a time) walks the slices of :func:`chunks`.
#: Rule: a chunk's widest activation, FORWARD_CHUNK * max(HIDDEN_WIDTHS)
#: values, stays within 256 KiB, a block size glibc keeps resident, even in
#: float64 (in PARAM_DTYPE it is 128 KiB).  At 4,096 rows an n=2,000 pass
#: allocated two 1 MiB float64 activations, which glibc maps or trims away
#: again on free, so every pass faulted ~500 pages back in: 36,309 minor
#: faults per default run against 5,729 at 512 rows.
FORWARD_CHUNK = 512

#: standard deviation of the Gaussian jitter :func:`augment` adds
JITTER_SIGMA = 0.05

#: dtype of every network :func:`init_model` builds, and of checkpoints
PARAM_DTYPE = np.float32

#: SGD's momentum and coupled weight decay, the same in every run
MOMENTUM = 0.8
WEIGHT_DECAY = 5e-4


def param_shapes(widths) -> list[tuple[int, ...]]:
    """Shapes of the parameter arrays W0, b0, W1, b1, ... of a network.

    This is the one place the architecture rule lives: at least input and
    output widths, and every width at least 1.
    """
    if len(widths) < 2 or any(w < 1 for w in widths):
        raise ValueError(f"invalid architecture {tuple(widths)}")
    return [s for fan_in, fan_out in zip(widths[:-1], widths[1:])
            for s in ((fan_in, fan_out), (fan_out,))]


def param_count(widths) -> int:
    """How many values the parameter buffer of a network holds."""
    return sum(map(math.prod, param_shapes(widths)))


@dataclass(eq=False)
class ModelParams:
    """A rectifier network: its layer widths, its role, and one flat
    ``buffer`` that holds every parameter in the order W0, b0, W1, b1, ...

    The model keeps its own copy of the buffer it is given, which must hold
    exactly the parameters the widths imply, all finite.  The copy keeps a
    float32 or float64 buffer's dtype; any other input becomes float64.
    Forward and backward passes compute in that dtype.  ``weights``,
    ``biases`` and :meth:`flat` are views of it made once, so an SGD step
    updates every parameter with a handful of array operations.  Update
    them in place only.  Models compare by identity.  :func:`init_model`
    and :func:`~edmlab.manifest_io.load_checkpoint` build models.
    """

    widths: tuple[int, ...]
    buffer: np.ndarray
    role: str = ROLE_NETD

    def __post_init__(self) -> None:
        self.widths = tuple(int(w) for w in self.widths)
        size = param_count(self.widths)
        if self.role not in ROLES:
            raise ValueError(f"role must be one of {ROLES}, got {self.role!r}")
        dtype = getattr(self.buffer, "dtype", None)
        if dtype not in (np.float32, np.float64):
            dtype = np.float64
        self.buffer = np.array(self.buffer, dtype=dtype)
        if self.buffer.shape != (size,):
            raise ValueError(f"buffer of shape {self.buffer.shape} does not hold "
                             f"the {size} parameters of architecture {self.widths}")
        if not np.isfinite(self.buffer).all():
            raise ValueError("non-finite model parameter")
        self._arrays = self.layout(self.buffer)
        self.weights, self.biases = self._arrays[0::2], self._arrays[1::2]

    @property
    def input_dim(self) -> int:
        return self.widths[0]

    @property
    def num_classes(self) -> int:
        return self.widths[-1]

    def copy(self) -> "ModelParams":
        return ModelParams(self.widths, self.buffer, self.role)

    def flat(self) -> tuple[np.ndarray, ...]:
        """Views of the parameters in the canonical order W0, b0, W1, b1, ..."""
        return self._arrays

    def layout(self, flat: np.ndarray) -> tuple[np.ndarray, ...]:
        """Views of ``flat``, laid out like ``buffer``, in the order of
        :meth:`flat`: how a step's gradient (:func:`backward`) is written."""
        views, offset = [], 0
        for shape in param_shapes(self.widths):
            size = math.prod(shape)
            views.append(flat[offset:offset + size].reshape(shape))
            offset += size
        if offset != flat.size:
            raise ValueError(f"flat array of {flat.size} values does not hold "
                             f"parameters of {offset}")
        return tuple(views)


def init_model(widths, seed: int, role: str = ROLE_NETD) -> ModelParams:
    """Zero-mean weights with variance 1/fan_in, rounded to PARAM_DTYPE;
    biases exactly zero."""
    model = ModelParams(widths, np.zeros(param_count(widths), PARAM_DTYPE), role)
    rng = np.random.default_rng(seed)
    for w in model.weights:
        w[...] = rng.normal(0.0, 1.0 / np.sqrt(w.shape[0]), size=w.shape)
    return model


def forward_logits(params: ModelParams, batch: np.ndarray) -> np.ndarray:
    """Plain-numpy forward pass; pure function of (params, batch)."""
    return forward_logits_t(params.flat(), batch)[-1]


def chunks(n: int):
    """Slices that cover ``range(n)`` in order, FORWARD_CHUNK rows each."""
    return (slice(start, start + FORWARD_CHUNK)
            for start in range(0, n, FORWARD_CHUNK))


def forward_logits_chunked(params: ModelParams, batch: np.ndarray) -> np.ndarray:
    """:func:`forward_logits` over a whole dataset, one :func:`chunks` slice
    at a time.

    Chunking bounds the hidden activations held at once on large manifests.
    """
    out = np.empty((batch.shape[0], params.num_classes), dtype=np.float64)
    for block in chunks(batch.shape[0]):
        out[block] = forward_logits(params, batch[block])
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


def param_tensors(params: ModelParams) -> tuple[np.ndarray, ...]:
    """The parameter arrays a step differentiates, in canonical flat order."""
    return params.flat()


def forward_logits_t(arrays: tuple[np.ndarray, ...], batch: np.ndarray
                     ) -> list[np.ndarray]:
    """Forward pass over the arrays from :func:`param_tensors`.

    Returns the input of every layer followed by the logits: ``[-1]`` is
    the logits and ``[-2]`` the last hidden layer.  The batch is cast to the
    parameters' dtype, and every array of the list has that dtype.  A
    training step keeps the list for :func:`backward`.
    """
    x = np.asarray(batch, dtype=arrays[0].dtype)
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


def backward(arrays: tuple[np.ndarray, ...], acts: list[np.ndarray],
             grad: np.ndarray, out: tuple[np.ndarray, ...]
             ) -> tuple[np.ndarray, ...]:
    """Backpropagate dL/dlogits through the network of one forward pass.

    ``arrays`` and ``acts`` come from :func:`param_tensors` and
    :func:`forward_logits_t`; ``grad`` is a head's gradient at
    ``acts[-1]``, cast here to the dtype of ``out``.  Every weight and bias
    gradient is written into ``out``, the views :meth:`ModelParams.layout`
    makes of one flat array, which is returned; a training step passes
    ``OptimState.grads`` here and ``OptimState.grad`` to :func:`sgd_step`.
    The rectifier passes no gradient where its output is exactly 0.
    """
    if grad.shape != acts[-1].shape:
        raise ValueError(f"gradient shape {grad.shape} does not match the "
                         f"logits {acts[-1].shape}")
    grad = grad.astype(out[0].dtype, copy=False)
    for i in range(len(arrays) // 2 - 1, -1, -1):
        np.add.reduce(grad, axis=0, out=out[2 * i + 1])
        np.matmul(acts[i].T, grad, out=out[2 * i])
        if i:
            grad = grad @ arrays[2 * i].T
            grad *= acts[i] > 0.0
    return out


@dataclass
class OptimState:
    """SGD-with-momentum state: the learning rate, the velocity, the flat
    gradient ``grad`` and its layout views ``grads`` that :func:`backward`
    writes, and a scratch array each step reuses."""

    learning_rate: float
    velocity: np.ndarray
    grad: np.ndarray = field(repr=False)
    grads: tuple[np.ndarray, ...] = field(repr=False)
    scratch: np.ndarray = field(repr=False)


def init_optim(params: ModelParams, learning_rate: float) -> OptimState:
    """Zero velocity; the optimiser's arrays, laid out like ``params.buffer``,
    are made here once, so no training pass allocates a gradient."""
    if learning_rate < 0:
        raise ValueError(f"learning rate must be >= 0, got {learning_rate}")
    grad = np.empty_like(params.buffer)
    return OptimState(learning_rate, np.zeros_like(grad), grad,
                      params.layout(grad), np.empty_like(grad))


def sgd_step(params: ModelParams, grad: np.ndarray, opt: OptimState) -> None:
    """v <- m*v + g + wd*theta; theta <- theta - lr*v (in place).

    m and wd are MOMENTUM and WEIGHT_DECAY.  ``grad`` is one flat array laid
    out like ``params.buffer``, in training ``opt.grad``.  Classic
    coupled weight decay: the decay term enters the velocity.  A non-finite
    gradient aborts the step before any parameter or velocity changes.
    """
    theta, v, tmp = params.buffer, opt.velocity, opt.scratch
    if grad.shape != theta.shape or v.shape != theta.shape:
        raise ValueError(f"gradient {grad.shape} and velocity {v.shape} must "
                         f"match the parameter buffer {theta.shape}")
    if not np.isfinite(grad).all():
        bad = next(i for i, g in enumerate(params.layout(grad))
                   if not np.isfinite(g).all())
        raise NumericsError(f"non-finite gradient in parameter array {bad} "
                            f"({'Wb'[bad % 2]}{bad // 2})")
    np.multiply(theta, WEIGHT_DECAY, out=tmp)
    tmp += grad
    v *= MOMENTUM
    v += tmp
    np.multiply(v, opt.learning_rate, out=tmp)
    theta -= tmp


def augment(batch: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One jittered view of a batch; each call consumes fresh draws."""
    x = np.asarray(batch, dtype=np.float64)
    return x + rng.normal(0.0, JITTER_SIGMA, size=x.shape)

