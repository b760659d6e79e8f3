"""Finite-difference checks of the flat gradient a training step applies.

Each loss head returns its gradient at the logits; ``backward`` carries it
through the network into one flat array laid out like
``ModelParams.buffer``, and ``sgd_step`` applies that array.  These tests
compare every parameter block of the flat gradient with central
differences of the head's value through an 8-64-64-4 network, the width
training uses, and pin what ``sgd_step`` does with a gradient it must
refuse.
"""

import numpy as np
import pytest
from conftest import central_diff_at, rel_err

from edmlab.backbone import (
    backward,
    forward_logits,
    forward_logits_t,
    init_model,
    init_optim,
    param_tensors,
    sgd_step,
)
from edmlab.errors import NumericsError
from edmlab.losses import (
    LossWeights,
    ce_batch_loss_t,
    dm_batch_loss_t,
    sl_batch_loss_t,
    softmax_t,
)

WIDTHS = (8, 64, 64, 4)
ROWS = 16


def _targets(rng, n_x):
    """One-hot labels for the first ``n_x`` rows, soft guesses after them."""
    labels = np.eye(4)[rng.integers(0, 4, size=n_x)]
    guesses = rng.dirichlet(np.ones(4), size=ROWS - n_x)
    return np.concatenate([labels, guesses])


# each head maps the logits and the targets to (value, dL/dlogits)
HEADS = {
    "ce": lambda z, y: ce_batch_loss_t(softmax_t(z), y),
    "sl": sl_batch_loss_t,
    "dm-mixed": lambda z, y: dm_batch_loss_t(z, y, 10, LossWeights())[:2],
    "dm-labeled": lambda z, y: dm_batch_loss_t(z, y, ROWS, LossWeights())[:2],
}


@pytest.mark.parametrize("name", sorted(HEADS))
def test_flat_gradient_matches_central_differences(name):
    head = HEADS[name]
    rng = np.random.default_rng(sorted(HEADS).index(name))
    model = init_model(WIDTHS, seed=3)
    x = rng.normal(size=(ROWS, WIDTHS[0]))
    y = _targets(rng, 10 if name == "dm-mixed" else ROWS)

    arrays = param_tensors(model)
    acts = forward_logits_t(arrays, x)
    value, d_logits = head(acts[-1], y)
    grad = backward(arrays, acts, d_logits, np.empty_like(model.buffer))
    assert grad.shape == model.buffer.shape
    assert value == head(forward_logits(model, x), y)[0]

    offsets = np.cumsum([0] + [a.size for a in arrays])
    coords = [(ai, int(i)) for ai, arr in enumerate(arrays)
              for i in rng.choice(arr.size, size=min(16, arr.size), replace=False)]
    numeric = central_diff_at(lambda: float(head(forward_logits(model, x), y)[0]),
                              arrays, coords)
    analytic = np.array([grad[offsets[ai] + i] for ai, i in coords])
    assert rel_err(analytic, numeric).max() <= 1e-3


def _model_with_momentum():
    """A model whose optimiser has taken one step, so its velocity is not 0."""
    model = init_model((3, 4, 2), seed=0)
    opt = init_optim(model, 0.1)
    sgd_step(model, np.linspace(-1.0, 1.0, model.buffer.size), opt)
    return model, opt


def test_nan_gradient_names_its_array_and_changes_nothing():
    model, opt = _model_with_momentum()
    params, velocity = model.buffer.copy(), opt.velocity.copy()
    grad = np.ones_like(model.buffer)
    # W0 holds 12 values and b0 4, so value 20 is the fifth of W1
    grad[20] = np.nan
    with pytest.raises(NumericsError, match=r"parameter array 2 \(W1\)"):
        sgd_step(model, grad, opt)
    np.testing.assert_array_equal(model.buffer, params)
    np.testing.assert_array_equal(opt.velocity, velocity)


def test_gradient_of_wrong_length_rejected():
    model, opt = _model_with_momentum()
    params = model.buffer.copy()
    with pytest.raises(ValueError):
        sgd_step(model, np.ones(model.buffer.size - 1), opt)
    np.testing.assert_array_equal(model.buffer, params)
