"""Tests for the closed-form gradients of a training step, case by case.

A step runs ``forward_logits_t`` (each layer's input, then the logits), a
loss head that returns its value and its gradient at the logits, and
``backward``, which writes every parameter's gradient into one flat array.
These tests pin head values to plain numpy, ``backward``'s mechanics (the
logits' gradient only, fresh values per call, any depth) and hand
gradients, including the kinks where finite differences cannot check them.
The finite-difference checks at full network width are in
``test_gradients.py``.
"""

import numpy as np
import pytest
from conftest import central_diff_at, rel_err

from edmlab.backbone import (
    ModelParams,
    backward,
    forward_logits,
    forward_logits_t,
    init_model,
    param_tensors,
    softmax_probs,
)
from edmlab.losses import (
    EPS,
    LossWeights,
    _ce,
    _mse,
    _reg,
    _softmax_backprop,
    ce_batch_loss_t,
    dm_batch_loss_t,
    sl_batch_loss_t,
    sl_losses_from_logits,
    softmax_t,
)


def _split(flat, arrays):
    """The per-array blocks of a flat gradient, shaped like ``arrays``."""
    ends = np.cumsum([a.size for a in arrays])
    return [block.reshape(a.shape)
            for block, a in zip(np.split(flat, ends[:-1]), arrays)]


def _network_grad(arrays, x, d_logits_of):
    """The flat gradient of one step whose head gradient is ``d_logits_of``."""
    acts = forward_logits_t(arrays, x)
    return backward(arrays, acts, d_logits_of(acts[-1]))


class TestForwardValues:
    def test_arithmetic_matches_numpy(self):
        """Forward and head values are the plain numpy computations."""
        rng = np.random.default_rng(0)
        m = init_model((5, 8, 3), seed=0)
        x = rng.normal(size=(7, 5))
        z = rng.normal(scale=3, size=(7, 3))
        soft = rng.dirichlet(np.ones(3), size=7)
        np.testing.assert_array_equal(
            forward_logits_t(param_tensors(m), x)[-1], forward_logits(m, x))
        p = softmax_probs(z)
        np.testing.assert_array_equal(softmax_t(z), p)
        np.testing.assert_allclose(
            ce_batch_loss_t(p, soft)[0],
            -(soft * np.log(p)).sum(axis=1).mean(), rtol=1e-14)
        np.testing.assert_allclose(
            _mse(p, soft)[0], ((p - soft) ** 2).sum(axis=1).mean(), rtol=1e-14)
        mean = p.mean(axis=0)
        np.testing.assert_allclose(
            _reg(mean)[0], (np.log(1 / 3) - np.log(mean)).sum() / 3, rtol=1e-12)

    def test_scalar_and_array_mixing(self):
        """The forward pass computes in float64; logits and labels may be lists."""
        m = init_model((2, 3, 2), seed=1)
        acts = forward_logits_t(param_tensors(m), np.ones((2, 2), dtype=np.float32))
        assert all(a.dtype == np.float64 for a in acts)
        z = [[2.0, -1.0], [0.5, 0.5]]
        labels = [[1, 0], [0, 1]]
        value, grad = sl_batch_loss_t(z, labels)
        want_value, want_grad = sl_batch_loss_t(np.array(z), np.eye(2))
        assert np.ndim(value) == 0
        np.testing.assert_array_equal(value, want_value)
        np.testing.assert_array_equal(grad, want_grad)

    def test_reductions(self):
        """Batch heads are the mean of their per-row losses."""
        rng = np.random.default_rng(1)
        z = rng.normal(scale=2, size=(9, 4))
        y = np.eye(4)[rng.integers(0, 4, size=9)]
        np.testing.assert_allclose(sl_batch_loss_t(z, y)[0],
                                   sl_losses_from_logits(z, y).mean(), rtol=1e-14)
        p = softmax_probs(z)
        ce_rows = -(y * np.log(p)).sum(axis=1)
        np.testing.assert_allclose(ce_batch_loss_t(p, y)[0],
                                   ce_rows.mean(), rtol=1e-14)


class TestBackwardHandCases:
    def test_product_rule_with_reuse(self):
        """Parameters every row shares receive the sum of the rows' shares.

        The combined head over a batch holding x twice (labeled, then
        unlabeled) gives the gradient of cross-entropy on x plus 25 times
        squared error on x, each backpropagated on its own.
        """
        rng = np.random.default_rng(2)
        m = init_model((4, 6, 3), seed=2)
        arrays = param_tensors(m)
        x = rng.normal(size=(6, 4))
        y = np.eye(3)[rng.integers(0, 3, size=6)]
        t = rng.dirichlet(np.ones(3), size=6)

        def d_mse(z):
            p = softmax_probs(z)
            return _softmax_backprop(p, _mse(p, t)[1])

        ce = _network_grad(arrays, x, lambda z: ce_batch_loss_t(softmax_t(z), y)[1])
        mse = _network_grad(arrays, x, d_mse)
        w = LossWeights(lambda_u=25.0, lambda_reg=0.0)
        mixed = _network_grad(arrays, np.concatenate([x, x]),
                              lambda z: dm_batch_loss_t(z, np.concatenate([y, t]),
                                                        6, w)[1])
        np.testing.assert_allclose(mixed, ce + 25.0 * mse, rtol=1e-12, atol=1e-15)

    def test_division_gradients(self):
        """Evidence loss at logits (1, 1), label (1, 0), by hand.

        alpha = (2, 2), S = 4, p = (1/2, 1/2), var = 1/10; dL/dp = (-1, 1),
        so dL/dalpha = (dL/dp - <dL/dp, p>) / S - var / (S + 1).
        """
        value, grad = sl_batch_loss_t(np.array([[1.0, 1.0]]), np.array([[1.0, 0.0]]))
        assert value == pytest.approx(0.6, abs=1e-15)
        np.testing.assert_allclose(grad, [[-0.27, 0.23]], atol=1e-15)

    def test_matmul_gradients(self):
        """dW = input^T G, carried down through W^T and the rectifier gate."""
        rng = np.random.default_rng(3)
        m = init_model((3, 5, 2), seed=3)
        arrays = param_tensors(m)
        x = rng.normal(size=(4, 3))
        g = rng.normal(size=(4, 2))
        d_w0, _, d_w1, _ = _split(_network_grad(arrays, x, lambda z: g), arrays)
        h = np.maximum(x @ m.weights[0] + m.biases[0], 0.0)
        np.testing.assert_allclose(d_w1, h.T @ g, rtol=1e-12)
        np.testing.assert_allclose(d_w0, x.T @ ((g @ m.weights[1].T) * (h > 0)),
                                   rtol=1e-12)

    def test_broadcast_bias_gradient_sums_rows(self):
        m = init_model((3, 5, 2), seed=4)
        arrays = param_tensors(m)
        x = np.random.default_rng(4).normal(size=(4, 3))
        g = np.ones((4, 2))
        _, d_b0, _, d_b1 = _split(_network_grad(arrays, x, lambda z: g), arrays)
        np.testing.assert_array_equal(d_b1, [4.0, 4.0])
        h = np.maximum(x @ m.weights[0] + m.biases[0], 0.0)
        np.testing.assert_allclose(d_b0, ((g @ m.weights[1].T) * (h > 0)).sum(axis=0),
                                   rtol=1e-12)

    def test_relu_gate(self):
        """A pre-activation or logit exactly at 0 passes no gradient."""
        m = ModelParams(widths=(1, 2, 2),
                        weights=[np.array([[1.0, 2.0]]),
                                 np.array([[1.0, 2.0], [3.0, 4.0]])],
                        biases=[np.array([-1.0, 0.0]), np.array([0.0, 0.0])])
        arrays = param_tensors(m)
        # hidden pre-activations (0, 2): the first unit sits on the kink
        grad = _network_grad(arrays, [[1.0]], lambda z: np.ones((1, 2)))
        d_w0, d_b0, d_w1, d_b1 = _split(grad, arrays)
        np.testing.assert_array_equal(d_w0, [[0.0, 7.0]])
        np.testing.assert_array_equal(d_b0, [0.0, 7.0])
        np.testing.assert_array_equal(d_w1, [[0.0, 0.0], [2.0, 2.0]])
        np.testing.assert_array_equal(d_b1, [1.0, 1.0])

        # evidence relu: logit 0 gets nothing (the right-hand slope is -7/12);
        # alpha = (1, 2), S = 3, p = (1/3, 2/3), var = 1/9
        _, got = sl_batch_loss_t(np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]]))
        assert got[0, 0] == 0.0
        assert got[0, 1] == pytest.approx(0.25, abs=1e-15)

    def test_clip_min_gate(self):
        """A probability at or below EPS passes no gradient through the log."""
        p = np.array([[1.0, 0.0], [1.0 - EPS, EPS]])
        y = np.array([[0.5, 0.5], [0.0, 1.0]])
        np.testing.assert_array_equal(_ce(p, y)[1], [[-0.25, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(_reg(np.array([1.0, 0.0]))[1], [-0.5, 0.0])
        np.testing.assert_allclose(
            _reg(np.array([1.0 - EPS, EPS]))[1], [-0.5 / (1.0 - EPS), 0.0],
            rtol=1e-15)

    def test_exp_log_chain(self):
        """Cross-entropy through softmax: dL/dz = (p - y) / n."""
        rng = np.random.default_rng(5)
        z = rng.normal(size=(5, 4))
        y = rng.dirichlet(np.ones(4), size=5)
        _, got = ce_batch_loss_t(softmax_t(z), y)
        np.testing.assert_allclose(got, (softmax_probs(z) - y) / 5, atol=1e-15)

    def test_mean_axis_gradient(self):
        """The batch mean scales each row's gradient by 1/n."""
        p = np.array([[0.5, 0.5], [1.0, 0.0]])
        t = np.array([[1.0, 0.0], [1.0, 0.0]])
        np.testing.assert_array_equal(_mse(p, t)[1], [[-0.5, 0.5], [0.0, 0.0]])
        y = np.array([[1.0, 0.0], [1.0, 0.0]])
        np.testing.assert_allclose(sl_batch_loss_t(np.ones((2, 2)), y)[1],
                                   [[-0.135, 0.115], [-0.135, 0.115]], atol=1e-15)

    def test_backward_requires_scalar(self):
        """backward takes a scalar loss's gradient, shaped like the logits."""
        m = init_model((3, 4, 2), seed=5)
        arrays = param_tensors(m)
        acts = forward_logits_t(arrays, np.ones((5, 3)))
        with pytest.raises(ValueError):
            backward(arrays, acts, np.ones(5))  # one value per row
        assert backward(arrays, acts, np.ones((5, 2))).shape == m.buffer.shape

    def test_grad_reset_between_backward_calls(self):
        """Each backward() overwrites its buffer: no accumulation across calls."""
        m = init_model((3, 4, 2), seed=6)
        arrays = param_tensors(m)
        x = np.random.default_rng(6).normal(size=(5, 3))
        acts = forward_logits_t(arrays, x)
        _, d_logits = ce_batch_loss_t(softmax_t(acts[-1]), np.eye(2)[[0, 1, 1, 0, 1]])
        buf = np.full_like(m.buffer, np.nan)
        assert backward(arrays, acts, d_logits, buf) is buf
        first = buf.copy()
        backward(arrays, acts, d_logits, buf)
        np.testing.assert_array_equal(buf, first)
        np.testing.assert_array_equal(backward(arrays, acts, d_logits), first)


class TestBackwardFiniteDifference:
    def test_composite_expression_gradcheck(self):
        """The combined objective matches central differences at its logits."""
        rng = np.random.default_rng(3)
        z = np.concatenate([rng.normal(size=(4, 5)), rng.normal(size=(3, 5))])
        targets = np.concatenate([rng.dirichlet(np.ones(5), size=4),
                                  rng.dirichlet(np.ones(5), size=3)])
        w = LossWeights(lambda_u=3.0, lambda_reg=2.0)

        analytic = dm_batch_loss_t(z, targets, 4, w)[1].reshape(-1)
        numeric = central_diff_at(lambda: float(dm_batch_loss_t(z, targets, 4, w)[0]),
                                  [z], [(0, i) for i in range(z.size)])
        assert rel_err(analytic, numeric).max() < 1e-6

    def test_deep_chain_does_not_recurse(self):
        """A 3000-layer network backpropagates without hitting recursion limits.

        With identity weights, zero biases and a positive input, every layer
        passes its input through, so every layer's gradient is known exactly.
        """
        depth = 3000
        m = ModelParams(widths=(2,) * (depth + 1),
                        weights=[np.eye(2)] * depth, biases=[np.zeros(2)] * depth)
        arrays = param_tensors(m)
        x = np.array([[1.0, 2.0]])
        g = np.array([[0.5, -1.0]])
        acts = forward_logits_t(arrays, x)
        np.testing.assert_array_equal(acts[-1], x)
        blocks = _split(backward(arrays, acts, g), arrays)
        for d_w, d_b in zip(blocks[0::2], blocks[1::2]):
            np.testing.assert_array_equal(d_w, x.T @ g)
            np.testing.assert_array_equal(d_b, g[0])
