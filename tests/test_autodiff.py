"""Tests for the reverse-mode gradient engine: fused nodes and ``backward``.

A training step's graph is a handful of :class:`~edmlab.backbone.Tensor`
nodes (the network forward, a softmax, a loss head), each with a
hand-derived backward.  These tests pin node values to plain numpy, the
engine's mechanics (scalar loss, shared leaves, fresh gradients per call,
no recursion), and hand gradients, including the kinks where finite
differences cannot check them.
"""

import numpy as np
import pytest
from conftest import central_diff_at, rel_err

from edmlab.backbone import (
    Tensor,
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
    ce_batch_loss_t,
    dm_batch_loss_t,
    mse_batch_loss_t,
    reg_loss_t,
    sl_batch_loss_t,
    sl_losses_from_logits,
    softmax_t,
)


def _grad(loss_of, *arrays):
    """Gradient of ``loss_of(*leaves)`` with respect to constant leaves."""
    leaves = [Tensor(a) for a in arrays]
    grads = backward(leaves, loss_of(*leaves))
    return grads[0] if len(grads) == 1 else grads


class TestForwardValues:
    def test_arithmetic_matches_numpy(self):
        """Node values are the plain numpy computations, bit for bit."""
        rng = np.random.default_rng(0)
        m = init_model((5, 8, 3), seed=0)
        x = rng.normal(size=(7, 5))
        z = rng.normal(scale=3, size=(7, 3))
        soft = rng.dirichlet(np.ones(3), size=7)
        np.testing.assert_array_equal(
            forward_logits_t(param_tensors(m), x).value, forward_logits(m, x))
        p = softmax_probs(z)
        np.testing.assert_array_equal(softmax_t(Tensor(z)).value, p)
        np.testing.assert_allclose(
            ce_batch_loss_t(Tensor(p), soft).value,
            -(soft * np.log(p)).sum(axis=1).mean(), rtol=1e-14)
        np.testing.assert_allclose(
            mse_batch_loss_t(Tensor(p), soft).value,
            ((p - soft) ** 2).sum(axis=1).mean(), rtol=1e-14)
        mean = p.mean(axis=0)
        np.testing.assert_allclose(
            reg_loss_t(Tensor(mean)).value,
            (np.log(1 / 3) - np.log(mean)).sum() / 3, rtol=1e-12)

    def test_scalar_and_array_mixing(self):
        """Leaves hold float64 whatever they wrap; labels may be plain lists."""
        assert Tensor([1, 2]).value.dtype == np.float64
        assert Tensor(np.ones(2, dtype=np.float32)).value.dtype == np.float64
        assert Tensor(3.0).value.shape == ()
        z = [[2.0, -1.0], [0.5, 0.5]]
        labels = [[1, 0], [0, 1]]
        np.testing.assert_array_equal(
            sl_batch_loss_t(Tensor(z), labels).value,
            sl_batch_loss_t(Tensor(np.array(z)), np.eye(2)).value)

    def test_reductions(self):
        """Batch heads are the mean of their per-row losses."""
        rng = np.random.default_rng(1)
        z = rng.normal(scale=2, size=(9, 4))
        y = np.eye(4)[rng.integers(0, 4, size=9)]
        np.testing.assert_allclose(sl_batch_loss_t(Tensor(z), y).value,
                                   sl_losses_from_logits(z, y).mean(), rtol=1e-14)
        p = softmax_probs(z)
        ce_rows = -(y * np.log(p)).sum(axis=1)
        np.testing.assert_allclose(ce_batch_loss_t(Tensor(p), y).value,
                                   ce_rows.mean(), rtol=1e-14)


class TestBackwardHandCases:
    def test_product_rule_with_reuse(self):
        """A leaf used twice receives the sum of both uses' gradients."""
        rng = np.random.default_rng(2)
        z = rng.normal(size=(6, 3))
        y = np.eye(3)[rng.integers(0, 3, size=6)]
        t = rng.dirichlet(np.ones(3), size=6)

        def ce_plus_mse(lx, lu):
            """ce(lx) + 25·mse(lu) as one test-local node over two parents."""
            ce = ce_batch_loss_t(softmax_t(lx), y)
            mse = mse_batch_loss_t(softmax_t(lu), t)
            return Tensor(ce.value + 25.0 * mse.value, (ce, mse),
                          lambda g: (g, 25.0 * g))

        both = _grad(lambda lz: ce_plus_mse(lz, lz), z)
        ce = _grad(lambda lz: ce_batch_loss_t(softmax_t(lz), y), z)
        mse = _grad(lambda lz: mse_batch_loss_t(softmax_t(lz), t), z)
        np.testing.assert_allclose(both, ce + 25.0 * mse, rtol=1e-12, atol=1e-15)

        # two forward nodes over one set of parameter leaves, against one
        # forward node used twice and one mixed batch holding both halves
        m = init_model((4, 6, 3), seed=2)
        x = rng.normal(size=(6, 4))
        ts = param_tensors(m)
        shared = backward(ts, ce_plus_mse(forward_logits_t(ts, x),
                                          forward_logits_t(ts, x)))
        ts = param_tensors(m)
        once = forward_logits_t(ts, x)
        single = backward(ts, ce_plus_mse(once, once))
        ts = param_tensors(m)
        w = LossWeights(lambda_u=25.0, lambda_reg=0.0)
        mixed = backward(ts, dm_batch_loss_t(
            forward_logits_t(ts, np.concatenate([x, x])),
            np.concatenate([y, t]), 6, w)[0])
        for a, b, c in zip(shared, single, mixed):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(c, b, rtol=1e-12, atol=1e-15)

    def test_division_gradients(self):
        """Evidence loss at logits (1, 1), label (1, 0), by hand.

        alpha = (2, 2), S = 4, p = (1/2, 1/2), var = 1/10; dL/dp = (-1, 1),
        so dL/dalpha = (dL/dp - <dL/dp, p>) / S - var / (S + 1).
        """
        z = np.array([[1.0, 1.0]])
        y = np.array([[1.0, 0.0]])
        assert sl_batch_loss_t(Tensor(z), y).value == pytest.approx(0.6, abs=1e-15)
        np.testing.assert_allclose(_grad(lambda lz: sl_batch_loss_t(lz, y), z),
                                   [[-0.27, 0.23]], atol=1e-15)

    def test_matmul_gradients(self):
        """Forward-node backward: dW = input^T G, through W^T and the gate."""
        rng = np.random.default_rng(3)
        m = init_model((3, 5, 2), seed=3)
        x = rng.normal(size=(4, 3))
        node = forward_logits_t(param_tensors(m), x)
        g = rng.normal(size=(4, 2))
        d_w0, _, d_w1, _ = node.backprop(g)
        h = np.maximum(x @ m.weights[0] + m.biases[0], 0.0)
        np.testing.assert_allclose(d_w1, h.T @ g, rtol=1e-12)
        np.testing.assert_allclose(d_w0, x.T @ ((g @ m.weights[1].T) * (h > 0)),
                                   rtol=1e-12)

    def test_broadcast_bias_gradient_sums_rows(self):
        m = init_model((3, 5, 2), seed=4)
        x = np.random.default_rng(4).normal(size=(4, 3))
        g = np.ones((4, 2))
        _, d_b0, _, d_b1 = forward_logits_t(param_tensors(m), x).backprop(g)
        np.testing.assert_array_equal(d_b1, [4.0, 4.0])
        h = np.maximum(x @ m.weights[0] + m.biases[0], 0.0)
        np.testing.assert_allclose(d_b0, ((g @ m.weights[1].T) * (h > 0)).sum(axis=0),
                                   rtol=1e-12)

    def test_relu_gate(self):
        """A pre-activation or logit exactly at 0 passes no gradient."""
        ts = [Tensor([[1.0, 2.0]]), Tensor([-1.0, 0.0]),
              Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([0.0, 0.0])]
        # hidden pre-activations (0, 2): the first unit sits on the kink
        d_w0, d_b0, d_w1, d_b1 = forward_logits_t(ts, [[1.0]]).backprop(np.ones((1, 2)))
        np.testing.assert_array_equal(d_w0, [[0.0, 7.0]])
        np.testing.assert_array_equal(d_b0, [0.0, 7.0])
        np.testing.assert_array_equal(d_w1, [[0.0, 0.0], [2.0, 2.0]])
        np.testing.assert_array_equal(d_b1, [1.0, 1.0])

        # evidence relu: logit 0 gets nothing (the right-hand slope is -7/12);
        # alpha = (1, 2), S = 3, p = (1/3, 2/3), var = 1/9
        y = np.array([[1.0, 0.0]])
        got = _grad(lambda lz: sl_batch_loss_t(lz, y), np.array([[0.0, 1.0]]))
        assert got[0, 0] == 0.0
        assert got[0, 1] == pytest.approx(0.25, abs=1e-15)

    def test_clip_min_gate(self):
        """A probability at or below EPS passes no gradient through the log."""
        p = np.array([[1.0, 0.0], [1.0 - EPS, EPS]])
        y = np.array([[0.5, 0.5], [0.0, 1.0]])
        np.testing.assert_array_equal(
            _grad(lambda lp: ce_batch_loss_t(lp, y), p), [[-0.25, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(
            _grad(reg_loss_t, np.array([1.0, 0.0])), [-0.5, 0.0])
        np.testing.assert_allclose(
            _grad(reg_loss_t, np.array([1.0 - EPS, EPS])), [-0.5 / (1.0 - EPS), 0.0],
            rtol=1e-15)

    def test_exp_log_chain(self):
        """Cross-entropy through softmax: dL/dz = (p - y) / n."""
        rng = np.random.default_rng(5)
        z = rng.normal(size=(5, 4))
        y = rng.dirichlet(np.ones(4), size=5)
        got = _grad(lambda lz: ce_batch_loss_t(softmax_t(lz), y), z)
        np.testing.assert_allclose(got, (softmax_probs(z) - y) / 5, atol=1e-15)

    def test_mean_axis_gradient(self):
        """The batch mean scales each row's gradient by 1/n."""
        p = np.array([[0.5, 0.5], [1.0, 0.0]])
        t = np.array([[1.0, 0.0], [1.0, 0.0]])
        np.testing.assert_array_equal(
            _grad(lambda lp: mse_batch_loss_t(lp, t), p), [[-0.5, 0.5], [0.0, 0.0]])
        y = np.array([[1.0, 0.0], [1.0, 0.0]])
        np.testing.assert_allclose(
            _grad(lambda lz: sl_batch_loss_t(lz, y), np.ones((2, 2))),
            [[-0.135, 0.115], [-0.135, 0.115]], atol=1e-15)

    def test_backward_requires_scalar(self):
        z = Tensor(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            backward([z], softmax_t(z))

    def test_grad_reset_between_backward_calls(self):
        """Each backward() starts from fresh gradients, no accumulation."""
        m = init_model((3, 4, 2), seed=6)
        x = np.random.default_rng(6).normal(size=(5, 3))
        ts = param_tensors(m)
        loss = ce_batch_loss_t(softmax_t(forward_logits_t(ts, x)), np.eye(2)[[0, 1, 1, 0, 1]])
        first = [g.copy() for g in backward(ts, loss)]
        for a, b in zip(backward(ts, loss), first):
            np.testing.assert_array_equal(a, b)


class TestBackwardFiniteDifference:
    def test_composite_expression_gradcheck(self):
        """The combined objective matches central differences at its logits."""
        rng = np.random.default_rng(3)
        z = np.concatenate([rng.normal(size=(4, 5)), rng.normal(size=(3, 5))])
        targets = np.concatenate([rng.dirichlet(np.ones(5), size=4),
                                  rng.dirichlet(np.ones(5), size=3)])
        w = LossWeights(lambda_u=3.0, lambda_reg=2.0)

        def loss_of(lz):
            return dm_batch_loss_t(lz, targets, 4, w)[0]

        analytic = _grad(loss_of, z).reshape(-1)
        numeric = central_diff_at(lambda: float(loss_of(Tensor(z)).value), [z],
                                  [(0, i) for i in range(z.size)])
        assert rel_err(analytic, numeric).max() < 1e-6

    def test_deep_chain_does_not_recurse(self):
        """A 3000-node chain backpropagates without hitting recursion limits."""
        z = Tensor(np.array([[1.0, -1.0]]))
        y = z
        p = z.value
        for _ in range(3000):
            y = softmax_t(y)
            p = softmax_probs(p)
        loss = mse_batch_loss_t(y, [[1.0, 0.0]])
        np.testing.assert_array_equal(y.value, p)
        (g,) = backward([z], loss)
        assert g.shape == (1, 2) and np.all(np.isfinite(g))
