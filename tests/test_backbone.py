"""Tests for the classifier backbone: init, forward paths, backward, SGD."""

import numpy as np
import pytest
from conftest import (
    central_diff_at,
    flat_gradient,
    float64_model,
    make_model,
    rel_err,
)

from edmlab.backbone import (
    JITTER_SIGMA,
    MOMENTUM,
    PARAM_DTYPE,
    WEIGHT_DECAY,
    ModelParams,
    augment,
    forward_logits,
    forward_logits_t,
    hidden_features,
    init_model,
    init_optim,
    param_tensors,
    sgd_step,
    softmax_probs,
)
from edmlab.errors import NumericsError
from edmlab.losses import ce_batch_loss_t, sl_batch_loss_t, softmax_t


class TestInit:
    def test_same_seed_identical(self):
        a = init_model((8, 64, 64, 4), seed=5)
        b = init_model((8, 64, 64, 4), seed=5)
        for wa, wb in zip(a.flat(), b.flat()):
            np.testing.assert_array_equal(wa, wb)

    def test_builds_float32(self):
        """Training runs in PARAM_DTYPE, the dtype checkpoints store."""
        assert PARAM_DTYPE == np.float32
        assert init_model((8, 64, 4), seed=1).buffer.dtype == np.float32

    def test_biases_exactly_zero(self):
        m = init_model((8, 64, 4), seed=1)
        for b in m.biases:
            assert np.all(b == 0.0)

    def test_weight_variance_tracks_fan_in(self):
        """Empirical weight variance within 20% of 1/fan_in on >= 10^4 entries."""
        m = init_model((128, 256, 10), seed=7)
        w = m.weights[0]  # 128*256 = 32768 entries
        assert w.size >= 10_000
        assert abs(w.var() - 1.0 / 128) <= 0.2 / 128

    def test_zero_width_layer_rejected(self):
        with pytest.raises(ValueError):
            init_model((8, 0, 4), seed=0)

    def test_role_tag_validated(self):
        with pytest.raises(ValueError):
            make_model([np.zeros((2, 2))], [np.zeros(2)], role="NetX")


class TestModelParams:
    """The model owns one buffer and the views laid over it."""

    def test_wrong_buffer_length_rejected(self):
        with pytest.raises(ValueError, match="does not hold the 6 parameters"):
            ModelParams((2, 2), np.zeros(5))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, value):
        buffer = np.zeros(6)
        buffer[3] = value
        with pytest.raises(ValueError, match="non-finite"):
            ModelParams((2, 2), buffer)

    @pytest.mark.parametrize("widths", [(4,), (4, 0, 2)])
    def test_invalid_architecture_rejected(self, widths):
        with pytest.raises(ValueError, match="invalid architecture"):
            ModelParams(widths, np.zeros(2))

    def test_keeps_its_own_copy(self):
        given = np.arange(6.0)
        m = ModelParams((2, 2), given)
        given[:] = -1.0
        assert m.buffer.dtype == np.float64
        np.testing.assert_array_equal(m.buffer, np.arange(6.0))

    @pytest.mark.parametrize("given, kept", [
        (np.zeros(6, np.float32), np.float32),
        (np.zeros(6, np.float16), np.float64),
        (np.zeros(6, np.int64), np.float64),
        ([0.0] * 6, np.float64),
    ], ids=["float32", "float16", "int64", "list"])
    def test_keeps_float32_and_widens_the_rest(self, given, kept):
        """float64 is kept too (test_keeps_its_own_copy)."""
        assert ModelParams((2, 2), given).buffer.dtype == kept

    def test_layout_rejects_a_flat_array_of_another_size(self):
        m = ModelParams((2, 2), np.zeros(6))
        with pytest.raises(ValueError, match="does not hold"):
            m.layout(np.zeros(7))

    def test_views_write_through_to_buffer(self):
        m = ModelParams((2, 2), np.zeros(6))
        m.weights[0][1, 0] = 5.0
        np.testing.assert_array_equal(m.buffer, [0.0, 0.0, 5.0, 0.0, 0.0, 0.0])

    def test_flat_returns_the_same_views(self):
        m = init_model((3, 4, 2), seed=0)
        first, second = m.flat(), m.flat()
        assert len(first) == 4
        assert all(a is b for a, b in zip(first, second))
        assert all(np.shares_memory(a, m.buffer) for a in first)

    def test_copy_shares_no_memory(self):
        m = init_model((3, 4, 2), seed=0)
        c = m.copy()
        np.testing.assert_array_equal(c.buffer, m.buffer)
        assert not np.shares_memory(c.buffer, m.buffer)
        assert not any(np.shares_memory(a, m.buffer) for a in c.flat())

    def test_equality_is_identity(self):
        """Comparing models never compares their buffers elementwise."""
        m = init_model((3, 4, 2), seed=0)
        assert (m == m) is True
        assert (m == m.copy()) is False


class TestForward:
    def test_zero_params_give_zero_logits(self):
        m = init_model((5, 8, 3), seed=0)
        for arr in m.flat():
            arr[...] = 0.0
        out = forward_logits(m, np.ones((4, 5)))
        np.testing.assert_array_equal(out, np.zeros((4, 3)))

    def test_single_linear_layer_selects_weight_row(self):
        """On a basis vector, a linear layer returns that weight row."""
        m = init_model((3, 2), seed=1)
        x = np.zeros((1, 3))
        x[0, 1] = 1.0
        np.testing.assert_allclose(forward_logits(m, x)[0], m.weights[0][1])

    def test_batch_rows_preserved(self):
        m = init_model((5, 8, 3), seed=2)
        assert forward_logits(m, np.zeros((3, 5))).shape == (3, 3)

    def test_shape_mismatch_rejected(self):
        m = init_model((5, 8, 3), seed=2)
        with pytest.raises(ValueError):
            forward_logits(m, np.zeros((3, 4)))

    def test_tensor_path_matches_numpy_path(self):
        m = init_model((6, 16, 16, 4), seed=9)
        x = np.random.default_rng(0).normal(size=(10, 6))
        logits_t = forward_logits_t(param_tensors(m), x)[-1]
        np.testing.assert_allclose(logits_t, forward_logits(m, x), rtol=1e-12)

    def test_hidden_features_feed_final_layer(self):
        m = init_model((6, 16, 4), seed=9)
        x = np.random.default_rng(1).normal(size=(5, 6))
        h = hidden_features(m, x)
        assert h.shape == (5, 16)
        np.testing.assert_allclose(h @ m.weights[-1] + m.biases[-1],
                                   forward_logits(m, x), rtol=1e-12)


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax_probs(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_closed_form(self):
        np.testing.assert_allclose(softmax_probs(np.array([np.log(3.0), 0.0])),
                                   [0.75, 0.25], atol=1e-12)

    def test_large_logits_do_not_overflow(self):
        with np.errstate(over="raise"):
            p = softmax_probs(np.array([1000.0, 0.0]))
        np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-300)

    def test_rows_sum_to_one(self):
        z = np.random.default_rng(3).normal(size=(50, 7)) * 10
        p = softmax_probs(z)
        assert np.all(p >= 0)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)


class TestBackward:
    def test_constant_function_of_params_has_zero_grads(self):
        """All logits below zero: no evidence, so the evidence loss is flat."""
        m = init_model((3, 4, 2), seed=0, role="NetS")
        m.biases[-1][:] = -1e3
        x = np.random.default_rng(0).normal(size=(5, 3))
        arrays = param_tensors(m)
        acts = forward_logits_t(arrays, x)
        _, d_logits = sl_batch_loss_t(acts[-1], np.eye(2)[[0, 1, 0, 1, 0]])
        grad = flat_gradient(m, acts, d_logits)
        assert grad.shape == m.buffer.shape
        assert np.all(grad == 0.0)

    @pytest.mark.parametrize("build, dtype", [(init_model, np.float32),
                                              (float64_model, np.float64)],
                             ids=["float32", "float64"])
    def test_pass_runs_in_the_parameters_dtype(self, build, dtype):
        """Activations and the gradient take the parameters' dtype, whatever
        the batch's and the head's dtypes."""
        m = build((3, 4, 2), seed=2)
        acts = forward_logits_t(param_tensors(m), np.ones((5, 3), np.float16))
        assert all(a.dtype == dtype for a in acts)
        assert flat_gradient(m, acts, np.ones((5, 2))).dtype == dtype

    def test_disconnected_loss_rejected(self):
        """A gradient at logits of another batch is not this pass's."""
        m = init_model((3, 4, 2), seed=1)
        arrays = param_tensors(m)
        acts = forward_logits_t(arrays, np.ones((5, 3)))
        _, stray = sl_batch_loss_t(np.ones((2, 2)), np.eye(2))
        with pytest.raises(ValueError):
            flat_gradient(m, acts, stray)

    def test_network_gradcheck_against_finite_differences(self):
        """Backprop through the full network matches central differences."""
        rng = np.random.default_rng(11)
        m = float64_model((4, 8, 3), seed=11)
        x = rng.normal(size=(6, 4))
        labels = np.eye(3)[rng.integers(0, 3, size=6)]

        def loss_value():
            logits = forward_logits(m, x)
            p = softmax_probs(logits)
            return float(-(labels * np.log(np.maximum(p, 1e-12))).sum(axis=1).mean())

        arrays = param_tensors(m)
        acts = forward_logits_t(arrays, x)
        _, d_logits = ce_batch_loss_t(softmax_t(acts[-1]), labels)
        grad = flat_gradient(m, acts, d_logits)

        flat_params = m.flat()
        offsets = np.cumsum([0] + [a.size for a in flat_params])
        coords = []
        for ai, arr in enumerate(flat_params):
            picks = rng.choice(arr.size, size=min(12, arr.size), replace=False)
            coords.extend((ai, int(i)) for i in picks)
        numeric = central_diff_at(loss_value, flat_params, coords)
        analytic = np.array([grad[offsets[ai] + fi] for ai, fi in coords])
        assert rel_err(analytic, numeric).max() <= 1e-3


def _flat(*arrays):
    """Per-array gradients laid end to end, as ``sgd_step`` takes them."""
    return np.concatenate([np.ravel(a) for a in arrays])


class TestSgdStep:
    def test_hand_iteration(self):
        """v <- m*v + g + wd*t, t <- t - 0.1v reproduces the worked example."""
        m = make_model([np.array([[1.0]])], [np.array([0.0])])
        opt = init_optim(m, learning_rate=0.1)
        g = _flat([[1.0]], [0.0])
        assert sgd_step(m, g, opt) is None  # updates in place
        v1 = 1.0 + WEIGHT_DECAY * 1.0  # 1.0005
        t1 = 1.0 - 0.1 * v1  # 0.89995
        np.testing.assert_allclose(opt.velocity, [v1, 0.0])
        np.testing.assert_allclose(m.weights[0], [[t1]])
        sgd_step(m, g, opt)
        v2 = MOMENTUM * v1 + 1.0 + WEIGHT_DECAY * t1  # 1.800849975
        np.testing.assert_allclose(opt.velocity, [v2, 0.0])
        np.testing.assert_allclose(m.weights[0], [[t1 - 0.1 * v2]])  # 0.7198650025

    def test_zero_learning_rate_is_identity(self):
        m = init_model((3, 4, 2), seed=0)
        before = [a.copy() for a in m.flat()]
        opt = init_optim(m, 0.0)
        sgd_step(m, np.ones_like(m.buffer), opt)
        for a, b in zip(m.flat(), before):
            np.testing.assert_array_equal(a, b)

    def test_nonfinite_gradient_aborts_before_update(self):
        m = init_model((3, 4, 2), seed=0)
        before = [a.copy() for a in m.flat()]
        opt = init_optim(m, 0.1)
        grads = [np.ones_like(a) for a in m.flat()]
        grads[2][0, 0] = np.nan
        with pytest.raises(NumericsError):
            sgd_step(m, _flat(*grads), opt)
        for a, b in zip(m.flat(), before):
            np.testing.assert_array_equal(a, b)

    def test_step_decreases_convex_loss(self):
        """One small-lr step strictly decreases a quadratic."""
        m = init_model((4, 4), seed=3)
        opt = init_optim(m, 1e-3)

        def quad():
            return 0.5 * sum(float((a * a).sum()) for a in m.flat())

        before = quad()
        sgd_step(m, m.buffer.copy(), opt)
        assert quad() < before

    def test_weight_decay_shrinks_parameters(self):
        m = make_model([np.array([[2.0]])], [np.array([0.0])])
        opt = init_optim(m, 0.1)
        sgd_step(m, _flat([[0.0]], [0.0]), opt)
        # 2 - 0.1*(5e-4*2) = 1.9999
        np.testing.assert_allclose(m.weights[0], [[2.0 - 0.1 * WEIGHT_DECAY * 2.0]])
        assert m.weights[0][0, 0] < 2.0

    def test_negative_learning_rate_rejected(self):
        with pytest.raises(ValueError, match="learning rate"):
            init_optim(init_model((3, 4, 2), seed=0), -0.1)


class TestAugment:
    def test_two_views_differ(self):
        x = np.zeros((4, 3))
        rng = np.random.default_rng(2)
        a = augment(x, rng)
        b = augment(x, rng)
        assert np.any(a != b)
        assert np.any(a != x)

    def test_jitter_statistics(self):
        x = np.zeros((200, 50))
        noise = augment(x, np.random.default_rng(3))
        assert abs(noise.std() - JITTER_SIGMA) < 0.1 * JITTER_SIGMA
        assert abs(noise.mean()) < 0.01

