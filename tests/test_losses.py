"""Tests for the training objectives: loss heads, per-sample scan, gradients."""

import numpy as np
import pytest
from conftest import central_diff_at, rel_err

from edmlab.backbone import (
    backward,
    forward_logits,
    forward_logits_t,
    init_model,
    param_tensors,
    softmax_probs,
)
from edmlab.benchgen import DatasetManifest, NoiseSpec
from edmlab.losses import (
    EPS,
    LossWeights,
    _mse,
    _reg,
    ce_batch_loss_t,
    dm_batch_loss_t,
    sl_batch_loss_t,
    sl_dataset_loss,
    sl_losses_from_logits,
    softmax_t,
    temp_sharpen,
)


def _one_row(head, probs, target):
    """A batch head's value on a one-row batch of probabilities, as a float.

    ``head`` is the cross-entropy head or the squared-error helper ``_mse``.
    """
    return float(head(np.array([probs], dtype=np.float64), [target])[0])


def _reg_value(mean_probs):
    return float(_reg(np.asarray(mean_probs, dtype=np.float64))[0])


# Reference formulas, written out in plain numpy from each loss's definition.

def _sl_row(logits, y):
    alpha = np.maximum(logits, 0.0) + 1.0
    strength = alpha.sum()
    p = alpha / strength
    return ((y - p) ** 2).sum() + (p * (1.0 - p)).sum() / (strength + 1.0)


def _ce_mean(probs, labels):
    return -(labels * np.log(probs)).sum(axis=1).mean()


def _mse_mean(probs, targets):
    return ((probs - targets) ** 2).sum(axis=1).mean()


def _reg_ref(mean_probs):
    k = mean_probs.shape[-1]
    return (np.log(1 / k) - np.log(mean_probs)).sum() / k


class TestEvidence:
    """alpha = max(logit, 0) + 1 inside the per-row loss the scan runs."""

    def test_zero_logits(self):
        """alpha = (1, 1), strength 2: p = (0.5, 0.5) for either label."""
        out = sl_losses_from_logits(np.zeros((2, 2)), np.eye(2))
        np.testing.assert_allclose(out, [0.5 + 0.5 / 3, 0.5 + 0.5 / 3], atol=1e-12)

    def test_mixed_logits(self):
        """alpha = (3, 1), strength 4: p = (0.75, 0.25), variance term 0.075."""
        out = sl_losses_from_logits(np.array([[2.0, -1.0], [2.0, -1.0]]), np.eye(2))
        np.testing.assert_allclose(out, [0.125 + 0.075, 1.125 + 0.075], atol=1e-12)

    def test_rectifier_floor(self):
        """Negative logits carry no evidence: they score like zero logits."""
        labels = np.eye(3)
        np.testing.assert_array_equal(
            sl_losses_from_logits(np.full((3, 3), -5.0), labels),
            sl_losses_from_logits(np.zeros((3, 3)), labels))

    def test_alpha_never_below_one(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(scale=5, size=(50, 6))
        labels = np.eye(6)[rng.integers(0, 6, size=50)]
        np.testing.assert_array_equal(
            sl_losses_from_logits(logits, labels),
            sl_losses_from_logits(np.maximum(logits, 0.0), labels))


class TestSlLoss:
    """Evidence-loss rows of the per-sample scan."""

    _LOGITS = [[0.0, 0.0], [2.0, -1.0], [2.0, -1.0]]
    _LABELS = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]

    def test_hand_values(self):
        np.testing.assert_allclose(
            sl_losses_from_logits(self._LOGITS, self._LABELS), [2 / 3, 0.2, 1.2],
            rtol=0, atol=1e-9)

    def test_confidence_ordering(self):
        """Confident-right < zero-evidence < confident-wrong."""
        blank, right, wrong = sl_losses_from_logits(self._LOGITS, self._LABELS)
        assert right < blank < wrong

    def test_positive_and_finite(self):
        rng = np.random.default_rng(1)
        for k in range(2, 8):
            logits = rng.normal(scale=4, size=(100, k))
            labels = np.eye(k)[rng.integers(0, k, size=100)]
            vals = sl_losses_from_logits(logits, labels)
            assert np.all(np.isfinite(vals)) and np.all(vals > 0)

    def test_vectorized_matches_scalar(self):
        """Each batched row equals the one-sample formula."""
        rng = np.random.default_rng(2)
        logits = rng.normal(scale=3, size=(40, 5))
        labels = np.eye(5)[rng.integers(0, 5, size=40)]
        vec = sl_losses_from_logits(logits, labels)
        ref = [_sl_row(l, y) for l, y in zip(logits, labels)]
        np.testing.assert_allclose(vec, ref, rtol=1e-12)


class TestSlDatasetLoss:
    @staticmethod
    def _manifest(features, observed, k):
        n = len(observed)
        return DatasetManifest(
            features=np.asarray(features, np.float32),
            observed=np.asarray(observed, np.int32),
            true_class=np.asarray(observed, np.int32),
            provenance=np.zeros(n, np.uint8),
            num_classes=k,
            noise_spec=NoiseSpec(rho=0.0, omega=0.0, seed=0),
        )

    @staticmethod
    def _fixed_logit_model():
        """A linear map sending x=[1,0] to logits [2,-1]."""
        from edmlab.backbone import ModelParams
        return ModelParams(
            widths=(2, 2),
            weights=[np.array([[2.0, -1.0], [0.0, 0.0]])],
            biases=[np.zeros(2)],
            role="NetS",
        )

    def test_two_sample_mean(self):
        """Confident-right and confident-wrong samples average to 0.7."""
        m = self._fixed_logit_model()
        ds = self._manifest([[1, 0], [1, 0]], [0, 1], k=2)
        mean, per = sl_dataset_loss(m, ds)
        np.testing.assert_allclose(per, [0.2, 1.2], atol=1e-9)
        assert abs(mean - 0.7) <= 1e-9

    def test_single_sample(self):
        m = self._fixed_logit_model()
        ds = self._manifest([[1, 0]], [0], k=2)
        mean, per = sl_dataset_loss(m, ds)
        assert abs(mean - per[0]) <= 1e-12
        assert abs(mean - 0.2) <= 1e-9

    def test_duplication_keeps_mean(self):
        m = init_model((4, 8, 3), seed=0, role="NetS")
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(20, 4))
        obs = rng.integers(0, 3, size=20)
        ds = self._manifest(feats, obs, k=3)
        ds2 = self._manifest(np.tile(feats, (2, 1)), np.tile(obs, 2), k=3)
        mean1, _ = sl_dataset_loss(m, ds)
        mean2, _ = sl_dataset_loss(m, ds2)
        assert abs(mean1 - mean2) <= 1e-9

    def test_empty_dataset_rejected(self):
        m = init_model((4, 8, 3), seed=0)
        ds = self._manifest(np.zeros((0, 4)), np.zeros(0, int), k=3)
        with pytest.raises(ValueError):
            sl_dataset_loss(m, ds)


class TestCeLoss:
    def test_hand_values(self):
        assert abs(_one_row(ce_batch_loss_t, [0.5, 0.5], [1.0, 0.0])
                   - np.log(2)) <= 1e-9
        uniform10 = np.full(10, 0.1)
        onehot = np.eye(10)[3]
        assert abs(_one_row(ce_batch_loss_t, uniform10, onehot) - np.log(10)) <= 1e-9
        assert abs(_one_row(ce_batch_loss_t, [0.9, 0.1], [1.0, 0.0])
                   + np.log(0.9)) <= 1e-9

    def test_soft_labels_supported(self):
        assert abs(_one_row(ce_batch_loss_t, [0.5, 0.5], [0.25, 0.75])
                   - np.log(2)) <= 1e-9

    def test_floor_prevents_infinity(self):
        val = _one_row(ce_batch_loss_t, [1.0, 0.0], [0.0, 1.0])
        assert np.isfinite(val)
        assert abs(val + np.log(EPS)) <= 1e-6


class TestUnlabeledMse:
    def test_hand_values(self):
        p = [0.3, 0.7]
        assert _one_row(_mse, p, p) == 0.0
        assert abs(_one_row(_mse, [0.0, 1.0], [1.0, 0.0]) - 2.0) <= 1e-9
        assert abs(_one_row(_mse, [0.5, 0.5], [0.75, 0.25])
                   - 0.125) <= 1e-9


class TestRegLoss:
    def test_uniform_is_zero(self):
        assert abs(_reg_value(np.full(4, 0.25))) <= 1e-12

    def test_hand_value(self):
        expected = 0.5 * np.log(0.5 / 0.75) + 0.5 * np.log(0.5 / 0.25)
        assert abs(_reg_value([0.75, 0.25]) - expected) <= 1e-9
        assert abs(expected - 0.5 * np.log(4 / 3)) <= 1e-12

    def test_monotone_in_imbalance(self):
        values = [_reg_value([0.5 + t, 0.5 - t])
                  for t in (0.0, 0.2, 0.4, 0.499, 0.5 - EPS)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] > 10.0

    def test_nonnegative_on_random_distributions(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            p = rng.dirichlet(np.ones(6))
            assert _reg_value(p) >= -1e-12


class TestDmLoss:
    """LossWeights.combine: the weighted sum the combined head returns."""

    def test_weighted_sum(self):
        w = LossWeights(lambda_u=25.0, lambda_reg=1.0)
        val = w.combine(1.0, 0.1, _reg_value(np.full(4, 0.25)))
        assert abs(val - 3.5) <= 1e-9

    def test_zero_weights_leave_labeled_term(self):
        w = LossWeights(lambda_u=0.0, lambda_reg=0.0)
        assert abs(w.combine(1.25, 9.9, _reg_value([0.9, 0.1])) - 1.25) <= 1e-12

    def test_reg_contribution_linear(self):
        reg = _reg_value([0.7, 0.3])
        base = LossWeights(lambda_u=0.0, lambda_reg=1.0).combine(0.0, 0.0, reg)
        double = LossWeights(lambda_u=0.0, lambda_reg=2.0).combine(0.0, 0.0, reg)
        assert abs(double - 2 * base) <= 1e-12

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(lambda_u=-1.0, lambda_reg=0.0)


class TestTempSharpen:
    def test_identity_at_unit_temperature(self):
        p = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(temp_sharpen(p, 1.0), p, atol=1e-12)

    def test_hand_value(self):
        out = temp_sharpen(np.array([0.8, 0.2]), 0.5)
        np.testing.assert_allclose(out, [16 / 17, 1 / 17], atol=1e-12)

    def test_uniform_fixed_point(self):
        p = np.full(5, 0.2)
        np.testing.assert_allclose(temp_sharpen(p, 0.25), p, atol=1e-12)

    def test_preserves_argmax_and_concentrates(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = rng.dirichlet(np.ones(6))
            out = temp_sharpen(p, 0.5)
            assert out.argmax() == p.argmax()
            assert out.max() >= p.max() - 1e-12
            assert abs(out.sum() - 1.0) <= 1e-9

    def test_batched_rows(self):
        p = np.array([[0.8, 0.2], [0.5, 0.5]])
        out = temp_sharpen(p, 0.5)
        np.testing.assert_allclose(out[0], [16 / 17, 1 / 17], atol=1e-12)
        np.testing.assert_allclose(out[1], [0.5, 0.5], atol=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            temp_sharpen(np.array([0.5, 0.5]), 0.0)
        with pytest.raises(ValueError):
            temp_sharpen(np.array([0.0, 0.0]), 0.5)


class TestTensorVersionsAgree:
    """The loss heads equal the plain numpy formulas of their definitions."""

    def setup_method(self):
        rng = np.random.default_rng(6)
        self.logits = rng.normal(scale=3, size=(16, 4))
        self.labels = np.eye(4)[rng.integers(0, 4, size=16)]
        self.soft = rng.dirichlet(np.ones(4), size=16)

    def test_softmax_t(self):
        out = softmax_t(self.logits)
        np.testing.assert_allclose(out, softmax_probs(self.logits), rtol=1e-12)

    def test_sl_batch(self):
        got, _ = sl_batch_loss_t(self.logits, self.labels)
        want = np.mean([_sl_row(l, y) for l, y in zip(self.logits, self.labels)])
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_ce_batch(self):
        probs = softmax_probs(self.logits)
        got, _ = ce_batch_loss_t(softmax_t(self.logits), self.soft)
        want = _ce_mean(probs, self.soft)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_mse_batch(self):
        probs = softmax_probs(self.logits)
        got, _ = _mse(softmax_t(self.logits), self.soft)
        want = _mse_mean(probs, self.soft)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_reg_batch(self):
        probs = softmax_probs(self.logits)
        got, _ = _reg(probs.mean(axis=0))
        np.testing.assert_allclose(got, _reg_ref(probs.mean(axis=0)), rtol=1e-12)

    def test_dm_batch_combination(self):
        w = LossWeights(lambda_u=25.0, lambda_reg=1.0)
        targets = np.concatenate([self.labels[:10], self.soft[10:]])
        total, _, comps = dm_batch_loss_t(self.logits, targets, 10, w)
        probs = softmax_probs(self.logits)
        want_x = _ce_mean(probs[:10], self.labels[:10])
        want_u = _mse_mean(probs[10:], self.soft[10:])
        want_reg = _reg_ref(probs.mean(axis=0))
        np.testing.assert_allclose(comps["labeled"], want_x, rtol=1e-12)
        np.testing.assert_allclose(comps["unlabeled"], want_u, rtol=1e-12)
        np.testing.assert_allclose(comps["regularizer"], want_reg, rtol=1e-12)
        np.testing.assert_allclose(total, want_x + 25 * want_u + want_reg,
                                   rtol=1e-12)

    def test_dm_batch_without_unlabeled_part(self):
        """n_x equal to the row count: every row is labeled."""
        w = LossWeights(lambda_u=25.0, lambda_reg=1.0)
        total, _, comps = dm_batch_loss_t(self.logits, self.labels, 16, w)
        assert comps["unlabeled"] == 0.0
        probs = softmax_probs(self.logits)
        want = _ce_mean(probs, self.labels) + _reg_ref(probs.mean(axis=0))
        np.testing.assert_allclose(total, want, rtol=1e-12)

    @pytest.mark.parametrize("n_x", [0, -1, 17])
    def test_dm_batch_rejects_labeled_count_outside_rows(self, n_x):
        w = LossWeights()
        with pytest.raises(ValueError, match="n_x"):
            dm_batch_loss_t(self.logits, self.labels, n_x, w)


class TestLossGradients:
    """Quick finite-difference checks through the backbone for each loss."""

    def _check(self, make_loss, seed):
        """``make_loss(logits)`` returns a head's (value, dL/dlogits)."""
        rng = np.random.default_rng(seed)
        m = init_model((5, 12, 4), seed=seed, role="NetS")
        x = rng.normal(size=(8, 5))

        def value():
            return float(make_loss(forward_logits(m, x))[0])

        arrays = param_tensors(m)
        acts = forward_logits_t(arrays, x)
        grad = backward(arrays, acts, make_loss(acts[-1])[1])

        flat = m.flat()
        offsets = np.cumsum([0] + [a.size for a in flat])
        coords = []
        for ai, arr in enumerate(flat):
            picks = rng.choice(arr.size, size=min(8, arr.size), replace=False)
            coords.extend((ai, int(i)) for i in picks)
        numeric = central_diff_at(value, flat, coords)
        analytic = np.array([grad[offsets[ai] + fi] for ai, fi in coords])
        assert rel_err(analytic, numeric).max() <= 1e-3

    def test_sl_gradcheck(self):
        labels = np.eye(4)[np.random.default_rng(7).integers(0, 4, size=8)]
        self._check(lambda lg: sl_batch_loss_t(lg, labels), seed=7)

    def test_dm_gradcheck(self):
        rng = np.random.default_rng(8)
        labels = np.eye(4)[rng.integers(0, 4, size=5)]
        guesses = rng.dirichlet(np.ones(4), size=3)
        targets = np.concatenate([labels, guesses])
        w = LossWeights(lambda_u=25.0, lambda_reg=1.0)
        self._check(lambda lg: dm_batch_loss_t(lg, targets, 5, w)[:2], seed=8)

    def test_dm_gradient_without_unlabeled_part(self):
        """n_x equal to the one row, logits (ln 3, 0), label (0, 1), by hand.

        p = (3/4, 1/4): cross-entropy gives p - y = (3/4, -3/4); the
        regulariser's mean is p itself, dR/dp = -(1/2)/p = (-2/3, -2), which
        the softmax maps to (1/4, -1/4), doubled by lambda_reg = 2.
        """
        z = np.array([[np.log(3.0), 0.0]])
        w = LossWeights(lambda_u=25.0, lambda_reg=2.0)
        _, grad, comps = dm_batch_loss_t(z, np.array([[0.0, 1.0]]), 1, w)
        assert comps["unlabeled"] == 0.0
        np.testing.assert_allclose(grad, [[1.25, -1.25]], atol=1e-15)
