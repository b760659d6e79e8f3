"""Tests for loss normalization, EM fitting, band posteriors, and partition."""

import numpy as np
import pytest

from edmlab.gmm import (
    GmmConfig,
    GmmModel,
    PosteriorSplit,
    fit_em,
    group_posteriors,
    normalize_losses,
    partition,
    responsibilities,
)


class TestNormalizeLosses:
    def test_endpoints(self):
        np.testing.assert_allclose(normalize_losses([0.2, 1.2]), [0.0, 1.0])

    def test_constant_vector_maps_to_zero(self):
        np.testing.assert_allclose(normalize_losses([0.5, 0.5]), [0.0, 0.0])

    def test_affine_rescale(self):
        np.testing.assert_allclose(normalize_losses([0.2, 0.7, 1.2]),
                                   [0.0, 0.5, 1.0])

    def test_output_range(self):
        rng = np.random.default_rng(0)
        out = normalize_losses(rng.normal(size=500) * 7 + 3)
        assert out.min() == 0.0 and out.max() == 1.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            normalize_losses(np.array([]))
        with pytest.raises(ValueError):
            normalize_losses(np.array([0.1, np.nan]))


class TestGmmConfig:
    def test_defaults_are_valid(self):
        GmmConfig().validate_for_training()

    def test_band_ordering_enforced(self):
        with pytest.raises(ValueError):
            GmmConfig(mu_min=0.7, mu_max=0.3).validate()
        with pytest.raises(ValueError):
            GmmConfig(mu_min=0.0, mu_max=0.7).validate()

    def test_training_needs_three_components(self):
        GmmConfig(num_components=1).validate()  # fine for bare fitting
        with pytest.raises(ValueError):
            GmmConfig(num_components=2).validate_for_training()


class TestFitEm:
    def test_single_component_closed_form(self):
        """psi=1 reduces to the sample mean and floored sample variance."""
        rng = np.random.default_rng(1)
        x = rng.normal(0.4, 0.2, size=300)
        model = fit_em(x, GmmConfig(num_components=1))
        np.testing.assert_allclose(model.means[0], x.mean(), atol=1e-12)
        np.testing.assert_allclose(model.variances[0], x.var(), atol=1e-12)
        np.testing.assert_allclose(model.weights[0], 1.0)

    def test_single_component_variance_floor(self):
        x = np.full(50, 0.3)
        model = fit_em(x, GmmConfig(num_components=1))
        np.testing.assert_allclose(model.variances[0], 1e-6)

    def test_two_mode_recovery(self):
        """A crisp two-mode mixture is recovered to tight tolerances."""
        rng = np.random.default_rng(2)
        x = np.concatenate([rng.normal(0.1, 0.01, 500),
                            rng.normal(0.9, 0.01, 500)])
        model = fit_em(x, GmmConfig(num_components=2))
        order = np.argsort(model.means)
        np.testing.assert_allclose(model.means[order], [0.1, 0.9], atol=0.02)
        np.testing.assert_allclose(model.weights[order], [0.5, 0.5], atol=0.05)

    def test_trace_non_decreasing_on_random_data(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            x = rng.uniform(0, 1, size=int(rng.integers(50, 400)))
            model = fit_em(x, GmmConfig(num_components=5, max_iters=60))
            diffs = np.diff(model.log_likelihood_trace)
            assert np.all(diffs >= -1e-8), f"trial {trial}: {diffs.min()}"

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, size=300)
        a = fit_em(x, GmmConfig(num_components=7))
        b = fit_em(x, GmmConfig(num_components=7))
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.variances, b.variances)
        np.testing.assert_array_equal(a.log_likelihood_trace, b.log_likelihood_trace)

    def test_weights_form_distribution(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 1, size=500)
        model = fit_em(x, GmmConfig(num_components=20))
        assert abs(model.weights.sum() - 1.0) <= 1e-9
        assert np.all(model.weights >= 0)
        assert np.all(model.variances >= 1e-6)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            fit_em(np.array([0.1, 0.2]), GmmConfig(num_components=5))


def _three_band_model(sigma=0.05):
    var = sigma * sigma
    return GmmModel(
        weights=np.full(3, 1 / 3),
        means=np.array([0.1, 0.5, 0.9]),
        variances=np.full(3, var),
        log_likelihood_trace=np.array([0.0]),
    )


class TestGroupPosteriors:
    def test_low_loss_is_confidently_clean(self):
        model = _three_band_model()
        split = group_posteriors(model, np.array([0.10]), GmmConfig())
        assert split.w[0] > 0.99

    def test_mid_loss_is_confidently_open(self):
        model = _three_band_model()
        split = group_posteriors(model, np.array([0.50]), GmmConfig())
        assert split.w_op[0] > 0.99

    def test_high_loss_is_confidently_closed(self):
        model = _three_band_model()
        split = group_posteriors(model, np.array([0.90]), GmmConfig())
        assert split.w_cl[0] > 0.99

    def test_boundary_mean_counts_as_clean(self):
        """A component mean exactly at mu_min belongs to the clean band."""
        model = GmmModel(
            weights=np.array([0.5, 0.5]),
            means=np.array([0.3, 0.9]),
            variances=np.array([0.0025, 0.0025]),
            log_likelihood_trace=np.array([0.0]),
        )
        split = group_posteriors(model, np.array([0.3]),
                                 GmmConfig(mu_min=0.3, mu_max=0.7))
        assert split.w[0] > 0.99
        assert split.w_op[0] == 0.0  # no component in the open band at all

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, 400)
        cfg = GmmConfig(num_components=8)
        model = fit_em(x, cfg)
        split = group_posteriors(model, x, cfg)
        np.testing.assert_allclose(split.w + split.w_op + split.w_cl, 1.0,
                                   atol=1e-6)

    def test_responsibilities_partition_unity(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 1, 200)
        model = fit_em(x, GmmConfig(num_components=5))
        resp = responsibilities(model, x)
        assert resp.shape == (200, 5)
        np.testing.assert_allclose(resp.sum(axis=1), 1.0, atol=1e-9)

    def test_three_mode_split_oracle(self):
        """Max-posterior assignment recovers the generating mode >= 99%."""
        rng = np.random.default_rng(9)
        modes = np.array([0.1, 0.5, 0.9])
        data = np.clip(np.repeat(modes, 1000)
                       + rng.normal(0, 0.02, 3000), 0, 1)
        cfg = GmmConfig(num_components=20)
        model = fit_em(data, cfg)
        split = group_posteriors(model, data, cfg)
        pred = np.argmax(split.triples(), axis=1)
        true = np.repeat([0, 1, 2], 1000)
        recalls = [np.mean(pred[true == g] == g) for g in range(3)]
        assert np.mean(recalls) >= 0.99


class TestPosteriorSplitType:
    def test_rejects_unnormalized_triples(self):
        with pytest.raises(ValueError):
            PosteriorSplit(w=np.array([0.5]), w_op=np.array([0.1]),
                           w_cl=np.array([0.1]))

    def test_triples_layout(self):
        s = PosteriorSplit(w=np.array([0.7]), w_op=np.array([0.2]),
                           w_cl=np.array([0.1]))
        np.testing.assert_allclose(s.triples(), [[0.7, 0.2, 0.1]])


class TestPartition:
    @staticmethod
    def _split(rows):
        rows = np.asarray(rows, dtype=np.float64)
        return PosteriorSplit(w=rows[:, 0], w_op=rows[:, 1], w_cl=rows[:, 2])

    def test_strict_max_assignments(self):
        part = partition(self._split([
            [0.8, 0.1, 0.1],   # clean wins
            [0.1, 0.2, 0.7],   # closed wins
            [0.1, 0.8, 0.1],   # open wins -> excluded set
        ]))
        np.testing.assert_array_equal(part.x_idx, [0])
        np.testing.assert_array_equal(part.u_idx, [1])
        np.testing.assert_array_equal(part.o_idx, [2])

    def test_tie_never_enters_labeled_or_unlabeled(self):
        part = partition(self._split([
            [0.4, 0.4, 0.2],           # clean/open tie
            [0.2, 0.3, 0.5 - 1e-12],   # nearly tied, closed still strict max
            [1 / 3, 1 / 3, 1 / 3],     # full tie
        ]))
        assert 0 in part.o_idx and 2 in part.o_idx
        assert 1 in part.u_idx

    def test_sets_partition_everything(self):
        rng = np.random.default_rng(10)
        rows = rng.dirichlet(np.ones(3), size=500)
        part = partition(self._split(rows))
        sizes = part.sizes()
        assert sum(sizes) == 500
        all_idx = np.concatenate([part.x_idx, part.u_idx, part.o_idx])
        assert len(np.unique(all_idx)) == 500

    def test_length_check(self):
        with pytest.raises(ValueError):
            partition(self._split([[1.0, 0.0, 0.0]]), n=5)
