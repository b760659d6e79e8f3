"""Tests for loss normalization, EM fitting, band posteriors, and partition."""

import numpy as np
import pytest

from edmlab.gmm import (
    GmmConfig,
    GmmModel,
    PosteriorSplit,
    _basis,
    _loglik_resp,
    _m_step,
    fit_em,
    group_posteriors,
    normalize_losses,
    partition,
)
from edmlab import gmm
from edmlab.train import TrainConfig


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
        GmmConfig()
        TrainConfig(gmm=GmmConfig())

    def test_band_ordering_enforced(self):
        with pytest.raises(ValueError):
            GmmConfig(mu_min=0.7, mu_max=0.3)
        with pytest.raises(ValueError):
            GmmConfig(mu_min=0.0, mu_max=0.7)

    def test_training_needs_three_components(self):
        GmmConfig(num_components=1)  # fine for bare fitting
        TrainConfig(gmm=GmmConfig(num_components=3))
        with pytest.raises(ValueError, match="num_components >= 3"):
            TrainConfig(gmm=GmmConfig(num_components=2))


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
            model = fit_em(x, GmmConfig(num_components=5))
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

    def test_single_component_converges(self):
        x = np.random.default_rng(1).normal(0.4, 0.2, size=300)
        model = fit_em(x, GmmConfig(num_components=1))
        assert model.converged
        assert model.iterations == len(model.log_likelihood_trace) - 1 < 100

    def test_iteration_cap_is_reported(self, monkeypatch):
        monkeypatch.setattr(GmmConfig, "max_iters", 1)
        rng = np.random.default_rng(2)
        x = np.concatenate([rng.normal(m, 0.02, 300) for m in (0.1, 0.5, 0.9)])
        model = fit_em(x, GmmConfig(num_components=5))
        assert model.iterations == 1
        assert not model.converged

    def test_stops_on_per_sample_gain(self):
        """Every iteration but the last gains at least tol per sample."""
        rng = np.random.default_rng(3)
        x = np.concatenate([rng.normal(0.2, 0.05, 700),
                            rng.normal(0.7, 0.1, 300)])
        cfg = GmmConfig(num_components=8)
        model = fit_em(x, cfg)
        gains = np.diff(model.log_likelihood_trace) / len(x)
        assert model.converged
        assert np.all(gains[:-1] >= cfg.tol) and gains[-1] < cfg.tol

    def test_hand_built_model_is_not_converged(self):
        assert not _three_band_model([0.5]).converged


_LOG_2PI = np.log(2.0 * np.pi)


def _direct_e_step(x, weights, means, variances):
    """Log-likelihood, responsibilities and shifted log-densities, in the
    textbook form: log w + log N(x; m, v), then a row-wise log-sum-exp."""
    logp = (np.log(weights) - 0.5 * (_LOG_2PI + np.log(variances))
            - (x[:, None] - means) ** 2 / (2.0 * variances))
    shifted = logp - logp.max(axis=1, keepdims=True)
    dens = np.exp(shifted)
    norm = dens.sum(axis=1)
    ll = float((logp.max(axis=1) + np.log(norm)).sum())
    return ll, dens / norm[:, None], shifted


def _direct_m_step(x, resp, means, variances):
    """Two-pass moments: the mean first, then the spread around it."""
    mass = resp.sum(axis=0)
    alive = mass > 1e-12
    safe = np.where(alive, mass, 1.0)
    new_means = (resp * x[:, None]).sum(axis=0) / safe
    spread = (resp * (x[:, None] - new_means) ** 2).sum(axis=0) / safe
    new_vars = np.maximum(spread, 1e-6)
    return (mass / len(x), np.where(alive, new_means, means),
            np.where(alive, new_vars, variances))


def _kernel(x, weights, means, variances):
    """One E-step and one M-step of the fitting kernel, in x's coordinates."""
    basis, centre = _basis(x)
    ll, resp, norm = _loglik_resp(basis, weights, means - centre, variances,
                                  np.empty((len(weights), len(x))))
    new_w, new_m, new_v = _m_step(resp, norm, basis, means - centre, variances)
    return ll, (resp / norm).T, (new_w, new_m + centre, new_v)


class TestQuantileStart:
    def test_sort_quantiles_equal_numpy_bit_for_bit(self):
        """The fit's starting means are ``np.quantile``'s, from one sort, on
        random, tied and constant vectors of every size up to 3,000."""
        rng = np.random.default_rng(0)
        for trial in range(600):
            n = int(rng.integers(1, 3000))
            x = (rng.random(n), rng.integers(0, 5, n) / 4.0,
                 np.full(n, rng.random()))[trial % 3]
            psi = int(rng.integers(1, 40))
            q = (np.arange(psi, dtype=np.float64) + 0.5) / psi
            np.testing.assert_array_equal(gmm._quantiles(x, q).view(np.int64),
                                          np.quantile(x, q).view(np.int64))


class TestEmKernel:
    """The matmul E- and M-step against the direct two-pass formulas."""

    @staticmethod
    def _check(x, weights, means, variances):
        ll, resp, params = _kernel(x, weights, means, variances)
        ref_ll, ref_resp, _ = _direct_e_step(x, weights, means, variances)
        np.testing.assert_allclose(ll, ref_ll, rtol=1e-12)
        # a row sums to 1; a tail entry keeps its log-density's rounding
        np.testing.assert_allclose(resp, ref_resp, rtol=0, atol=1e-12)
        ref_w, ref_m, ref_v = _direct_m_step(x, ref_resp, means, variances)
        np.testing.assert_allclose(params[0], ref_w, rtol=1e-12)
        np.testing.assert_allclose(params[1], ref_m, rtol=1e-12)
        # E[y^2] - m^2 rounds relative to the second moment about the centre
        second = ref_v + (ref_m - _basis(x)[1]) ** 2
        assert np.all(np.abs(params[2] - ref_v) <= 1e-12 * second)
        return params

    def test_matches_direct_formulas(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(0, 1, 2000)
        self._check(x, rng.dirichlet(np.ones(6)), np.sort(rng.uniform(0, 1, 6)),
                    rng.uniform(0.002, 0.05, 6))

    def test_dead_component_keeps_mean_and_variance(self):
        rng = np.random.default_rng(12)
        x = np.concatenate([rng.normal(0.1, 0.02, 400),
                            rng.normal(0.9, 0.02, 400)])
        means = np.array([0.1, 0.5, 0.9])
        variances = np.array([4e-4, 1e-6, 4e-4])
        weights, new_m, new_v = self._check(x, np.full(3, 1 / 3), means, variances)
        assert weights[1] == 0.0
        assert new_m[1] == 0.5 and new_v[1] == 1e-6

    def test_variance_floor(self):
        rng = np.random.default_rng(13)
        x = np.concatenate([np.full(50, 0.25), rng.normal(0.75, 0.05, 200)])
        weights, _, new_v = self._check(
            x, np.array([0.2, 0.8]), np.array([0.25, 0.75]),
            np.array([1e-6, 0.0025]))
        assert new_v[0] == 1e-6
        assert new_v[1] > 1e-6
        # the E-step under the floored variance
        self._check(x, weights, np.array([0.25, 0.75]), new_v)

    def test_entries_below_exp_underflow_are_exactly_zero(self):
        """Shifted log-densities at or below the E-step's floor get exactly
        zero responsibility, here every sample's other component."""
        rng = np.random.default_rng(14)
        x = np.concatenate([rng.normal(0.1, 0.01, 300),
                            rng.normal(0.6, 0.01, 300)])
        weights, means = np.array([0.5, 0.5]), np.array([0.1, 0.6])
        variances = np.array([1e-4, 1e-4])
        self._check(x, weights, means, variances)
        _, resp, _ = _kernel(x, weights, means, variances)
        _, _, shifted = _direct_e_step(x, weights, means, variances)
        deep = shifted <= gmm._EXP_FLOOR
        assert deep.sum() == 600  # every sample, for the other component
        assert np.all(resp[deep] == 0.0)
        assert np.all(resp[~deep] > 0.0)

    def test_fit_stays_on_the_fast_exp_path(self):
        """A fit to uniform losses leaves no subnormal responsibility, and an
        E-step at its parameters never underflows in exp, whose subnormal
        results cost up to 150 times a normal one."""
        x = np.random.default_rng(0).uniform(0, 1, 2000)
        model = fit_em(x, GmmConfig())
        tiny = np.finfo(np.float64).tiny
        assert np.all((model.resp == 0.0) | (model.resp >= tiny))
        basis, centre = _basis(x)
        with np.errstate(under="raise"):
            _loglik_resp(basis, model.weights, model.means - centre,
                         model.variances, np.empty(model.resp.shape))


def _hand_built_model(x, weights, means, variances):
    """A model at the given parameters, its responsibilities those of x."""
    weights, means, variances = map(np.asarray, (weights, means, variances))
    return GmmModel(
        weights=weights, means=means, variances=variances,
        log_likelihood_trace=np.array([0.0]),
        resp=_direct_e_step(np.asarray(x, dtype=np.float64), weights, means,
                            variances)[1].T,
    )


def _three_band_model(x, sigma=0.05):
    return _hand_built_model(x, np.full(3, 1 / 3), [0.1, 0.5, 0.9],
                             np.full(3, sigma * sigma))


class TestGroupPosteriors:
    def test_low_loss_is_confidently_clean(self):
        split = group_posteriors(_three_band_model([0.10]), GmmConfig())
        assert split.w[0] > 0.99

    def test_mid_loss_is_confidently_open(self):
        split = group_posteriors(_three_band_model([0.50]), GmmConfig())
        assert split.w_op[0] > 0.99

    def test_high_loss_is_confidently_closed(self):
        split = group_posteriors(_three_band_model([0.90]), GmmConfig())
        assert split.w_cl[0] > 0.99

    def test_boundary_mean_counts_as_clean(self):
        """A component mean exactly at mu_min belongs to the clean band."""
        model = _hand_built_model([0.3], [0.5, 0.5], [0.3, 0.9],
                                  [0.0025, 0.0025])
        split = group_posteriors(model, GmmConfig(mu_min=0.3, mu_max=0.7))
        assert split.w[0] > 0.99
        assert split.w_op[0] == 0.0  # no component in the open band at all

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, 400)
        cfg = GmmConfig(num_components=8)
        model = fit_em(x, cfg)
        split = group_posteriors(model, cfg)
        np.testing.assert_allclose(split.w + split.w_op + split.w_cl, 1.0,
                                   atol=1e-6)

    def test_responsibilities_partition_unity(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 1, 200)
        model = fit_em(x, GmmConfig(num_components=5))
        assert model.resp.shape == (5, 200)
        np.testing.assert_allclose(model.resp.sum(axis=0), 1.0, atol=1e-9)

    def test_one_split_runs_one_e_step_per_iteration(self, monkeypatch):
        """The band sums reuse EM's final E-step: fitting and splitting run
        the initial E-step plus one per iteration, and the sums are those
        of the direct E-step at the fitted parameters."""
        calls = []
        real = gmm._loglik_resp

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(gmm, "_loglik_resp", counted)
        rng = np.random.default_rng(10)
        x = np.concatenate([rng.normal(0.15, 0.05, 600),
                            rng.normal(0.5, 0.05, 200),
                            rng.normal(0.85, 0.05, 200)]).clip(0, 1)
        cfg = GmmConfig(num_components=8)
        model = fit_em(x, cfg)
        split = group_posteriors(model, cfg)
        assert len(calls) == model.iterations + 1
        _, ref, _ = _direct_e_step(x, model.weights, model.means,
                                   model.variances)
        bands = (model.means <= cfg.mu_min, model.means >= cfg.mu_max)
        open_band = ~(bands[0] | bands[1])
        for got, band in ((split.w, bands[0]), (split.w_op, open_band),
                          (split.w_cl, bands[1])):
            assert band.any()
            np.testing.assert_allclose(got, ref[:, band].sum(axis=1),
                                       rtol=0, atol=1e-12)

    def test_three_mode_split_oracle(self):
        """The strict-max partition recovers the generating mode >= 99%."""
        rng = np.random.default_rng(9)
        modes = np.array([0.1, 0.5, 0.9])
        data = np.clip(np.repeat(modes, 1000)
                       + rng.normal(0, 0.02, 3000), 0, 1)
        cfg = GmmConfig(num_components=20)
        model = fit_em(data, cfg)
        part = partition(group_posteriors(model, cfg))
        # modes 0.1, 0.5, 0.9 land in X (clean), O (open) and U (closed)
        pred = np.empty(len(data), dtype=np.int64)
        pred[part.x_idx], pred[part.o_idx], pred[part.u_idx] = 0, 1, 2
        true = np.repeat([0, 1, 2], 1000)
        recalls = [np.mean(pred[true == g] == g) for g in range(3)]
        assert np.mean(recalls) >= 0.99


class TestPosteriorSplitType:
    def test_rejects_unnormalized_triples(self):
        with pytest.raises(ValueError):
            PosteriorSplit(w=np.array([0.5]), w_op=np.array([0.1]),
                           w_cl=np.array([0.1]))


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
