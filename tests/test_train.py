"""Tests for the dual-network training loop and its building blocks."""

import gc
import logging
from dataclasses import asdict

import numpy as np
import pytest
from conftest import make_model

from edmlab import train as train_mod
from edmlab.backbone import (
    ROLE_NETD,
    ROLE_NETS,
    augment,
    backward,
    forward_logits,
    forward_logits_t,
    init_model,
    init_optim,
    param_tensors,
    sgd_step,
    softmax_probs,
)
from edmlab.benchgen import NoiseSpec, inject_noise, make_open_pool, \
    make_synthetic_clean
from edmlab.errors import NumericsError
from edmlab.gmm import PosteriorSplit, partition
from edmlab.losses import ce_batch_loss_t, sl_dataset_loss, softmax_t, temp_sharpen
from edmlab.train import (
    TrainConfig,
    _ce_pass,
    _sl_pass,
    co_refine,
    guess_unlabeled,
    mixmatch_batch,
    relabel_for_nets,
    run,
    run_baseline_ce,
    train_netd_epoch,
    train_nets_epoch,
    warmup,
    _seed_bundle,
)


def make_noisy_blobs(seed=0, per_class=100, rho=0.6, omega=0.5):
    clean = make_synthetic_clean(4, per_class, 8, 0.5, seed=seed)
    pool = make_open_pool(2, per_class, 8, 0.5, 8.0, seed=seed + 1000)
    return inject_noise(clean, pool, NoiseSpec(rho=rho, omega=omega, seed=seed + 2000))


def make_test_blobs(seed=0, per_class=100):
    return make_synthetic_clean(4, per_class, 8, 0.5, seed=seed + 3000)


def arrays(ds):
    """The float64 features and one-hot observed labels training runs on."""
    return ds.features.astype(np.float64), ds.one_hot_observed()


def small_cfg(**kw):
    base = dict(epochs=2, warmup_epochs_netd=2, warmup_epochs_nets=4, seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestTrainConfig:
    def test_defaults_validate(self):
        TrainConfig()

    def test_lr_schedule_short_run(self):
        cfg = TrainConfig(epochs=30)
        assert cfg.resolved_lr_drop_epoch == 15
        assert cfg.lr_at(0) == 0.02
        assert cfg.lr_at(14) == 0.02
        np.testing.assert_allclose(cfg.lr_at(15), 0.002)

    def test_lr_schedule_long_run(self):
        cfg = TrainConfig(epochs=200)
        assert cfg.resolved_lr_drop_epoch == 100
        np.testing.assert_allclose(cfg.lr_at(150), 0.002)

    def test_rejects_bad_values(self):
        inf, nan = float("inf"), float("nan")
        for kw in (dict(num_augments=0), dict(temperature=0.0),
                   dict(mix_alpha=0.0), dict(batch_size=0), dict(epochs=-1),
                   dict(temperature=inf), dict(mix_alpha=inf),
                   dict(learning_rate=inf), dict(learning_rate=nan),
                   dict(learning_rate=0.0), dict(seed=-1),
                   dict(warmup_epochs_netd=-1)):
            with pytest.raises(ValueError):
                TrainConfig(**kw)


class TestWarmup:
    def test_zero_epochs_leaves_models_unchanged(self):
        ds = make_noisy_blobs()
        netd = init_model((8, 16, 4), seed=0, role=ROLE_NETD)
        nets = init_model((8, 16, 4), seed=1, role=ROLE_NETS)
        d_before = [a.copy() for a in netd.flat()]
        s_before = [a.copy() for a in nets.flat()]
        cfg = small_cfg(warmup_epochs_netd=0, warmup_epochs_nets=0)
        assert warmup(netd, nets, *arrays(ds), cfg, np.random.default_rng(0)) \
            is None
        for a, b in zip(netd.flat(), d_before):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(nets.flat(), s_before):
            np.testing.assert_array_equal(a, b)

    def test_clean_blobs_reach_high_train_accuracy(self):
        """Warm-up alone fits separable noise-free data almost perfectly."""
        ds = make_noisy_blobs(per_class=250, rho=0.0)
        netd = init_model((8, 64, 64, 4), seed=0, role=ROLE_NETD)
        nets = init_model((8, 64, 64, 4), seed=1, role=ROLE_NETS)
        cfg = TrainConfig(warmup_epochs_netd=10, warmup_epochs_nets=1)
        warmup(netd, nets, *arrays(ds), cfg, np.random.default_rng(0))
        pred = np.argmax(forward_logits(netd, ds.features), axis=1)
        assert np.mean(pred == ds.observed) >= 0.95

    def test_provenance_ordering_of_sl_losses(self):
        """After warm-up the mean loss ranks clean < open-set < closed-set."""
        ds = make_noisy_blobs(per_class=250, rho=0.6, omega=0.5)
        netd = init_model((8, 64, 64, 4), seed=0, role=ROLE_NETD)
        nets = init_model((8, 64, 64, 4), seed=1, role=ROLE_NETS)
        cfg = TrainConfig()
        warmup(netd, nets, *arrays(ds), cfg, np.random.default_rng(0))
        _, per_sample = sl_dataset_loss(nets, *arrays(ds))
        means = [per_sample[ds.provenance == p].mean() for p in (0, 2, 1)]
        assert means[0] < means[1] < means[2]


def _refine_row(label, clean_weight, mean_probs, temperature):
    """co_refine on a one-row batch."""
    return co_refine(np.asarray(label)[None, :], np.array([clean_weight]),
                     np.asarray(mean_probs)[None, :], temperature)[0]


class TestCoRefine:
    def test_full_label_trust(self):
        y = np.array([1.0, 0.0])
        np.testing.assert_allclose(_refine_row(y, 1.0, np.array([0.3, 0.7]), 1.0), y,
                                   atol=1e-12)

    def test_full_model_trust(self):
        p = np.array([0.3, 0.7])
        np.testing.assert_allclose(_refine_row(np.array([1.0, 0.0]), 0.0, p, 1.0), p,
                                   atol=1e-12)

    def test_blend_then_sharpen(self):
        out = _refine_row(np.array([1.0, 0.0]), 0.5, np.array([0.6, 0.4]), 0.5)
        np.testing.assert_allclose(out, [16 / 17, 1 / 17], atol=1e-12)

    def test_rejects_weight_out_of_range(self):
        with pytest.raises(ValueError):
            _refine_row(np.array([1.0, 0.0]), 1.5, np.array([0.5, 0.5]), 1.0)


def _guess_row(model, sample, num_augments, temperature, rng):
    """The loop's unlabeled target for a one-row batch: sharpened mean of views."""
    views, (mean,) = guess_unlabeled(model, [sample[None, :]], num_augments, rng)
    assert views.shape == (num_augments, sample.shape[0])
    return temp_sharpen(mean, temperature)[0]


class _NoJitter:
    """Stub generator: normal() draws are all zero, so every view is the input."""

    def normal(self, loc=0.0, scale=1.0, size=None):
        return np.zeros(size)


class TestGuessUnlabeled:
    def test_degenerate_pipeline_is_plain_softmax(self):
        m = init_model((4, 8, 3), seed=2)
        x = np.random.default_rng(0).normal(size=4)
        out = _guess_row(m, x, 1, 1.0, _NoJitter())
        want = softmax_probs(forward_logits(m, x[None, :]))[0]
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_output_is_distribution(self):
        m = init_model((4, 8, 3), seed=2)
        x = np.random.default_rng(0).normal(size=4)
        out = _guess_row(m, x, 2, 0.5, np.random.default_rng(1))
        assert np.all(out >= 0)
        assert abs(out.sum() - 1.0) <= 1e-9

    def test_extra_views_without_noise_change_nothing(self):
        m = init_model((4, 8, 3), seed=2)
        x = np.random.default_rng(0).normal(size=4)
        one = _guess_row(m, x, 1, 0.5, _NoJitter())
        two = _guess_row(m, x, 2, 0.5, _NoJitter())
        np.testing.assert_allclose(one, two, atol=1e-12)

    def test_stacked_draw_matches_sequential_augments(self):
        """One stacked draw gives the views M ``augment`` calls per batch
        would, row for row, and leaves the generator in the same state."""
        m = init_model((4, 8, 3), seed=2)
        data = np.random.default_rng(0).normal(size=(9, 4))
        batches = [data[:5], data[5:]]
        rng_stacked, rng_seq = np.random.default_rng(7), np.random.default_rng(7)
        views, means = guess_unlabeled(m, batches, 3, rng_stacked)
        want = [augment(b, rng_seq) for b in batches for _ in range(3)]
        np.testing.assert_array_equal(views, np.concatenate(want))
        assert rng_stacked.bit_generator.state == rng_seq.bit_generator.state
        for b, mean, first in zip(batches, means, (0, 3)):
            acc = sum(softmax_probs(forward_logits(m, v)) for v in want[first:first + 3])
            np.testing.assert_allclose(mean, acc / 3, rtol=1e-12)
            assert mean.shape == (len(b), 3)


class _FixedDraws:
    """Stub generator: constant beta() draws, reversed permutation()."""

    def __init__(self, value):
        self.value = value

    def beta(self, a, b, size=None):
        return np.full(size, self.value)

    def permutation(self, n):
        return np.arange(n)[::-1]


def _mix_pair(a, b, mix_alpha, rng):
    """Row 0 of mixmatch_batch over the two-row pool [a, b]."""
    inputs, targets = mixmatch_batch(np.stack([a[0], b[0]]),
                                     np.stack([a[1], b[1]]), mix_alpha, rng)
    return inputs[0], targets[0]


class TestMixmatchPair:
    def test_self_mix_is_identity(self):
        x = np.array([1.0, 2.0])
        t = np.array([0.25, 0.75])
        mi, mt = _mix_pair((x, t), (x, t), 4.0, np.random.default_rng(0))
        np.testing.assert_allclose(mi, x, atol=1e-12)
        np.testing.assert_allclose(mt, t, atol=1e-12)

    def test_low_draw_folds_to_dominant_coefficient(self):
        """A drawn 0.3 becomes 0.7 toward the first operand."""
        a = (np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        b = (np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        mi, mt = _mix_pair(a, b, 4.0, _FixedDraws(0.3))
        np.testing.assert_allclose(mi, [0.7, 0.3], atol=1e-12)
        np.testing.assert_allclose(mt, [0.7, 0.3], atol=1e-12)

    def test_mixed_target_is_distribution(self):
        rng = np.random.default_rng(3)
        a = (rng.normal(size=5), rng.dirichlet(np.ones(4)))
        b = (rng.normal(size=5), rng.dirichlet(np.ones(4)))
        _, mt = _mix_pair(a, b, 4.0, rng)
        assert np.all(mt >= 0)
        assert abs(mt.sum() - 1.0) <= 1e-9


class TestMixmatchBatch:
    def test_lambda_always_dominant(self):
        """With identity targets, row i's own share of its mixed target is
        its folded coefficient (1 if paired with itself): always >= 0.5."""
        rng = np.random.default_rng(4)
        inputs = rng.normal(size=(64, 6))
        targets = np.eye(64)
        mixed_inputs, mixed_targets = mixmatch_batch(inputs, targets, 4.0, rng)
        own = np.diag(mixed_targets)
        assert np.all(own >= 0.5)
        assert np.all(own <= 1.0)
        assert mixed_inputs.shape == inputs.shape
        np.testing.assert_allclose(mixed_targets.sum(axis=1), 1.0, atol=1e-9)

    def test_outputs_stay_near_first_operand(self):
        """lambda' >= 0.5 keeps each mixed row closer to its own original."""
        rng = np.random.default_rng(5)
        inputs = rng.normal(size=(32, 4)) * 5
        targets = rng.dirichlet(np.ones(3), size=32)
        mixed_inputs, _ = mixmatch_batch(inputs, targets, 4.0, rng)
        d_self = np.linalg.norm(mixed_inputs - inputs, axis=1)
        d_all = np.linalg.norm(inputs[:, None, :] - inputs[None, :, :], axis=2)
        # distance moved is at most half the distance to the farthest partner
        assert np.all(d_self <= 0.5 * d_all.max(axis=1) + 1e-9)


def _full_split(ds, w_cl_value=0.0):
    n = len(ds)
    w_cl = np.full(n, w_cl_value)
    w = 1.0 - w_cl
    return PosteriorSplit(w=w, w_op=np.zeros(n), w_cl=w_cl)


class TestTrainNetdEpoch:
    def _setup(self, n_x=64, n_u=30):
        ds = make_noisy_blobs(per_class=50)
        n = len(ds)
        w = np.zeros(n)
        w_cl = np.zeros(n)
        w_op = np.zeros(n)
        w[:n_x] = 1.0
        w_cl[n_x:n_x + n_u] = 1.0
        w_op[n_x + n_u:] = 1.0
        split = PosteriorSplit(w=w, w_op=w_op, w_cl=w_cl)
        part = partition(split)
        model = init_model((8, 16, 4), seed=0)
        cfg = small_cfg()
        opt = init_optim(model, 0.02)
        return ds, split, part, model, cfg, opt

    def test_iteration_count_matches_ceiling(self):
        ds, split, part, model, cfg, opt = self._setup(n_x=64)
        stats = train_netd_epoch(model, *arrays(ds), split, part, cfg, opt,
                                 np.random.default_rng(0))
        assert stats.iterations == 1
        ds, split, part, model, cfg, opt = self._setup(n_x=65)
        stats = train_netd_epoch(model, *arrays(ds), split, part, cfg, opt,
                                 np.random.default_rng(0))
        assert stats.iterations == 2

    def test_empty_unlabeled_set_still_trains(self):
        ds, split, part, model, cfg, opt = self._setup(n_x=64, n_u=0)
        before = [a.copy() for a in model.flat()]
        stats = train_netd_epoch(model, *arrays(ds), split, part, cfg, opt,
                                 np.random.default_rng(0))
        assert stats.mean_unlabeled_loss == 0.0
        assert any(np.any(a != b) for a, b in zip(model.flat(), before))

    def test_empty_labeled_set_skips_with_warning(self, caplog):
        ds, split, part, model, cfg, opt = self._setup(n_x=0, n_u=64)
        before = [a.copy() for a in model.flat()]
        with caplog.at_level(logging.WARNING, logger="edmlab"):
            stats = train_netd_epoch(model, *arrays(ds), split, part, cfg, opt,
                                     np.random.default_rng(0))
        assert stats.iterations == 0
        assert "empty" in caplog.text
        for a, b in zip(model.flat(), before):
            np.testing.assert_array_equal(a, b)

    def test_one_forward_pass_per_step(self, monkeypatch):
        """Each step runs the network once over the whole mixed batch."""
        import edmlab.train as train_mod

        calls = []

        def counting(arrays, batch):
            calls.append(batch.shape[0])
            return forward_logits_t(arrays, batch)

        monkeypatch.setattr(train_mod, "forward_logits_t", counting)
        ds, split, part, model, cfg, opt = self._setup(n_x=80, n_u=40)
        stats = train_netd_epoch(model, *arrays(ds), split, part, cfg, opt,
                                 np.random.default_rng(0))
        assert stats.iterations == 2
        assert len(calls) == stats.iterations

    def test_one_label_guess_forward_per_step(self, monkeypatch):
        """Each step guesses the labels of all its views in one no-grad
        forward: the labeled rows' M views, then the unlabeled rows'."""
        calls = []

        def counting(model, batch):
            calls.append(batch.shape[0])
            return forward_logits(model, batch)

        monkeypatch.setattr(train_mod, "forward_logits", counting)
        ds, split, part, model, cfg, opt = self._setup(n_x=80, n_u=40)
        stats = train_netd_epoch(model, *arrays(ds), split, part, cfg, opt,
                                 np.random.default_rng(0))
        m, b = cfg.num_augments, cfg.batch_size
        assert stats.iterations == 2
        # 80 labeled rows make batches of b and 80 - b; each step draws b unlabeled
        assert calls == [m * (b + b), m * ((80 - b) + b)]

    def test_discarded_samples_never_used(self):
        ds, split, part, model, cfg, opt = self._setup(n_x=80, n_u=40)
        stats = train_netd_epoch(model, *arrays(ds), split, part, cfg, opt,
                                 np.random.default_rng(0))
        o_set = set(part.o_idx.tolist())
        assert not o_set.intersection(stats.used_labeled.tolist())
        assert not o_set.intersection(stats.used_unlabeled.tolist())
        assert set(stats.used_labeled.tolist()) == set(part.x_idx.tolist())
        assert set(stats.used_unlabeled.tolist()).issubset(set(part.u_idx.tolist()))

    def test_steps_leave_no_cyclic_garbage(self):
        """A step's arrays are freed by reference counting, without the collector."""
        ds, split, part, model, cfg, opt = self._setup(n_x=64)
        feats = ds.features[:64].astype(np.float64)
        labels = ds.one_hot_observed()[:64]
        rng = np.random.default_rng(0)

        def one_step_each():
            _ce_pass(model, feats, labels, 64, opt, rng)
            _sl_pass(model, feats, labels, 64, opt, rng)
            stats = train_netd_epoch(model, *arrays(ds), split, part, cfg, opt,
                                     rng)
            assert stats.iterations == 1

        one_step_each()  # first calls set up library state once
        gc.collect()
        gc.disable()
        try:
            params = param_tensors(model)
            acts = forward_logits_t(params, feats)
            _, d_logits = ce_batch_loss_t(softmax_t(acts[-1]), labels)
            sgd_step(model, backward(params, acts, d_logits,
                                      np.empty_like(model.buffer)), opt)
            one_step_each()
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestRelabel:
    def test_zero_model_trust_is_identity(self):
        ds = make_noisy_blobs(per_class=40)
        model = init_model((8, 16, 4), seed=0)
        out = relabel_for_nets(model, *arrays(ds), _full_split(ds, 0.0))
        np.testing.assert_array_equal(out, ds.one_hot_observed())

    def test_full_model_trust_is_argmax(self):
        ds = make_noisy_blobs(per_class=40)
        model = init_model((8, 16, 4), seed=0)
        out = relabel_for_nets(model, *arrays(ds), _full_split(ds, 1.0))
        want = np.argmax(softmax_probs(forward_logits(model, ds.features)), axis=1)
        assert out.shape == (len(ds), ds.num_classes)
        np.testing.assert_array_equal(out, np.eye(ds.num_classes)[want])

    def test_blend_follows_larger_score(self):
        """With p=(0.9,0.1) and label two: w_cl=0.5 keeps the label
        (scores 0.45 vs 0.55) while w_cl=0.9 overturns it (0.81 vs 0.19)."""
        model = make_model([np.array([[np.log(0.9), np.log(0.1)], [0.0, 0.0]])],
                           [np.zeros(2)], role=ROLE_NETD)
        feats = np.array([[1.0, 0.0], [1.0, 0.0]])
        labels = np.array([[0.0, 1.0], [0.0, 1.0]])
        split = PosteriorSplit(w=np.array([0.5, 0.1]), w_op=np.zeros(2),
                               w_cl=np.array([0.5, 0.9]))
        out = relabel_for_nets(model, feats, labels, split)
        np.testing.assert_array_equal(out, [[0.0, 1.0], [1.0, 0.0]])

    def test_provenance_and_features_untouched(self):
        """The features and labels it is given are left as they were."""
        ds = make_noisy_blobs(per_class=40)
        model = init_model((8, 16, 4), seed=0)
        feats, labels = arrays(ds)
        relabel_for_nets(model, feats, labels, _full_split(ds, w_cl_value=1.0))
        np.testing.assert_array_equal(feats, ds.features.astype(np.float64))
        np.testing.assert_array_equal(labels, ds.one_hot_observed())


class TestTrainNetsEpoch:
    def test_zero_lr_is_identity(self):
        ds = make_noisy_blobs(per_class=40)
        nets = init_model((8, 16, 4), seed=1, role=ROLE_NETS)
        before = [a.copy() for a in nets.flat()]
        opt = init_optim(nets, 0.0)
        assert train_nets_epoch(nets, *arrays(ds), small_cfg(), opt,
                                np.random.default_rng(0)) is None
        for a, b in zip(nets.flat(), before):
            np.testing.assert_array_equal(a, b)

    def test_single_batch_descent(self):
        """A small-lr full-batch step reduces the evidence loss."""
        ds = make_noisy_blobs(per_class=20)
        nets = init_model((8, 16, 4), seed=1, role=ROLE_NETS)
        cfg = small_cfg(batch_size=len(ds))
        opt = init_optim(nets, 1e-3)
        before, _ = sl_dataset_loss(nets, *arrays(ds))
        train_nets_epoch(nets, *arrays(ds), cfg, opt, np.random.default_rng(0))
        after, _ = sl_dataset_loss(nets, *arrays(ds))
        assert after < before

    def test_training_on_truth_reduces_loss_over_epochs(self):
        ds = make_noisy_blobs(per_class=50, rho=0.0)  # labels already true
        nets = init_model((8, 16, 4), seed=1, role=ROLE_NETS)
        opt = init_optim(nets, 0.02)
        rng = np.random.default_rng(0)
        first, _ = sl_dataset_loss(nets, *arrays(ds))
        for _ in range(5):
            train_nets_epoch(nets, *arrays(ds), small_cfg(), opt, rng)
        last, _ = sl_dataset_loss(nets, *arrays(ds))
        assert last < first


class TestRun:
    def test_zero_epochs_returns_warmed_up_model(self):
        ds = make_noisy_blobs(per_class=50)
        test = make_test_blobs(per_class=50)
        cfg = small_cfg(epochs=0)
        out = run(ds, test, cfg)
        assert out.reports == []
        # matches an independently executed warm-up with the same seeds
        netd_ss, nets_ss, rng = _seed_bundle(cfg.seed)
        netd = init_model((8, 64, 64, 4), netd_ss, role=ROLE_NETD)
        nets = init_model((8, 64, 64, 4), nets_ss, role=ROLE_NETS)
        warmup(netd, nets, *arrays(ds), cfg, rng)
        for a, b in zip(out.netd.flat(), netd.flat()):
            np.testing.assert_array_equal(a, b)

    def test_deterministic_reports(self):
        ds = make_noisy_blobs(per_class=50)
        test = make_test_blobs(per_class=50)
        cfg = small_cfg(epochs=2)
        a = run(ds, test, cfg)
        b = run(ds, test, cfg)
        assert [asdict(r) for r in a.reports] == [asdict(r) for r in b.reports]
        for x, y in zip(a.netd.flat(), b.netd.flat()):
            np.testing.assert_array_equal(x, y)

    def test_epoch_structure_audits(self):
        ds = make_noisy_blobs(per_class=50)
        test = make_test_blobs(per_class=50)
        out = run(ds, test, small_cfg(epochs=3))
        n = len(ds)
        assert len(out.reports) == 3
        for r in out.reports:
            assert r.n_x + r.n_u + r.n_o == n
            assert 0.0 <= r.test_accuracy <= 1.0
            assert np.asarray(r.confusion).sum() == n

    def test_nan_combined_loss_names_netd_and_epoch(self, monkeypatch):
        """A non-finite NetD loss in the main loop names the network, the
        step, the phase and the epoch."""
        real_epoch, real_loss = train_mod.train_netd_epoch, train_mod.dm_batch_loss_t
        epochs = []

        def counted(*args):
            epochs.append(len(epochs))
            return real_epoch(*args)

        def nan_in_epoch_one(*args):
            total, d_logits, comps = real_loss(*args)
            return (np.nan if len(epochs) == 2 else total), d_logits, comps

        monkeypatch.setattr(train_mod, "train_netd_epoch", counted)
        monkeypatch.setattr(train_mod, "dm_batch_loss_t", nan_in_epoch_one)
        with pytest.raises(NumericsError, match=r"^non-finite combined loss .* "
                           r"in NetD at step 0 of main-loop epoch 1$"):
            run(make_noisy_blobs(per_class=50), make_test_blobs(per_class=50),
                small_cfg(epochs=2))


class TestBaseline:
    def test_deterministic(self):
        ds = make_noisy_blobs(per_class=50)
        test = make_test_blobs(per_class=50)
        cfg = small_cfg(epochs=2)
        a = run_baseline_ce(ds, test, cfg)
        b = run_baseline_ce(ds, test, cfg)
        assert [asdict(r) for r in a.reports] == [asdict(r) for r in b.reports]

    def test_noise_free_parity_with_full_algorithm(self):
        """Without noise the two procedures land within two points."""
        ds = make_noisy_blobs(per_class=125, rho=0.0)
        test = make_test_blobs(per_class=125)
        cfg = TrainConfig(epochs=6, warmup_epochs_netd=5, warmup_epochs_nets=10,
                          seed=0)
        edm = run(ds, test, cfg)
        base = run_baseline_ce(ds, test, cfg)
        assert abs(edm.last_accuracy - base.last_accuracy) <= 0.02

    def test_shares_classifier_init_with_full_algorithm(self):
        ds = make_noisy_blobs(per_class=50)
        test = make_test_blobs(per_class=50)
        cfg = small_cfg(epochs=0, warmup_epochs_netd=0, warmup_epochs_nets=0)
        edm = run(ds, test, cfg)
        base_model = run_baseline_ce(ds, test, cfg).netd
        for a, b in zip(edm.netd.flat(), base_model.flat()):
            np.testing.assert_array_equal(a, b)
