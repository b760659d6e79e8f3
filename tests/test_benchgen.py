"""Tests for synthetic benchmark generation and noise injection."""

import numpy as np
import pytest

from edmlab.benchgen import (
    NO_CLASS,
    DatasetManifest,
    NoiseSpec,
    Provenance,
    class_centers,
    inject_noise,
    make_open_pool,
    make_synthetic_clean,
)


class TestNoiseSpecCounts:
    def test_exact_announced_counts(self):
        """Rounded-half-up counts match hand-computed values."""
        assert NoiseSpec(rho=0.6, omega=0.25).counts(50000) == (7500, 22500)
        assert NoiseSpec(rho=0.3, omega=0.5).counts(10000) == (1500, 1500)
        assert NoiseSpec(rho=0.0, omega=0.5).counts(1000) == (0, 0)
        assert NoiseSpec(rho=1.0, omega=1.0).counts(1000) == (1000, 0)
        assert NoiseSpec(rho=1.0, omega=0.0).counts(1000) == (0, 1000)

    def test_counts_never_exceed_total_noise(self):
        """The open count absorbs any overshoot past round(rho*n)."""
        # 0.05*10 + 0.5 rounds each half up; the open count absorbs the excess.
        assert NoiseSpec(rho=0.1, omega=0.5).counts(10) == (1, 0)
        rng = np.random.default_rng(7)
        for _ in range(200):
            rho = float(rng.uniform(0, 1))
            omega = float(rng.uniform(0, 1))
            n = int(rng.integers(1, 5000))
            n_closed, n_open = NoiseSpec(rho=rho, omega=omega).counts(n)
            total = int(np.floor(rho * n + 0.5))
            assert n_closed == int(np.floor(rho * omega * n + 0.5))
            assert 0 <= n_open <= int(np.floor(rho * (1 - omega) * n + 0.5))
            # both halves rounding down can undershoot by at most one
            assert total - 1 <= n_closed + n_open <= total
            assert n_closed + n_open <= n

    def test_validate_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            NoiseSpec(rho=1.5, omega=0.5).validate()
        with pytest.raises(ValueError):
            NoiseSpec(rho=0.5, omega=-0.1).validate()


class TestSyntheticClean:
    def test_shapes_dtypes_and_order(self):
        ds = make_synthetic_clean(num_classes=4, per_class=50, feature_dim=8,
                                  cluster_spread=0.5, seed=3)
        assert len(ds) == 200
        assert ds.features.shape == (200, 8)
        assert ds.features.dtype == np.float32
        assert ds.observed.dtype == np.int32
        np.testing.assert_array_equal(
            ds.observed, np.repeat(np.arange(4), 50))
        np.testing.assert_array_equal(ds.observed, ds.true_class)
        assert np.all(ds.provenance == Provenance.CLEAN)
        assert ds.counts == (200, 0, 0)

    def test_blobs_sit_near_their_centers(self):
        """Per-class empirical means approach the configured centres."""
        spread = 0.5
        ds = make_synthetic_clean(num_classes=3, per_class=4000, feature_dim=4,
                                  cluster_spread=spread, seed=11)
        centers = class_centers(3, 4, spread)
        for c in range(3):
            mean = ds.features[ds.observed == c].mean(axis=0)
            np.testing.assert_allclose(mean, centers[c], atol=5 * spread / np.sqrt(4000))

    def test_center_separation(self):
        """Distinct class centres are at least four spreads apart."""
        spread = 0.7
        centers = class_centers(5, 9, spread)
        for a in range(5):
            for b in range(a + 1, 5):
                assert np.linalg.norm(centers[a] - centers[b]) >= 4 * spread

    def test_deterministic_in_seed(self):
        a = make_synthetic_clean(3, 20, 6, 0.5, seed=42)
        b = make_synthetic_clean(3, 20, 6, 0.5, seed=42)
        c = make_synthetic_clean(3, 20, 6, 0.5, seed=43)
        assert a == b
        assert not np.array_equal(a.features, c.features)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            make_synthetic_clean(num_classes=10, per_class=5, feature_dim=4,
                                 cluster_spread=0.5, seed=0)
        with pytest.raises(ValueError):
            make_synthetic_clean(num_classes=1, per_class=5, feature_dim=4,
                                 cluster_spread=0.5, seed=0)
        with pytest.raises(ValueError):
            make_synthetic_clean(num_classes=3, per_class=5, feature_dim=4,
                                 cluster_spread=0.0, seed=0)


class TestOpenPool:
    def test_shape_and_dtype(self):
        pool = make_open_pool(num_clusters=2, per_cluster=30, feature_dim=8,
                              cluster_spread=0.5, offset=8.0, seed=5)
        assert pool.shape == (60, 8)
        assert pool.dtype == np.float32

    def test_zero_clusters_is_empty(self):
        pool = make_open_pool(0, 10, 8, 0.5, 8.0, seed=5)
        assert pool.shape == (0, 8)

    def test_pool_far_from_clean_centers(self):
        """Every pool vector keeps a wide margin from every class centre."""
        spread = 0.5
        centers = class_centers(4, 8, spread)
        pool = make_open_pool(2, 200, 8, spread, offset=8.0, seed=9)
        dists = np.linalg.norm(pool[:, None, :] - centers[None, :, :], axis=2)
        assert dists.min() > 6 * spread

    def test_deterministic_in_seed(self):
        a = make_open_pool(2, 30, 8, 0.5, 8.0, seed=1)
        b = make_open_pool(2, 30, 8, 0.5, 8.0, seed=1)
        np.testing.assert_array_equal(a, b)


def _blobs(seed=0, per_class=100):
    return make_synthetic_clean(num_classes=4, per_class=per_class, feature_dim=8,
                                cluster_spread=0.5, seed=seed)


def _pool(size=400, seed=99):
    per = (size + 1) // 2
    return make_open_pool(2, per, 8, 0.5, 8.0, seed=seed)


class TestInjectNoise:
    def test_counts_and_tags(self):
        ds = _blobs()
        spec = NoiseSpec(rho=0.6, omega=0.5, seed=7)
        noisy = inject_noise(ds, _pool(), spec)
        assert noisy.counts == (160, 120, 120)
        assert noisy.noise_spec == spec

    def test_closed_set_semantics(self):
        """Flipped samples keep features and true class; labels always move."""
        ds = _blobs()
        noisy = inject_noise(ds, _pool(), NoiseSpec(rho=0.5, omega=1.0, seed=3))
        closed = noisy.provenance == Provenance.CLOSED
        assert closed.sum() == 200
        np.testing.assert_array_equal(noisy.features, ds.features)
        np.testing.assert_array_equal(noisy.true_class, ds.true_class)
        assert np.all(noisy.observed[closed] != noisy.true_class[closed])
        assert np.all(noisy.observed[~closed] == noisy.true_class[~closed])
        assert np.all((noisy.observed >= 0) & (noisy.observed < 4))

    def test_flip_distribution_uniform_over_wrong_classes(self):
        """With 10^4 flips, each wrong label appears at its expected rate."""
        ds = make_synthetic_clean(num_classes=4, per_class=2500, feature_dim=8,
                                  cluster_spread=0.5, seed=1)
        noisy = inject_noise(ds, np.zeros((0, 8), np.float32),
                             NoiseSpec(rho=1.0, omega=1.0, seed=13))
        for c in range(4):
            flips = noisy.observed[noisy.true_class == c]
            assert len(flips) == 2500
            counts = np.bincount(flips, minlength=4)
            assert counts[c] == 0
            # expected 2500/3 ~ 833 per wrong label; allow ~6 sigma
            wrong = np.delete(counts, c)
            np.testing.assert_allclose(wrong, 2500 / 3, atol=150)

    def test_open_set_semantics(self):
        """Open samples take distinct pool vectors and lose their true class."""
        ds = _blobs()
        pool = _pool()
        noisy = inject_noise(ds, pool, NoiseSpec(rho=0.5, omega=0.0, seed=3))
        is_open = noisy.provenance == Provenance.OPEN
        assert is_open.sum() == 200
        assert np.all(noisy.true_class[is_open] == NO_CLASS)
        assert np.all(noisy.true_class[~is_open] != NO_CLASS)
        # every open feature row matches exactly one pool row, none reused
        taken = noisy.features[is_open]
        matches = (taken[:, None, :] == pool[None, :, :]).all(axis=2)
        assert np.all(matches.sum(axis=1) == 1)
        pool_rows = matches.argmax(axis=1)
        assert len(np.unique(pool_rows)) == len(pool_rows)

    def test_open_labels_cover_all_classes(self):
        ds = _blobs(per_class=500)
        noisy = inject_noise(ds, _pool(size=2000), NoiseSpec(rho=1.0, omega=0.0, seed=5))
        counts = np.bincount(noisy.observed, minlength=4)
        # uniform over all 4 classes: expected 500 each
        np.testing.assert_allclose(counts, 500, atol=120)

    def test_zero_noise_returns_identical_manifest(self):
        ds = _blobs()
        spec = NoiseSpec(rho=0.0, omega=0.5, seed=21)
        noisy = inject_noise(ds, np.zeros((0, 8), np.float32), spec)
        assert noisy == ds
        assert noisy is not ds
        assert noisy.counts == (400, 0, 0)

    def test_deterministic_in_spec_seed(self):
        ds = _blobs()
        pool = _pool()
        a = inject_noise(ds, pool, NoiseSpec(rho=0.6, omega=0.5, seed=8))
        b = inject_noise(ds, pool, NoiseSpec(rho=0.6, omega=0.5, seed=8))
        c = inject_noise(ds, pool, NoiseSpec(rho=0.6, omega=0.5, seed=9))
        assert a == b
        assert a != c

    def test_rejects_invalid_inputs(self):
        ds = _blobs()
        with pytest.raises(ValueError):
            inject_noise(ds, _pool(size=10), NoiseSpec(rho=0.5, omega=0.0, seed=0))
        with pytest.raises(ValueError):
            bad_pool = make_open_pool(1, 400, 5, 0.5, 8.0, seed=0)
            inject_noise(ds, bad_pool, NoiseSpec(rho=0.5, omega=0.0, seed=0))
        noisy = inject_noise(ds, _pool(), NoiseSpec(rho=0.5, omega=0.5, seed=0))
        with pytest.raises(ValueError):
            inject_noise(noisy, _pool(), NoiseSpec(rho=0.5, omega=0.5, seed=0))


class TestSampleView:
    def test_one_hot_and_none_semantics(self):
        ds = _blobs()
        noisy = inject_noise(ds, _pool(), NoiseSpec(rho=0.6, omega=0.5, seed=2))
        open_ids = np.flatnonzero(noisy.provenance == Provenance.OPEN)
        s = noisy.sample(int(open_ids[0]))
        assert s.true_class is None
        assert s.provenance is Provenance.OPEN
        assert s.observed_label.sum() == 1.0
        assert s.observed_label.argmax() == noisy.observed[open_ids[0]]

        clean_ids = np.flatnonzero(noisy.provenance == Provenance.CLEAN)
        s2 = noisy.sample(int(clean_ids[0]))
        assert s2.true_class == int(noisy.true_class[clean_ids[0]])

        onehot = noisy.one_hot_observed()
        assert onehot.shape == (400, 4)
        np.testing.assert_array_equal(onehot.argmax(axis=1), noisy.observed)
        np.testing.assert_array_equal(onehot.sum(axis=1), np.ones(400))
