"""Tests for the evaluation harness: accuracy, split confusion, exports."""

import errno
import json
import os
import signal
import threading
import tracemalloc

import numpy as np
import pytest
from conftest import make_model

from edmlab import backbone, evaluation
from edmlab.backbone import (
    ROLE_NETD,
    forward_logits,
    hidden_features,
    init_model,
)
from edmlab.benchgen import (
    DatasetManifest,
    NoiseSpec,
    Provenance,
    inject_noise,
    make_open_pool,
    make_synthetic_clean,
)
from edmlab.cli import EXIT_DATA, EXIT_INTERRUPTED, EXIT_RUNTIME, main
from edmlab.evaluation import (
    GROUP_ORDER,
    SplitConfusion,
    export_features,
    export_loss_histogram,
    export_posteriors,
    split_confusion,
)
from edmlab.evaluation import test_accuracy as model_accuracy
from edmlab.gmm import Partition, PosteriorSplit, partition
from edmlab.train import HIDDEN_WIDTHS, EpochReport, TrainOutcome


def _clean_blobs(per_class=50, seed=0):
    return make_synthetic_clean(4, per_class, 8, 0.5, seed=seed)


def _constant_logit_model(dim, k):
    """All-zero single-layer model: every sample gets identical logits."""
    return make_model([np.zeros((dim, k))], [np.zeros(k)], role=ROLE_NETD)


def _partition_from_pred(pred_groups):
    """The split that puts each sample in its given group: clean in X,
    closed in U, open in O."""
    pred = np.asarray(pred_groups)
    idx = np.arange(len(pred))
    return Partition(x_idx=idx[pred == Provenance.CLEAN],
                     u_idx=idx[pred == Provenance.CLOSED],
                     o_idx=idx[pred == Provenance.OPEN])


class TestTestAccuracy:
    def test_perfect_model_scores_one(self):
        """Identity scorer on class-indicator features is exactly right."""
        k = 4
        true = np.tile(np.arange(k, dtype=np.int32), 25)
        ds = DatasetManifest(
            features=np.eye(k, dtype=np.float32)[true],
            observed=true.copy(),
            true_class=true.copy(),
            num_classes=k,
            noise_spec=NoiseSpec(rho=0.0, omega=0.0),
        )
        model = make_model([np.eye(k, dtype=np.float64)], [np.zeros(k)],
                           role=ROLE_NETD)
        assert model_accuracy(model, ds) == 1.0

    def test_constant_logits_tiebreak_to_class_zero(self):
        """With identical logits the argmax lands on the first class."""
        ds = _clean_blobs(per_class=25)
        model = _constant_logit_model(8, 4)
        acc = model_accuracy(model, ds)
        share_zero = np.mean(ds.true_class == 0)
        assert acc == pytest.approx(share_zero)

    def test_scores_the_logits_not_rounded_probabilities(self):
        """Logits (0, 1e-17) soften to an exact tie, but class 1 is the argmax."""
        ds = DatasetManifest(
            features=np.ones((1, 1), dtype=np.float32),
            observed=np.array([1], dtype=np.int32),
            true_class=np.array([1], dtype=np.int32),
            num_classes=2,
            noise_spec=NoiseSpec(rho=0.0, omega=0.0),
        )
        model = make_model([np.array([[0.0, 1e-17]])], [np.zeros(2)],
                           role=ROLE_NETD)
        assert model_accuracy(model, ds) == 1.0

    def test_sample_order_invariance(self):
        ds = _clean_blobs(per_class=50)
        model = init_model((8, 16, 4), seed=3)
        perm = np.random.default_rng(0).permutation(len(ds))
        shuffled = DatasetManifest(
            features=ds.features[perm],
            observed=ds.observed[perm],
            true_class=ds.true_class[perm],
            num_classes=ds.num_classes,
            noise_spec=ds.noise_spec,
        )
        assert model_accuracy(model, ds) == pytest.approx(
            model_accuracy(model, shuffled))

    def test_rejects_empty_test_set(self):
        ds = _clean_blobs(per_class=25)
        empty = DatasetManifest(
            features=ds.features[:0],
            observed=ds.observed[:0],
            true_class=ds.true_class[:0],
            num_classes=ds.num_classes,
            noise_spec=ds.noise_spec,
        )
        model = init_model((8, 16, 4), seed=0)
        with pytest.raises(ValueError):
            model_accuracy(model, empty)

    def test_rejects_noisy_test_set(self):
        clean = _clean_blobs(per_class=25)
        pool = make_open_pool(2, 100, 8, 0.5, 8.0, seed=9)
        noisy = inject_noise(clean, pool, NoiseSpec(rho=0.4, omega=0.5, seed=1))
        model = init_model((8, 16, 4), seed=0)
        with pytest.raises(ValueError):
            model_accuracy(model, noisy)


class TestSplitConfusion:
    def _noisy(self):
        clean = _clean_blobs(per_class=50)
        pool = make_open_pool(2, 200, 8, 0.5, 8.0, seed=9)
        return inject_noise(clean, pool, NoiseSpec(rho=0.6, omega=0.5, seed=1))

    def test_perfect_prediction_is_diagonal(self):
        ds = self._noisy()
        conf = split_confusion(_partition_from_pred(ds.provenance), ds)
        assert np.trace(conf.matrix) == len(ds)
        assert conf.balanced_accuracy == 1.0
        np.testing.assert_array_equal(np.diag(conf.matrix),
                                      [ds.counts[int(p)] for p in GROUP_ORDER])

    def test_all_ties_fill_the_open_column(self):
        """Training discards every tie, so the confusion counts it as open."""
        ds = self._noisy()
        third = np.full(len(ds), 1.0 / 3.0)
        part = partition(PosteriorSplit(w=third, w_op=third, w_cl=third))
        conf = split_confusion(part, ds)
        assert conf.matrix[:, 2].sum() == len(ds)
        assert conf.matrix[:, :2].sum() == 0
        # each group's recall: open gets 1, the others 0 -> mean 1/3
        assert conf.balanced_accuracy == pytest.approx(1.0 / 3.0)

    def test_marginals_match_population(self):
        """Rows sum to the provenance counts and columns to the X/U/O sizes,
        ties involving clean (which training discards) included."""
        ds = self._noisy()
        rng = np.random.default_rng(5)
        triples = rng.dirichlet(np.ones(3), size=len(ds))
        triples[::4] = [0.4, 0.4, 0.2]
        triples[1::4] = [0.4, 0.2, 0.4]
        split = PosteriorSplit(w=triples[:, 0], w_op=triples[:, 1],
                               w_cl=triples[:, 2])
        part = partition(split)
        conf = split_confusion(part, ds)
        assert conf.matrix.sum() == len(ds)
        counts = ds.counts
        np.testing.assert_array_equal(conf.matrix.sum(axis=1),
                                      [counts[int(p)] for p in GROUP_ORDER])
        assert conf.matrix.sum(axis=0).tolist() == list(part.sizes())

    def test_absent_group_is_skipped_in_balance(self):
        """A clean-only dataset scores on the clean recall alone."""
        ds = _clean_blobs(per_class=30)
        conf = split_confusion(_partition_from_pred(ds.provenance), ds)
        assert conf.balanced_accuracy == 1.0
        assert np.isnan(conf.recall[1]) and np.isnan(conf.recall[2])

    def test_length_mismatch_rejected(self):
        ds = self._noisy()
        part = _partition_from_pred(ds.provenance[:-1])
        with pytest.raises(ValueError):
            split_confusion(part, ds)

    def test_empty_confusion_rejected(self):
        with pytest.raises(ValueError):
            SplitConfusion(matrix=np.zeros((3, 3), dtype=np.int64))


class TestAccuracyReport:
    """A run's best and last test accuracy and its best network, kept as
    each epoch ends."""

    @staticmethod
    def _outcome(accuracies):
        """An outcome whose NetD's first weight is set to the epoch number
        before each epoch ends."""
        outcome = TrainOutcome(netd=init_model((2, 2), seed=0))
        for e, a in enumerate(accuracies):
            outcome.netd.weights[0][0, 0] = e
            outcome.end_epoch(EpochReport(epoch=e, n_x=0, n_u=0, n_o=0,
                                          test_accuracy=a, learning_rate=0.1))
        return outcome

    def test_tied_epochs_keep_the_earlier_network(self):
        rep = self._outcome([0.5, 0.9, 0.7, 0.9, 0.8])
        assert rep.best_accuracy == 0.9
        assert rep.best_netd.weights[0][0, 0] == 1
        assert rep.best_netd is not rep.netd
        assert rep.netd.weights[0][0, 0] == 4

    def test_best_last_gap(self):
        rep = self._outcome([0.5, 0.9, 0.8])
        assert rep.best_accuracy == 0.9
        assert rep.last_accuracy == 0.8
        empty = self._outcome([])
        assert empty.best_accuracy is None and empty.last_accuracy is None
        assert empty.best_netd is None

    def test_monotone_run_has_zero_gap(self):
        rep = self._outcome([0.5, 0.6, 0.7])
        assert rep.best_accuracy == rep.last_accuracy == 0.7

    def test_best_never_below_last(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            rep = self._outcome(rng.uniform(size=5).tolist())
            assert rep.best_accuracy >= rep.last_accuracy


class TestExports:
    def test_histogram_conserves_population(self, tmp_path):
        rng = np.random.default_rng(0)
        losses = rng.uniform(size=300)
        prov = rng.integers(0, 3, size=300).astype(np.uint8)
        out = tmp_path / "hist.csv"
        export_loss_histogram(losses, prov, 10, out)
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "bin_lo,bin_hi,clean,closed,open"
        body = np.array([r.split(",") for r in rows[1:]], dtype=np.float64)
        assert body.shape == (10, 5)
        np.testing.assert_allclose(body[0, 0], 0.0)
        np.testing.assert_allclose(body[-1, 1], 1.0)
        for j, prov_value in enumerate(GROUP_ORDER):
            assert body[:, 2 + j].sum() == np.sum(prov == prov_value)

    def test_histogram_two_bins_split_at_half(self, tmp_path):
        losses = np.array([0.1, 0.9])
        prov = np.array([Provenance.CLEAN, Provenance.CLEAN], dtype=np.uint8)
        out = tmp_path / "hist.csv"
        export_loss_histogram(losses, prov, 2, out)
        body = [r.split(",") for r in out.read_text().strip().splitlines()[1:]]
        assert float(body[0][2]) == 1.0
        assert float(body[1][2]) == 1.0

    def test_histogram_bytes_equal_the_reference(self, tmp_path):
        """Edges and population on the bin edges included."""
        rng = np.random.default_rng(2)
        losses = np.concatenate([rng.uniform(size=200),
                                 [0.0, 0.05, 0.5, 0.95, 1.0]])
        prov = rng.integers(0, 3, size=len(losses)).astype(np.uint8)
        out = tmp_path / "hist.csv"
        export_loss_histogram(losses, prov, 20, out)
        assert out.read_bytes() == _reference_histogram(
            losses, prov, 20).encode("ascii")

    def test_histogram_rejects_single_bin(self, tmp_path):
        with pytest.raises(ValueError):
            export_loss_histogram(np.array([0.5]), np.array([0], dtype=np.uint8),
                                  1, tmp_path / "x.csv")

    def test_features_shape_and_values(self, tmp_path):
        ds = _clean_blobs(per_class=10)
        model = init_model((8, 16, 4), seed=0)
        out = tmp_path / "feats.csv"
        export_features(model, ds, out)
        rows = out.read_text().strip().splitlines()
        assert rows[0].startswith("id,provenance,h0")
        assert len(rows) == len(ds) + 1
        body = np.array([r.split(",") for r in rows[1:]], dtype=np.float64)
        assert body.shape == (len(ds), 2 + 16)  # id, provenance, each unit
        np.testing.assert_array_equal(body[:, 0], np.arange(len(ds)))
        np.testing.assert_array_equal(body[:, 1], ds.provenance)
        want = hidden_features(model, ds.features)
        assert want.dtype == np.float32
        # each activation parses back to the float32 the network computed
        np.testing.assert_array_equal(
            body[:, 2:].astype(np.float32).view(np.uint32),
            want.view(np.uint32))

    def test_features_round_trip_at_the_float32_extremes(self, tmp_path):
        """Exact zeros, values from 1e9 up (which ``%.9g`` writes in
        exponent form) and values below 1e-30 parse back bit for bit."""
        # 0.100931026 is a float32 that 8 significant digits do not give back
        units = np.array(
            [0.0, 1e9, 1234567890.0, 3.4028235e38, 1e-31, 1.2e-38,
             1.0 / 3.0, np.nextafter(np.float32(1), np.float32(2)),
             0.100931026], dtype=np.float32)
        width = len(units)
        # one input unit: x = 1 copies the weight row, x = -1 gives zeros
        model = make_model([units[None, :], np.ones((width, 2), np.float32)],
                           [np.zeros(width, np.float32),
                            np.zeros(2, np.float32)])
        assert model.buffer.dtype == np.float32
        ds = DatasetManifest(
            features=np.array([[1.0], [-1.0]], dtype=np.float32),
            observed=np.array([0, 1], dtype=np.int32),
            true_class=np.array([0, 1], dtype=np.int32),
            num_classes=2,
            noise_spec=NoiseSpec(rho=0.0, omega=0.0),
        )
        want = hidden_features(model, ds.features)
        np.testing.assert_array_equal(want[0].view(np.uint32),
                                      units.view(np.uint32))
        out = tmp_path / "features.csv"
        export_features(model, ds, out)
        rows = out.read_text().splitlines()[1:]
        assert "e+09" in rows[0] and "e-32" in rows[0]
        parsed = np.array([r.split(",")[2:] for r in rows],
                          dtype=np.float64).astype(np.float32)
        np.testing.assert_array_equal(parsed.view(np.uint32),
                                      want.view(np.uint32))

    def test_posteriors_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        n = 40
        triples = rng.dirichlet(np.ones(3), size=n)
        split = PosteriorSplit(w=triples[:, 0], w_op=triples[:, 1],
                               w_cl=triples[:, 2])
        losses = rng.uniform(size=n)
        prov = rng.integers(0, 3, size=n).astype(np.uint8)
        out = tmp_path / "post.csv"
        export_posteriors(losses, split, prov, out)
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "loss,w,w_op,w_cl,provenance"
        body = np.array([r.split(",") for r in rows[1:]], dtype=np.float64)
        assert body.shape == (n, 5)
        np.testing.assert_allclose(body[:, 0], losses, atol=1e-9)
        np.testing.assert_allclose(body[:, 1:4].sum(axis=1), 1.0, atol=1e-6)
        np.testing.assert_array_equal(body[:, 4].astype(int), prov)

    def test_posteriors_alignment_checked(self, tmp_path):
        split = PosteriorSplit(w=np.ones(3), w_op=np.zeros(3), w_cl=np.zeros(3))
        with pytest.raises(ValueError):
            export_posteriors(np.zeros(2), split, np.zeros(3, dtype=np.uint8),
                              tmp_path / "x.csv")


def _export_data():
    """40 samples of all three provenances, with losses and posteriors."""
    clean = make_synthetic_clean(4, 10, 8, 0.5, seed=2)
    pool = make_open_pool(2, 20, 8, 0.5, 8.0, seed=9)
    ds = inject_noise(clean, pool, NoiseSpec(rho=0.5, omega=0.5, seed=3))
    rng = np.random.default_rng(4)
    triples = rng.dirichlet(np.ones(3), size=len(ds))
    split = PosteriorSplit(w=triples[:, 0], w_op=triples[:, 1],
                           w_cl=triples[:, 2])
    return ds, rng.uniform(size=len(ds)), split


def _reference_exports(model, ds, losses, split):
    """``features.csv`` with each activation to 9 significant digits, and
    ``posteriors.csv`` as one ``repr`` per float."""
    feats = hidden_features(model, ds.features)
    width = feats.shape[1]
    features = ["id,provenance," + ",".join(f"h{j}" for j in range(width))]
    features += [
        ",".join([str(i), str(int(ds.provenance[i])),
                  *(format(float(v), ".9g") for v in feats[i])])
        for i in range(len(ds))]
    posteriors = ["loss,w,w_op,w_cl,provenance"]
    posteriors += [
        ",".join([*(repr(float(c[i])) for c in
                    (losses, split.w, split.w_op, split.w_cl)),
                  str(int(ds.provenance[i]))])
        for i in range(len(ds))]
    return "\n".join(features) + "\n", "\n".join(posteriors) + "\n"


def _reference_histogram(losses, prov, bins):
    """``loss_histogram.csv`` as one ``repr`` per bin edge and one count per
    provenance, counted bin by bin (the last bin includes its upper edge)."""
    edges = np.linspace(0.0, 1.0, bins + 1)
    lines = ["bin_lo,bin_hi,clean,closed,open"]
    for b in range(bins):
        lo, hi = edges[b], edges[b + 1]
        last = b == bins - 1
        inside = (losses >= lo) & ((losses < hi) | (last & (losses <= hi)))
        counts = [int(np.count_nonzero(inside & (prov == int(p))))
                  for p in GROUP_ORDER]
        lines.append(",".join([repr(float(lo)), repr(float(hi)),
                               *map(str, counts)]))
    return "\n".join(lines) + "\n"


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestChunking:
    """Evaluation runs and writes backbone.FORWARD_CHUNK rows at a time; the
    chunk size must show in no result, and memory must follow it, not n."""

    def _export(self, monkeypatch, tmp_path, chunk, model, ds, losses, split):
        monkeypatch.setattr(backbone, "FORWARD_CHUNK", chunk)
        out = tmp_path / f"chunk{chunk}"
        out.mkdir()
        export_features(model, ds, out / "features.csv")
        export_posteriors(losses, split, ds.provenance, out / "posteriors.csv")
        return ((out / "features.csv").read_bytes(),
                (out / "posteriors.csv").read_bytes())

    def test_chunk_activation_fits_a_resident_block(self):
        """A chunk's widest float64 activation stays within 256 KiB: larger
        blocks glibc maps or trims away on free, so every no-grad pass
        faulted its memory back in from the OS."""
        assert backbone.FORWARD_CHUNK * max(HIDDEN_WIDTHS) * 8 <= 256 * 1024

    def test_exports_do_not_depend_on_the_chunk(self, monkeypatch, tmp_path):
        ds, losses, split = _export_data()
        assert len(ds) == 40 and len(set(ds.provenance.tolist())) == 3
        model = init_model((8, 16, 16, 4), seed=5)
        chunked = self._export(monkeypatch, tmp_path, 7, model, ds, losses,
                               split)
        whole = self._export(monkeypatch, tmp_path, 64, model, ds, losses,
                             split)
        assert chunked == whole

        want = _reference_exports(model, ds, losses, split)
        assert chunked[0].decode("ascii") == want[0]
        assert chunked[1].decode("ascii") == want[1]

    def test_accuracy_does_not_depend_on_the_chunk(self, monkeypatch):
        ds = _clean_blobs(per_class=10, seed=6)
        model = init_model((8, 16, 4), seed=7)
        pred = np.argmax(forward_logits(model, ds.features), axis=1)
        want = float(np.mean(pred == ds.true_class))
        assert 0.0 < want < 1.0
        monkeypatch.setattr(backbone, "FORWARD_CHUNK", 7)
        assert model_accuracy(model, ds) == want

    def test_feature_export_memory_follows_the_chunk(self, monkeypatch,
                                                     tmp_path):
        ds = _clean_blobs(per_class=1000)
        width = 64
        model = init_model((8, width, width, 4), seed=0)
        monkeypatch.setattr(backbone, "FORWARD_CHUNK", 100)
        # every activation, in the network's own dtype
        whole_table = len(ds) * width * model.buffer.itemsize
        tracemalloc.start()
        try:
            export_features(model, ds, tmp_path / "features.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < whole_table / 4


class TestForkedWriter:
    """A chunked export of two or more slices forks one worker for the
    second half; the file's bytes must not show it, and no worker may
    outlive the export."""

    @staticmethod
    def _counting_fork(monkeypatch):
        forks = []
        real_fork = os.fork

        def fork():
            forks.append(threading.active_count())
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        return forks

    @pytest.mark.parametrize("chunk, n_chunks", [(40, 1), (20, 2), (9, 5)])
    def test_bytes_equal_the_reference(self, monkeypatch, tmp_path, chunk,
                                       n_chunks):
        ds, losses, split = _export_data()
        model = init_model((8, 16, 16, 4), seed=5)
        want = _reference_exports(model, ds, losses, split)
        monkeypatch.setattr(backbone, "FORWARD_CHUNK", chunk)
        assert len(list(backbone.chunks(len(ds)))) == n_chunks
        forks = self._counting_fork(monkeypatch)
        exports = [
            ("features.csv", lambda out: export_features(model, ds, out)),
            ("posteriors.csv",
             lambda out: export_posteriors(losses, split, ds.provenance, out)),
        ]
        for (name, export), text in zip(exports, want):
            out_dir = tmp_path / name.split(".")[0]
            out_dir.mkdir()
            export(out_dir / name)
            _assert_no_child_left()
            assert os.listdir(out_dir) == [name]
            assert (out_dir / name).read_bytes() == text.encode("ascii")
        assert len(forks) == (0 if n_chunks == 1 else 2)

    def test_failed_fork_writes_in_process(self, monkeypatch, tmp_path):
        ds, losses, split = _export_data()
        model = init_model((8, 16, 16, 4), seed=5)
        want = _reference_exports(model, ds, losses, split)
        monkeypatch.setattr(backbone, "FORWARD_CHUNK", 9)

        def fork():
            raise OSError(errno.EAGAIN, "fork refused")

        monkeypatch.setattr(os, "fork", fork)
        export_features(model, ds, tmp_path / "features.csv")
        export_posteriors(losses, split, ds.provenance,
                          tmp_path / "posteriors.csv")
        assert sorted(os.listdir(tmp_path)) == ["features.csv",
                                                "posteriors.csv"]
        assert (tmp_path / "features.csv").read_text() == want[0]
        assert (tmp_path / "posteriors.csv").read_text() == want[1]

    @staticmethod
    def _fail_from_the_cut(monkeypatch, exc, worker=True):
        """Make ``hidden_features`` raise ``exc`` (or, given a signal
        number, send that signal to its own process) on every block that
        starts at or after the worker's first slice, so only the worker
        fails; or, with ``worker=False``, on every block before it."""
        real = evaluation.hidden_features

        def hidden(model, block):
            blocks = list(backbone.chunks(len(block.base)))
            cut_row = blocks[len(blocks) // 2].start
            start = ((block.__array_interface__["data"][0]
                      - block.base.__array_interface__["data"][0])
                     // block.strides[0])
            if (start >= cut_row) == worker:
                if isinstance(exc, BaseException):
                    raise exc
                os.kill(os.getpid(), exc)
            return real(model, block)

        monkeypatch.setattr(evaluation, "hidden_features", hidden)

    def test_failing_worker_raises_and_is_reaped(self, monkeypatch, tmp_path,
                                                 capfd):
        ds, _, _ = _export_data()
        model = init_model((8, 16, 16, 4), seed=5)
        monkeypatch.setattr(backbone, "FORWARD_CHUNK", 9)
        self._fail_from_the_cut(monkeypatch, RuntimeError("worker boom"))
        with pytest.raises(RuntimeError, match="exited with status 1"):
            export_features(model, ds, tmp_path / "features.csv")
        _assert_no_child_left()
        assert os.listdir(tmp_path) == ["features.csv"]
        err = capfd.readouterr().err
        assert "Traceback" in err and "RuntimeError: worker boom" in err

    def test_failing_parent_reaps_the_worker(self, monkeypatch, tmp_path):
        ds, _, _ = _export_data()
        model = init_model((8, 16, 16, 4), seed=5)
        monkeypatch.setattr(backbone, "FORWARD_CHUNK", 9)
        self._fail_from_the_cut(monkeypatch, RuntimeError("parent boom"),
                                worker=False)
        with pytest.raises(RuntimeError, match="parent boom"):
            export_features(model, ds, tmp_path / "features.csv")
        _assert_no_child_left()
        assert os.listdir(tmp_path) == ["features.csv"]

    @pytest.mark.parametrize("exc, status, code, label", [
        (RuntimeError("worker boom"), 1, EXIT_RUNTIME, "runtime error"),
        (OSError(errno.ENOSPC, "No space left on device"), 3, EXIT_DATA,
         "data error"),
    ])
    def test_failing_worker_fails_the_run(self, monkeypatch, tmp_path, capfd,
                                          exc, status, code, label):
        monkeypatch.setattr(backbone, "FORWARD_CHUNK", 9)
        self._fail_from_the_cut(monkeypatch, exc)
        out_dir = tmp_path / "out"
        rc = main(["run", "--per-class", "10", "--epochs", "1",
                   "--warmup-d", "1", "--warmup-s", "1",
                   "--out-dir", str(out_dir)])
        _assert_no_child_left()
        assert rc == code
        manifest = json.loads((out_dir / "run_manifest.json").read_text())
        assert manifest["outcome"] == "failed"
        assert manifest["exit_code"] == code
        assert manifest["error"].startswith(
            f"{label}: the worker formatting the second half of ")
        assert manifest["error"].endswith(
            f"features.csv exited with status {status}")
        assert "features.csv" not in manifest["artifacts"]
        assert str(exc) in capfd.readouterr().err

    def test_interrupted_worker_ends_without_a_traceback(
            self, monkeypatch, tmp_path, capfd):
        """SIGINT reaching the worker (as Ctrl-C reaches a whole process
        group) ends it at once; the parent names the signal."""
        ds, _, _ = _export_data()
        model = init_model((8, 16, 16, 4), seed=5)
        monkeypatch.setattr(backbone, "FORWARD_CHUNK", 9)
        self._fail_from_the_cut(monkeypatch, signal.SIGINT)
        with pytest.raises(RuntimeError,
                           match=f"exited with status {-signal.SIGINT}"):
            export_features(model, ds, tmp_path / "features.csv")
        _assert_no_child_left()
        assert "Traceback" not in capfd.readouterr().err

    def test_interrupted_export_fails_the_run(self, monkeypatch, tmp_path,
                                              capfd):
        """An interrupt in the parent's half kills the worker, and the run
        records it as failed with exit 130."""
        monkeypatch.setattr(backbone, "FORWARD_CHUNK", 9)
        self._fail_from_the_cut(monkeypatch, KeyboardInterrupt(), worker=False)
        out_dir = tmp_path / "out"
        rc = main(["run", "--per-class", "10", "--epochs", "1",
                   "--warmup-d", "1", "--warmup-s", "1",
                   "--out-dir", str(out_dir)])
        _assert_no_child_left()
        assert rc == EXIT_INTERRUPTED == 130
        manifest = json.loads((out_dir / "run_manifest.json").read_text())
        assert (manifest["outcome"], manifest["exit_code"], manifest["error"]) \
            == ("failed", EXIT_INTERRUPTED, "interrupted")
        assert "features.csv" not in manifest["artifacts"]
        assert capfd.readouterr().err == "interrupted\n"

    def test_run_forks_only_a_single_threaded_process(self, monkeypatch,
                                                      tmp_path):
        """Python 3.12 and later warn when a process with threads forks,
        and the suite's warning filter makes that an error."""
        monkeypatch.setattr(backbone, "FORWARD_CHUNK", 9)
        forks = self._counting_fork(monkeypatch)
        assert main(["run", "--per-class", "10", "--epochs", "1",
                     "--warmup-d", "1", "--warmup-s", "1",
                     "--out-dir", str(tmp_path / "out")]) == 0
        _assert_no_child_left()
        assert forks == [1, 1]  # posteriors.csv and features.csv
