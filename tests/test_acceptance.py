"""Acceptance suite: the ten headline guarantees of the package.

Each test prints one [PASS]/[FAIL] verdict line straight to the terminal
(bypassing capture) and then asserts, so the verdicts are visible in any
pytest run.  The heavier end-to-end runs are shared between the trend
criteria through a module-scoped fixture.
"""

import json
import time

import numpy as np
import pytest
from conftest import central_diff_at, rel_err

from edmlab.backbone import (
    ROLE_NETD,
    ROLE_NETS,
    backward,
    forward_logits_t,
    init_model,
    init_optim,
    param_tensors,
)
from edmlab.benchgen import (
    NoiseSpec,
    Provenance,
    inject_noise,
    make_open_pool,
    make_synthetic_clean,
)
from edmlab.cli import main as cli_main
from edmlab.gmm import (
    GmmConfig,
    fit_em,
    group_posteriors,
    normalize_losses,
    partition,
)
from edmlab.losses import (
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
from edmlab.train import (
    HIDDEN_WIDTHS,
    MOMENTUM,
    WEIGHT_DECAY,
    TrainConfig,
    _seed_bundle,
    run,
    run_baseline_ce,
    train_netd_epoch,
    warmup,
)


def _verdict(capsys, num, name, ok, detail=""):
    """Print the criterion verdict to the real terminal; return ``ok``."""
    suffix = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] acceptance {num:02d} {name}{suffix}")
    return ok


def _benchmark(seed):
    """The standard desk-scale benchmark: 4-class blobs, rho=0.6, omega=0.5."""
    clean = make_synthetic_clean(4, 500, 8, 0.5, seed=seed)
    pool = make_open_pool(2, 350, 8, 0.5, 8.0, seed=seed + 1000)
    noisy = inject_noise(clean, pool,
                         NoiseSpec(rho=0.6, omega=0.5, seed=seed + 2000))
    test = make_synthetic_clean(4, 250, 8, 0.5, seed=seed + 3000)
    return noisy, test


@pytest.fixture(scope="module")
def trend_runs():
    """Paired full-algorithm and baseline runs at E=30 on three seeds."""
    start = time.monotonic()
    results = []
    for seed in (0, 1, 2):
        noisy, test = _benchmark(seed)
        cfg = TrainConfig(epochs=30, seed=seed)
        results.append((run(noisy, test, cfg),
                        run_baseline_ce(noisy, test, cfg)))
    return results, time.monotonic() - start


def test_01_loss_unit_values(capsys):
    """Every hand-derivable loss value is reproduced to 1e-9."""
    start = time.monotonic()

    def one_row(head, probs, target):
        return float(head(np.array([probs], dtype=np.float64), [target])[0])

    def reg(mean_probs):
        return float(_reg(np.asarray(mean_probs, dtype=np.float64))[0])

    sl = sl_losses_from_logits([[0.0, 0.0], [2.0, -1.0], [2.0, -1.0]],
                               [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    checks = [
        (sl[0], 2 / 3),
        (sl[1], 0.2),
        (sl[2], 1.2),
        (one_row(ce_batch_loss_t, [0.5, 0.5], [1.0, 0.0]), np.log(2.0)),
        (one_row(ce_batch_loss_t, np.full(10, 0.1), np.eye(10)[3]), np.log(10.0)),
        (one_row(ce_batch_loss_t, [0.9, 0.1], [1.0, 0.0]), -np.log(0.9)),
        (one_row(_mse, [0.5, 0.5], [0.75, 0.25]), 0.125),
        (one_row(_mse, [0.0, 1.0], [1.0, 0.0]), 2.0),
        (one_row(_mse, [0.3, 0.7], [0.3, 0.7]), 0.0),
        (reg(np.full(4, 0.25)), 0.0),
        (reg([0.75, 0.25]), 0.5 * np.log(4.0 / 3.0)),
        (LossWeights().combine(1.0, 0.1, reg(np.full(4, 0.25))), 3.5),
    ]
    worst = max(abs(got - want) for got, want in checks)
    sharpened = temp_sharpen(np.array([0.8, 0.2]), 0.5)
    worst = max(worst, np.abs(sharpened - [16 / 17, 1 / 17]).max())
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    assert _verdict(capsys, 1, "loss unit values", ok,
                    f"max err {worst:.1e}, {elapsed:.2f}s < 1s")


def test_02_gradient_fidelity(capsys):
    """Backbone-composed loss gradients match central differences."""
    start = time.monotonic()
    weights = LossWeights()
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(1000 + seed)
        model = init_model((6, 16, 4), seed=seed)
        arrays = param_tensors(model)
        x_lab = rng.normal(size=(12, 6))
        y_lab = rng.dirichlet(np.ones(4), size=12)
        x_unl = rng.normal(size=(12, 6))
        y_unl = rng.dirichlet(np.ones(4), size=12)
        x_mix = np.concatenate([x_lab, x_unl])
        y_mix = np.concatenate([y_lab, y_unl])

        # each head maps the logits to (value, dL/dlogits)
        def sl_head(logits):
            return sl_batch_loss_t(logits, y_lab)

        def ce_head(logits):
            return ce_batch_loss_t(softmax_t(logits), y_lab)

        def dm_head(logits):
            return dm_batch_loss_t(logits, y_mix, len(x_lab), weights)[:2]

        bounds = np.cumsum([a.size for a in arrays])
        for head, x in ((sl_head, x_lab), (ce_head, x_lab), (dm_head, x_mix)):
            picks = rng.integers(0, bounds[-1], size=100)
            coords = []
            for pick in picks:
                ai = int(np.searchsorted(bounds, pick, side="right"))
                coords.append((ai, int(pick - (bounds[ai - 1] if ai else 0))))
            acts = forward_logits_t(arrays, x)
            grad = backward(arrays, acts, head(acts[-1])[1])
            analytic = grad[picks]
            numeric = central_diff_at(
                lambda: float(head(forward_logits_t(arrays, x)[-1])[0]),
                arrays, coords)
            worst = max(worst, rel_err(analytic, numeric).max())
    elapsed = time.monotonic() - start
    ok = worst <= 1e-3 and elapsed < 30.0
    assert _verdict(capsys, 2, "gradient fidelity", ok,
                    f"max rel err {worst:.1e}, {elapsed:.1f}s < 30s")


def test_03_mixture_fit_properties(capsys):
    """EM improves monotonically, recovers two modes, and is exact at one."""
    start = time.monotonic()
    ok = True
    details = []

    # monotone log-likelihood on 20 random datasets
    slack = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.uniform(size=400)
        model = fit_em(x, GmmConfig(num_components=5))
        trace = np.asarray(model.log_likelihood_trace)
        slack = max(slack, float(np.max(np.diff(trace) * -1, initial=0.0)))
    ok &= slack <= 1e-8
    details.append(f"worst ll drop {slack:.1e}")

    # two well-separated modes are recovered
    rng = np.random.default_rng(42)
    x = np.concatenate([rng.normal(0.2, 0.03, size=600),
                        rng.normal(0.8, 0.03, size=400)])
    model = fit_em(x, GmmConfig(num_components=2))
    order = np.argsort(model.means)
    means = np.asarray(model.means)[order]
    mix = np.asarray(model.weights)[order]
    mean_err = max(abs(means[0] - 0.2), abs(means[1] - 0.8))
    weight_err = max(abs(mix[0] - 0.6), abs(mix[1] - 0.4))
    ok &= mean_err <= 0.02 and weight_err <= 0.05
    details.append(f"mean err {mean_err:.3f}, weight err {weight_err:.3f}")

    # single-component fit equals the closed-form moments
    x = np.random.default_rng(7).uniform(size=256)
    single = fit_em(x, GmmConfig(num_components=1))
    closed_ok = (abs(single.means[0] - x.mean()) <= 1e-12
                 and abs(single.variances[0] - x.var()) <= 1e-12
                 and abs(single.weights[0] - 1.0) <= 1e-12)
    ok &= closed_ok
    details.append(f"closed form {'exact' if closed_ok else 'off'}")

    elapsed = time.monotonic() - start
    ok &= elapsed < 30.0
    assert _verdict(capsys, 3, "mixture-fit properties", ok,
                    "; ".join(details) + f", {elapsed:.1f}s < 30s")


def test_04_three_band_split_oracle(capsys):
    """The three-way partition separates three synthetic loss modes >= 99%."""
    start = time.monotonic()
    rng = np.random.default_rng(0)
    modes = (0.1, 0.5, 0.9)
    x = np.concatenate([rng.normal(m, 0.02, size=1000) for m in modes])
    truth = np.repeat(np.arange(3), 1000)
    cfg = GmmConfig()  # 20 components, bands at 0.3 and 0.7
    model = fit_em(x, cfg)
    part = partition(group_posteriors(model, x, cfg))
    # modes 0.1, 0.5, 0.9 are the clean (X), open (O) and closed (U) bands
    pred = np.empty(len(x), dtype=np.int64)
    pred[part.x_idx], pred[part.o_idx], pred[part.u_idx] = 0, 1, 2
    recalls = [np.mean(pred[truth == b] == b) for b in range(3)]
    balanced = float(np.mean(recalls))
    elapsed = time.monotonic() - start
    ok = balanced >= 0.99 and elapsed < 30.0
    assert _verdict(capsys, 4, "three-band split oracle", ok,
                    f"balanced accuracy {balanced:.4f}, {elapsed:.1f}s < 30s")


def test_05_noise_injection_exactness(capsys):
    """All ten noise grid points hit their computed counts exactly."""
    start = time.monotonic()
    clean = make_synthetic_clean(4, 2500, 8, 0.5, seed=0)
    pool = make_open_pool(2, 3000, 8, 0.5, 8.0, seed=99)
    n = len(clean)
    ok = True
    for rho in (0.3, 0.6):
        for omega in (0.0, 0.25, 0.5, 0.75, 1.0):
            spec = NoiseSpec(rho=rho, omega=omega, seed=17)
            noisy = inject_noise(clean, pool, spec)
            n_closed, n_open = spec.counts(n)
            got_clean, got_closed, got_open = noisy.counts
            ok &= (got_closed, got_open) == (n_closed, n_open)
            ok &= got_clean == n - n_closed - n_open
            closed_mask = noisy.provenance == Provenance.CLOSED
            ok &= not np.any(noisy.observed[closed_mask]
                             == noisy.true_class[closed_mask])
            if omega == 0.0:
                ok &= n_closed == 0 and got_closed == 0
            if omega == 1.0:
                ok &= n_open == 0 and got_open == 0
    elapsed = time.monotonic() - start
    ok &= elapsed < 10.0
    assert _verdict(capsys, 5, "noise-injection exactness", ok,
                    f"10 grid points, N={n}, {elapsed:.1f}s < 10s")


def test_06_warmup_loss_ordering(capsys):
    """After splitter warm-up, mean loss ranks clean < open < closed."""
    start = time.monotonic()
    noisy, _ = _benchmark(0)
    cfg = TrainConfig(seed=0)
    widths = (noisy.feature_dim, *HIDDEN_WIDTHS, noisy.num_classes)
    netd_ss, nets_ss, rng = _seed_bundle(cfg.seed)
    netd = init_model(widths, netd_ss, role=ROLE_NETD)
    nets = init_model(widths, nets_ss, role=ROLE_NETS)
    warmup(netd, nets, noisy.features.astype(np.float64),
           noisy.one_hot_observed(), cfg, rng)
    _, raw = sl_dataset_loss(nets, noisy)
    norm = normalize_losses(raw)
    mean_clean = norm[noisy.provenance == Provenance.CLEAN].mean()
    mean_open = norm[noisy.provenance == Provenance.OPEN].mean()
    mean_closed = norm[noisy.provenance == Provenance.CLOSED].mean()
    elapsed = time.monotonic() - start
    ok = mean_clean < mean_open < mean_closed and elapsed < 120.0
    assert _verdict(
        capsys, 6, "warm-up loss ordering", ok,
        f"clean {mean_clean:.3f} < open {mean_open:.3f} "
        f"< closed {mean_closed:.3f}, {elapsed:.1f}s < 120s")


def test_07_robustness_trend_over_baseline(capsys, trend_runs):
    """Full algorithm beats plain cross-entropy on final accuracy and
    keeps a best-minus-last gap no larger, on every seed."""
    results, elapsed = trend_runs
    ok = elapsed < 600.0
    details = []
    for seed, (edm, base) in enumerate(results):
        ea, ba = edm.accuracy, base.accuracy
        ok &= ea.last > ba.last
        ok &= ea.gap <= ba.gap
        details.append(f"s{seed}: {ea.last:.3f}>{ba.last:.3f}, "
                       f"gap {ea.gap:.3f}<={ba.gap:.3f}")
    assert _verdict(capsys, 7, "robustness trend over baseline", ok,
                    "; ".join(details) + f", {elapsed:.0f}s < 600s")


def test_08_split_quality_trend(capsys, trend_runs):
    """The three-way split improves from epoch 1 to epoch 10 on every seed."""
    results, _ = trend_runs
    ok = True
    details = []
    for seed, (edm, _) in enumerate(results):
        first = edm.reports[0].split_balanced_accuracy
        tenth = edm.reports[9].split_balanced_accuracy
        ok &= tenth >= first
        details.append(f"s{seed}: {first:.3f}->{tenth:.3f}")
    assert _verdict(capsys, 8, "split-quality trend", ok, "; ".join(details))


def test_09_bitwise_determinism(capsys, tmp_path):
    """Two identical CLI runs produce byte-identical logs and checkpoints."""
    start = time.monotonic()
    args = ["run", "--per-class", "30", "--rho", "0.6", "--omega", "0.5",
            "--epochs", "2", "--warmup-d", "1", "--warmup-s", "2",
            "--seed", "5"]
    dirs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        assert cli_main(args + ["--out-dir", str(out_dir)]) == 0
        dirs.append(out_dir)
    ok = True
    compared = ("epochs.jsonl", "netd_best.ckpt", "netd_last.ckpt",
                "nets_last.ckpt")
    for name in compared:
        ok &= (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    records = (dirs[0] / "epochs.jsonl").read_text().splitlines()
    ok &= len(records) == 2 and all(
        json.loads(r)["schema_version"] == 1 for r in records)
    elapsed = time.monotonic() - start
    assert _verdict(capsys, 9, "bitwise determinism", ok,
                    f"{len(compared)} artifacts compared, {elapsed:.1f}s")


def test_10_structure_audits(capsys, trend_runs):
    """Each epoch covers all N samples three ways; discarded samples never
    reach a classifier gradient; posterior triples sum to one."""
    results, _ = trend_runs
    ok = True

    # every logged epoch of every run partitions the full dataset
    for edm, _ in results:
        for report in edm.reports:
            ok &= report.n_x + report.n_u + report.n_o == 2000

    # instrumented epochs: replicate the loop and audit the update sets
    noisy, _ = _benchmark(0)
    cfg = TrainConfig(epochs=3, seed=0)
    widths = (noisy.feature_dim, *HIDDEN_WIDTHS, noisy.num_classes)
    netd_ss, nets_ss, rng = _seed_bundle(cfg.seed)
    netd = init_model(widths, netd_ss, role=ROLE_NETD)
    nets = init_model(widths, nets_ss, role=ROLE_NETS)
    feats, labels = noisy.features.astype(np.float64), noisy.one_hot_observed()
    warmup(netd, nets, feats, labels, cfg, rng)
    opt_d = init_optim(netd, cfg.learning_rate, MOMENTUM, WEIGHT_DECAY)
    n = len(noisy)
    for _ in range(cfg.epochs):
        _, raw = sl_dataset_loss(nets, noisy)
        norm = normalize_losses(raw)
        gmodel = fit_em(norm, cfg.gmm)
        split = group_posteriors(gmodel, norm, cfg.gmm)
        triple_sum = split.w + split.w_op + split.w_cl
        ok &= bool(np.all(np.abs(triple_sum - 1.0) <= 1e-6))
        part = partition(split)
        sizes = part.sizes()
        ok &= sum(sizes) == n
        all_idx = np.concatenate([part.x_idx, part.u_idx, part.o_idx])
        ok &= len(np.unique(all_idx)) == n
        stats = train_netd_epoch(netd, feats, labels, split, part, cfg, opt_d,
                                 rng)
        o_set = set(part.o_idx.tolist())
        ok &= not o_set.intersection(stats.used_labeled.tolist())
        ok &= not o_set.intersection(stats.used_unlabeled.tolist())
        ok &= set(stats.used_labeled.tolist()) == set(part.x_idx.tolist())
        ok &= set(stats.used_unlabeled.tolist()) <= set(part.u_idx.tolist())
    assert _verdict(capsys, 10, "structure audits", ok,
                    "partition cover, gradient exclusion, posterior sums")
