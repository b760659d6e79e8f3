"""Spans around edmlab's public per-phase functions, for traced runs.

`install` replaces the module-global names through which `edmlab.cli` and
`edmlab.train` call each phase with wrappers that record a span and pass
arguments and results through untouched, so the program's own code is not
changed.  Spans are kept in memory as ``[name, start, end, parent, attrs]``
and written out once the run ends.  `summarize` turns the spans of one or
more runs into the per-layer metrics; a span's layer is the part of its
name before the first dot, which is the edmlab module it belongs to.

This module imports nothing from edmlab, so the parent process can use
`summarize` without loading the program.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time

LAYERS = ("cli", "benchgen", "manifest_io", "train", "losses", "gmm",
          "backbone", "autodiff", "evaluation")

# Spans that scope their descendants: a fit under "cli.eval" is the eval-time
# fit, and a training step belongs to the nearest enclosing train phase.
_EVAL = "cli.eval"
_PHASES = ("train.warmup", "train.netd_epoch", "train.nets_epoch")


class Tracer:
    """An in-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.monotonic(), None, parent, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int, attrs: dict | None = None) -> None:
        now = time.monotonic()
        # A step span is closed by sgd_step; if its step raised part-way,
        # spans left open above `idx` are closed here at the same instant.
        while self._stack and self._stack[-1] != idx:
            self.spans[self._stack.pop()][2] = now
        if self._stack:
            self._stack.pop()
        self.spans[idx][2] = now
        if attrs:
            self.spans[idx][4] = attrs

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def wrap(self, fn, name: str, attrs=None):
        """`fn` inside a span; ``attrs(args, result)`` annotates the span."""

        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(idx)
                raise
            self.close(idx, attrs(args, result) if attrs else None)
            return result

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


def _file_bytes(args, _result) -> dict:
    return {"bytes": os.path.getsize(args[1])}


def _last_arg_bytes(args, _result) -> dict:
    return {"bytes": os.path.getsize(args[-1])}


def _em_attrs(args, model) -> dict:
    """What one EM fit did, checked apart from GmmModel's own validation."""
    cfg = args[1]
    trace = [float(v) for v in model.log_likelihood_trace]
    iters = len(trace) - 1
    drops = sum(1 for a, b in zip(trace, trace[1:]) if b < a)
    capped = iters >= cfg.max_iters and trace[-1] - trace[-2] >= cfg.tol
    weight_sum = math.fsum(float(w) for w in model.weights)
    return {"iters": iters, "capped": bool(capped), "ll_drops": drops,
            "weight_sum": weight_sum}


def _partition_attrs(_args, part) -> dict:
    return {"sizes": [len(part.x_idx), len(part.u_idx), len(part.o_idx)]}


def install(tracer: Tracer) -> None:
    """Wrap every phase that `edmlab.cli` and `edmlab.train` call by name."""
    from edmlab import backbone, cli, evaluation, train

    def patch(module, attr, name, attrs=None):
        setattr(module, attr, tracer.wrap(getattr(module, attr), name, attrs))

    for attr in ("make_synthetic_clean", "make_open_pool", "inject_noise"):
        patch(cli, attr, "benchgen.generate")
    patch(cli, "save_manifest", "manifest_io.save", _file_bytes)
    patch(cli, "_sha256", "cli.digest")
    patch(cli, "save_checkpoint", "backbone.checkpoint")
    patch(cli, "_eval_into", _EVAL)
    for attr in ("export_loss_histogram", "export_posteriors",
                 "export_features"):
        patch(cli, attr, "evaluation.export", _last_arg_bytes)

    for module in (cli, train):
        patch(module, "sl_dataset_loss", "losses.scan")
        patch(module, "fit_em", "gmm.fit", _em_attrs)
        patch(module, "group_posteriors", "gmm.split")
        patch(module, "split_confusion", "evaluation.confusion")
        patch(module, "test_accuracy", "evaluation.test_accuracy")
    patch(train, "partition", "gmm.split", _partition_attrs)

    patch(cli, "run", "train.run")
    patch(train, "warmup", "train.warmup")
    patch(train, "train_netd_epoch", "train.netd_epoch")
    patch(train, "relabel_for_nets", "train.relabel")
    patch(train, "train_nets_epoch", "train.nets_epoch")

    # The CE baseline runs its warm-up and its epochs as bare `_ce_pass`
    # calls: the first `warmup_epochs_netd` of them are its warm-up, the
    # rest are the classifier's (NetD's) main-loop epochs.  The passes that
    # `warmup` makes in the EvidentialMix loop already sit in its span.
    run_ce = tracer.wrap(cli.run_baseline_ce, "train.run")
    ce_pass = {name: tracer.wrap(train._ce_pass, name) for name in
               ("train.ce_pass", "train.warmup", "train.netd_epoch")}
    ce_warmup_left = [0]

    def traced_run_ce(train_ds, test_ds, cfg, on_epoch=None):
        ce_warmup_left[0] = cfg.warmup_epochs_netd
        return run_ce(train_ds, test_ds, cfg, on_epoch=on_epoch)

    def traced_ce_pass(*args, **kwargs):
        if tracer.inside("train.warmup"):
            name = "train.ce_pass"
        elif ce_warmup_left[0] > 0:
            ce_warmup_left[0] -= 1
            name = "train.warmup"
        else:
            name = "train.netd_epoch"
        return ce_pass[name](*args, **kwargs)

    cli.run_baseline_ce = traced_run_ce
    train._ce_pass = traced_ce_pass

    # One SGD step runs from `param_tensors` to the end of `sgd_step`; both
    # are called at the same depth, so the step span nests everything the
    # step does (forward, loss, backward).
    param_tensors, sgd_step = train.param_tensors, train.sgd_step
    open_step = [None]

    def traced_param_tensors(*args, **kwargs):
        open_step[0] = tracer.open("backbone.step")
        return param_tensors(*args, **kwargs)

    def traced_sgd_step(*args, **kwargs):
        try:
            return sgd_step(*args, **kwargs)
        finally:
            if open_step[0] is not None:
                tracer.close(open_step[0])
                open_step[0] = None

    train.param_tensors = traced_param_tensors
    train.sgd_step = traced_sgd_step
    patch(train, "backward", "autodiff.backward")
    patch(train, "forward_logits_t", "backbone.forward_t")
    for attr in ("softmax_t", "ce_batch_loss_t", "sl_batch_loss_t",
                 "dm_batch_loss_t"):
        patch(train, attr, "losses.batch_loss")

    # No-grad forwards: `sl_dataset_loss` imports `forward_logits` from
    # backbone at call time, the others bound it at import.
    for module in (backbone, train, evaluation):
        patch(module, "forward_logits", "backbone.forward")
    patch(evaluation, "hidden_features", "backbone.hidden_features")


# -- summary -----------------------------------------------------------


def _ancestor(spans, idx, names) -> str | None:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return spans[parent][0]
        parent = spans[parent][3]
    return None


def summarize(runs: list[list[list]]) -> dict[str, float]:
    """Per-layer metrics over the spans of one or more runs.

    Times and counts are summed over the runs, set sizes are averaged over
    every partition, and the step time is the median over every step.
    """
    total: dict[str, float] = {}
    self_s = {layer: 0.0 for layer in LAYERS}
    steps_us: list[float] = []
    sizes: list[list[int]] = []
    n_spans = 0
    em_faults = 0

    def add(key, value):
        total[key] = total.get(key, 0.0) + value

    for spans in runs:
        n_spans += len(spans)
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for idx, (name, start, end, parent, attrs) in enumerate(spans):
            dur = end - start
            self_s[name.split(".", 1)[0]] += dur - child_time[idx]
            add(name, dur)
            add(name + "#n", 1)
            attrs = attrs or {}
            if "bytes" in attrs:
                add(name + "#bytes", attrs["bytes"])
            if name == "gmm.fit":
                add("gmm.em_iters", attrs["iters"])
                add("gmm.fits_capped", int(attrs["capped"]))
                if (attrs["ll_drops"]
                        or abs(attrs["weight_sum"] - 1.0) > 1e-9):
                    em_faults += 1
                if _ancestor(spans, idx, (_EVAL,)):
                    add("gmm.eval_fit_s", dur)
            elif name == "backbone.step":
                steps_us.append(dur * 1e6)
                if _ancestor(spans, idx, _PHASES) == "train.netd_epoch":
                    add("train.netd_iters", 1)
            elif name.startswith("evaluation.") and name != "evaluation.export":
                if not _ancestor(spans, idx, (_EVAL,)):
                    add("evaluation.epoch_eval_s", dur)
            if "sizes" in attrs:
                sizes.append(attrs["sizes"])

    def get(key):
        return float(total.get(key, 0.0))

    metrics = {
        "benchgen.generate_s": get("benchgen.generate"),
        "manifest_io.save_s": get("manifest_io.save"),
        "manifest_io.bytes": get("manifest_io.save#bytes"),
        "train.warmup_s": get("train.warmup"),
        "train.netd_epoch_s": get("train.netd_epoch"),
        "train.netd_iters": get("train.netd_iters"),
        "train.nets_epoch_s": get("train.nets_epoch"),
        "train.relabel_s": get("train.relabel"),
        "losses.scan_s": get("losses.scan"),
        "gmm.fit_s": get("gmm.fit"),
        "gmm.fits": get("gmm.fit#n"),
        "gmm.em_iters": get("gmm.em_iters"),
        "gmm.fits_capped": get("gmm.fits_capped"),
        "gmm.split_s": get("gmm.split"),
        "gmm.n_x": statistics.fmean(s[0] for s in sizes) if sizes else 0.0,
        "gmm.n_u": statistics.fmean(s[1] for s in sizes) if sizes else 0.0,
        "gmm.n_o": statistics.fmean(s[2] for s in sizes) if sizes else 0.0,
        "gmm.eval_fit_s": get("gmm.eval_fit_s"),
        "backbone.sgd_steps": float(len(steps_us)),
        "backbone.step_us": statistics.median(steps_us) if steps_us else 0.0,
        "backbone.forward_s": get("backbone.forward"),
        "backbone.checkpoint_s": get("backbone.checkpoint"),
        "autodiff.backward_s": get("autodiff.backward"),
        "evaluation.epoch_eval_s": get("evaluation.epoch_eval_s"),
        "evaluation.export_s": get("evaluation.export"),
        "evaluation.export_bytes": get("evaluation.export#bytes"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
    metrics["trace.spans"] = float(n_spans)
    metrics["gmm.em_faults"] = float(em_faults)
    return metrics
