"""Measurement and export harness.

Quantifies a trained classifier (test accuracy, best/last trajectory) and
the noise classifier (three-way split vs ground-truth provenance), and
writes plain comma-separated exports — loss histograms by provenance,
penultimate-layer features, per-sample posterior triples — for external
plotting.  Everything here is a pure reader: deterministic, no mutation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .backbone import ModelParams, forward_logits, hidden_features, softmax_probs
from .benchgen import DatasetManifest, Provenance
from .gmm import PosteriorSplit

#: provenance index order used by every 3x3 matrix in this module
GROUP_ORDER = (Provenance.CLEAN, Provenance.CLOSED, Provenance.OPEN)
GROUP_NAMES = ("clean", "closed", "open")

#: maps argmax over (w, w_op, w_cl) to a Provenance value; the column order
#: (clean first, then open, then closed) makes numpy's first-max tie rule
#: implement the clean > open > closed priority.
_ARGMAX_TO_PROVENANCE = np.array(
    [int(Provenance.CLEAN), int(Provenance.OPEN), int(Provenance.CLOSED)]
)


def predicted_groups(split: PosteriorSplit) -> np.ndarray:
    """Max-posterior group per sample, as Provenance integer values."""
    return _ARGMAX_TO_PROVENANCE[np.argmax(split.triples(), axis=1)]


@dataclass
class SplitConfusion:
    """Provenance-vs-predicted-group tallies with derived rates.

    ``matrix[i, j]`` counts samples whose true provenance is ``GROUP_ORDER[i]``
    and whose predicted group is ``GROUP_ORDER[j]``.  Balanced accuracy is
    the mean recall over the provenance groups actually present.
    """

    matrix: np.ndarray
    precision: np.ndarray = field(init=False)
    recall: np.ndarray = field(init=False)
    balanced_accuracy: float = field(init=False)

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.int64)
        if m.shape != (3, 3) or np.any(m < 0):
            raise ValueError(f"confusion matrix must be 3x3 non-negative, got {m}")
        self.matrix = m
        row = m.sum(axis=1)
        col = m.sum(axis=0)
        diag = np.diag(m).astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            self.recall = np.where(row > 0, diag / np.maximum(row, 1), np.nan)
            self.precision = np.where(col > 0, diag / np.maximum(col, 1), np.nan)
        present = row > 0
        if not np.any(present):
            raise ValueError("confusion matrix is empty")
        self.balanced_accuracy = float(self.recall[present].mean())


def split_confusion(split: PosteriorSplit, manifest: DatasetManifest) -> SplitConfusion:
    """Tally predicted noise groups against ground-truth provenance."""
    if len(split) != len(manifest):
        raise ValueError(
            f"split has {len(split)} rows, manifest has {len(manifest)} samples"
        )
    pred = predicted_groups(split)
    true = manifest.provenance.astype(np.int64)
    index_of = {int(p): i for i, p in enumerate(GROUP_ORDER)}
    matrix = np.zeros((3, 3), dtype=np.int64)
    for t, p in zip(true, pred):
        matrix[index_of[int(t)], index_of[int(p)]] += 1
    return SplitConfusion(matrix=matrix)


def test_accuracy(model: ModelParams, test_manifest: DatasetManifest) -> float:
    """Fraction of test samples whose argmax prediction hits the true class."""
    if len(test_manifest) == 0:
        raise ValueError("test set is empty")
    if np.any(test_manifest.provenance != Provenance.CLEAN):
        raise ValueError("test set must be all-clean")
    logits = forward_logits(model, test_manifest.features)
    pred = np.argmax(softmax_probs(logits), axis=1)
    return float(np.mean(pred == test_manifest.true_class))


@dataclass
class AccuracyReport:
    """Per-epoch test accuracies with their best and final values."""

    per_epoch: list[float]

    @property
    def best(self) -> float:
        if not self.per_epoch:
            raise ValueError("no epochs recorded")
        return max(self.per_epoch)

    @property
    def last(self) -> float:
        if not self.per_epoch:
            raise ValueError("no epochs recorded")
        return self.per_epoch[-1]

    @property
    def gap(self) -> float:
        """best − last: how much the run decayed from its peak."""
        return self.best - self.last


# -- comma-separated exports -------------------------------------------


def export_loss_histogram(losses: np.ndarray, provenance: np.ndarray,
                          bins: int, path: str | os.PathLike) -> None:
    """Per-provenance histogram of normalized losses over uniform [0,1] bins.

    One row per bin: ``bin_lo,bin_hi,clean,closed,open``.  Each provenance
    column sums to that provenance's population.
    """
    if bins < 2:
        raise ValueError(f"bins must be >= 2, got {bins}")
    losses = np.asarray(losses, dtype=np.float64)
    provenance = np.asarray(provenance)
    if losses.shape != provenance.shape:
        raise ValueError("losses and provenance must align")
    edges = np.linspace(0.0, 1.0, bins + 1)
    counts = []
    for prov in GROUP_ORDER:
        vals = losses[provenance == int(prov)]
        hist, _ = np.histogram(vals, bins=edges)
        counts.append(hist)
    lines = ["bin_lo,bin_hi,clean,closed,open"]
    for b in range(bins):
        row = [repr(float(edges[b])), repr(float(edges[b + 1]))]
        row.extend(str(int(c[b])) for c in counts)
        lines.append(",".join(row))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def export_features(model: ModelParams, manifest: DatasetManifest,
                    path: str | os.PathLike) -> None:
    """One row per sample: id, provenance, penultimate activation vector."""
    feats = hidden_features(model, manifest.features)
    width = feats.shape[1]
    header = "id,provenance," + ",".join(f"h{j}" for j in range(width))
    lines = [header]
    # tolist() yields Python floats, whose repr is the exported text
    for i, (prov, values) in enumerate(zip(manifest.provenance.tolist(), feats)):
        lines.append(",".join([str(i), str(prov), *map(repr, values.tolist())]))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def export_posteriors(losses: np.ndarray, split: PosteriorSplit,
                      provenance: np.ndarray, path: str | os.PathLike) -> None:
    """One row per sample: normalized loss, posterior triple, provenance."""
    losses = np.asarray(losses, dtype=np.float64)
    if not (len(losses) == len(split) == len(provenance)):
        raise ValueError("losses, split, and provenance must align")
    lines = ["loss,w,w_op,w_cl,provenance"]
    for i in range(len(split)):
        lines.append(",".join([
            repr(float(losses[i])),
            repr(float(split.w[i])),
            repr(float(split.w_op[i])),
            repr(float(split.w_cl[i])),
            str(int(provenance[i])),
        ]))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
