"""Measurement and export harness.

Quantifies a trained classifier (test accuracy; a run's best and last are
``train.TrainOutcome``'s) and the noise classifier (the X/U/O partition
training uses vs ground-truth provenance), and writes plain comma-separated
exports — loss histograms by provenance, penultimate-layer features,
per-sample posterior triples — for external plotting.  Everything here is
a pure reader: deterministic, no mutation.

Memory stays bounded on large manifests: :func:`test_accuracy` and
:func:`export_features` run the network one ``backbone.chunks`` slice at a
time, :func:`export_posteriors` formats its rows slice by slice, and all
three exports (with :func:`export_loss_histogram`) write each row to the
open file as it is formatted instead of building the whole table first.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .backbone import ModelParams, chunks, forward_logits, hidden_features
from .benchgen import DatasetManifest, Provenance
from .gmm import Partition, PosteriorSplit

#: provenance index order used by every 3x3 matrix in this module
GROUP_ORDER = (Provenance.CLEAN, Provenance.CLOSED, Provenance.OPEN)


@dataclass
class SplitConfusion:
    """Provenance-vs-split-set tallies with derived rates.

    ``matrix[i, j]`` counts samples whose true provenance is ``GROUP_ORDER[i]``
    and whose split set is the ``j``-th of X, U, O (predicted clean, closed,
    open).  Balanced accuracy is the mean recall over the provenance groups
    actually present.
    """

    matrix: np.ndarray
    recall: np.ndarray = field(init=False)
    balanced_accuracy: float = field(init=False)

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.int64)
        if m.shape != (3, 3) or np.any(m < 0):
            raise ValueError(f"confusion matrix must be 3x3 non-negative, got {m}")
        self.matrix = m
        row = m.sum(axis=1)
        diag = np.diag(m).astype(np.float64)
        self.recall = np.where(row > 0, diag / np.maximum(row, 1), np.nan)
        present = row > 0
        if not np.any(present):
            raise ValueError("confusion matrix is empty")
        self.balanced_accuracy = float(self.recall[present].mean())


def split_confusion(part: Partition, manifest: DatasetManifest) -> SplitConfusion:
    """Tally the three-way split training uses against ground-truth provenance."""
    sizes = part.sizes()
    if sum(sizes) != len(manifest):
        raise ValueError(
            f"split has {sum(sizes)} samples, manifest has {len(manifest)}"
        )
    rows = np.concatenate([part.x_idx, part.u_idx, part.o_idx])
    # provenance values are GROUP_ORDER indices; X, U, O are its columns
    cells = (3 * manifest.provenance[rows].astype(np.int64)
             + np.repeat(np.arange(3), sizes))
    return SplitConfusion(matrix=np.bincount(cells, minlength=9).reshape(3, 3))


def test_accuracy(model: ModelParams, test_manifest: DatasetManifest) -> float:
    """Fraction of test samples whose argmax prediction hits the true class."""
    if len(test_manifest) == 0:
        raise ValueError("test set is empty")
    if np.any(test_manifest.provenance != Provenance.CLEAN):
        raise ValueError("test set must be all-clean")
    hits = 0
    for block in chunks(len(test_manifest)):
        logits = forward_logits(model, test_manifest.features[block])
        hits += int(np.count_nonzero(
            np.argmax(logits, axis=1) == test_manifest.true_class[block]))
    return hits / len(test_manifest)


# -- comma-separated exports -------------------------------------------


def _write_csv(path: str | os.PathLike, header: str, rows) -> None:
    """Write ``header``, then one line per row of string fields, as ASCII.

    ``rows`` may be a generator: lines go to the open file as they come, so
    the table is never held whole.
    """
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


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
    edges = np.linspace(0.0, 1.0, bins + 1).tolist()
    counts = [np.histogram(losses[provenance == int(prov)], bins=edges)[0]
              for prov in GROUP_ORDER]
    _write_csv(path, "bin_lo,bin_hi,clean,closed,open",
               ([repr(edges[b]), repr(edges[b + 1]),
                 *(str(int(c[b])) for c in counts)] for b in range(bins)))


def export_features(model: ModelParams, manifest: DatasetManifest,
                    path: str | os.PathLike) -> None:
    """One row per sample: id, provenance, penultimate activation vector."""
    provenance = manifest.provenance

    def rows(block: slice):
        feats = hidden_features(model, manifest.features[block])
        ids = range(block.start, block.start + len(feats))
        for i, prov, values in zip(ids, provenance[block].tolist(), feats):
            # tolist() yields Python floats, whose repr is the exported text
            yield [str(i), str(prov), *map(repr, values.tolist())]

    # a chunk's rows are a generator of their own, so its activations are
    # freed before the next chunk's are computed
    width = model.widths[-2]
    _write_csv(path, "id,provenance," + ",".join(f"h{j}" for j in range(width)),
               chain.from_iterable(map(rows, chunks(len(manifest)))))


def export_posteriors(losses: np.ndarray, split: PosteriorSplit,
                      provenance: np.ndarray, path: str | os.PathLike) -> None:
    """One row per sample: normalized loss, posterior triple, provenance."""
    losses = np.asarray(losses, dtype=np.float64)
    provenance = np.asarray(provenance)
    if not (len(losses) == len(split) == len(provenance)):
        raise ValueError("losses, split, and provenance must align")
    columns = (losses, split.w, split.w_op, split.w_cl)

    def rows(block: slice):
        return zip(*(map(repr, c[block].tolist()) for c in columns),
                   map(str, provenance[block].tolist()))

    _write_csv(path, "loss,w,w_op,w_cl,provenance",
               chain.from_iterable(map(rows, chunks(len(losses)))))
