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

Each export states its row as one ``%`` format string.  The loss histogram
and the posteriors are float64 and write each float as its ``repr``, the
shortest text that parses back to it.  ``features.csv`` holds the network's
float32 activations at 9 significant digits (``%.9g``), float32's
round-trip precision: parsing a value to float64 and rounding it to float32
gives back the activation bit for bit, and ``edmlab eval`` of a run's
``netd_last.ckpt`` rewrites the run's file byte for byte.

Turning floats into text is most of an export's time, so
:func:`export_features` and :func:`export_posteriors` split it between two
processes when their table spans two or more slices: a forked worker
formats the second half of the slices into an unnamed temporary file beside
the export while this process writes the header and the first half, then
appends the worker's bytes.  Each process streams its rows, and the file's
bytes are the same as one process writes, which it does where it cannot
fork.
"""

from __future__ import annotations

import os
import shutil
import signal
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from io import TextIOWrapper

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


#: exit status of an export worker whose failure was an ``OSError``, which
#: its parent raises again as one
_WORKER_OS_ERROR = 3


def _write_rows(fh, rows, blocks) -> None:
    """Write the finished lines that ``rows(block)`` yields, for each of
    ``blocks`` in turn."""
    for block in blocks:
        fh.writelines(rows(block))


def _fork_writer(rows, blocks, directory: str):
    """Fork a worker that writes ``blocks``' rows into a new unnamed
    temporary file in ``directory``.

    Returns the worker's pid and the file, or ``None`` where this platform
    or the system cannot fork.  The worker ends through ``os._exit``: with
    0, or after printing its traceback to stderr with a non-zero status
    (``_WORKER_OS_ERROR`` for an ``OSError``).  SIGINT and SIGTERM end it
    at once, with no traceback: an interrupt is its parent's to report.
    """
    if not hasattr(os, "fork"):
        return None
    tail = tempfile.TemporaryFile(dir=directory)
    try:
        pid = os.fork()
    except OSError:
        tail.close()
        return None
    if pid == 0:
        status = 1
        try:
            signal.signal(signal.SIGINT, signal.SIG_DFL)
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            with TextIOWrapper(tail, encoding="ascii") as fh:
                _write_rows(fh, rows, blocks)
            status = 0
        except BaseException as exc:
            traceback.print_exc()
            sys.stderr.flush()
            if isinstance(exc, OSError):
                status = _WORKER_OS_ERROR
        finally:
            os._exit(status)
    return pid, tail


def _write_csv(path: str | os.PathLike, header: str, rows, blocks) -> None:
    """Write ``header``, then the finished lines that ``rows(block)`` yields
    for each of ``blocks`` in turn, as ASCII.

    Lines go to the open file as they are formatted, so the table is never
    held whole.  With two or more blocks, a forked worker (see
    :func:`_fork_writer`) writes the second half of them while this process
    writes the first; once it is reaped its bytes are appended.  A failed
    worker raises here, naming its exit status; if this process fails
    first, the worker is killed.  Either way no worker outlives the call.
    """
    cut = len(blocks) // 2
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        worker = None
        if cut:
            worker = _fork_writer(rows, blocks[cut:],
                                  os.path.dirname(os.path.abspath(path)))
        if worker is None:
            _write_rows(fh, rows, blocks)
            return
        pid, tail = worker
        with tail:
            try:
                _write_rows(fh, rows, blocks[:cut])
            except BaseException:
                os.kill(pid, signal.SIGKILL)
                raise
            finally:
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code:
                kind = OSError if code == _WORKER_OS_ERROR else RuntimeError
                raise kind(f"the worker formatting the second half of {path} "
                           f"exited with status {code}")
            fh.flush()
            tail.seek(0)
            shutil.copyfileobj(tail, fh.buffer)


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
    lines = ["%r,%r,%d,%d,%d\n" % row for row in
             zip(edges[:-1], edges[1:], *(c.tolist() for c in counts))]
    _write_csv(path, "bin_lo,bin_hi,clean,closed,open",
               lambda block: lines[block], [slice(0, bins)])


def export_features(model: ModelParams, manifest: DatasetManifest,
                    path: str | os.PathLike) -> None:
    """One row per sample: id, provenance, penultimate activation vector.

    Each activation is written to 9 significant digits, float32's round-trip
    precision, so its text parses back to the exact float32 the network
    computed.
    """
    provenance = manifest.provenance
    width = model.widths[-2]
    row = "%d,%d" + ",%.9g" * width + "\n"

    def rows(block: slice):
        feats = hidden_features(model, manifest.features[block])
        ids = range(block.start, block.start + len(feats))
        for i, prov, values in zip(ids, provenance[block].tolist(), feats):
            yield row % (i, prov, *values.tolist())

    # a chunk's rows are a generator of their own, so its activations are
    # freed before the next chunk's are computed
    _write_csv(path, "id,provenance," + ",".join(f"h{j}" for j in range(width)),
               rows, list(chunks(len(manifest))))


def export_posteriors(losses: np.ndarray, split: PosteriorSplit,
                      provenance: np.ndarray, path: str | os.PathLike) -> None:
    """One row per sample: normalized loss, posterior triple, provenance."""
    losses = np.asarray(losses, dtype=np.float64)
    provenance = np.asarray(provenance)
    if not (len(losses) == len(split) == len(provenance)):
        raise ValueError("losses, split, and provenance must align")
    columns = (losses, split.w, split.w_op, split.w_cl)

    def rows(block: slice):
        return ("%r,%r,%r,%r,%d\n" % row for row in
                zip(*(c[block].tolist() for c in columns),
                    provenance[block].tolist()))

    _write_csv(path, "loss,w,w_op,w_cl,provenance", rows,
               list(chunks(len(losses))))
