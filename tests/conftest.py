"""Shared helpers for the test suite."""

import numpy as np

from edmlab.backbone import ModelParams


def central_diff_at(f, arrays, coords, h=1e-4):
    """Central finite-difference derivatives of scalar ``f`` at chosen coords.

    ``arrays`` are mutated in place around each evaluation and restored.
    ``coords`` is a list of (array_index, flat_index) pairs; one derivative
    is returned per pair.
    """
    out = []
    for ai, fi in coords:
        flat = arrays[ai].reshape(-1)
        orig = flat[fi]
        flat[fi] = orig + h
        up = f()
        flat[fi] = orig - h
        down = f()
        flat[fi] = orig
        out.append((up - down) / (2.0 * h))
    return np.asarray(out)


def rel_err(a, b, floor=1e-4):
    """Relative error with a floor on the denominator for near-zero pairs."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.abs(a - b) / denom


def make_model(weights, biases, role="NetD"):
    """A ``ModelParams`` holding these per-layer arrays, widths read off the
    weights' shapes."""
    widths = (len(weights[0]),) + tuple(np.shape(w)[1] for w in weights)
    layers = [np.ravel(a) for pair in zip(weights, biases) for a in pair]
    return ModelParams(widths, np.concatenate(layers), role)
