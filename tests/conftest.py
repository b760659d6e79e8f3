"""Shared helpers for the test suite."""

import struct

import numpy as np

from edmlab.backbone import ModelParams, backward, init_model, param_tensors


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


def float64_model(widths, seed, role="NetD"):
    """``init_model``'s network with its parameters widened to float64.

    The finite-difference checks build their networks here: their bounds
    need float64 arithmetic, and a float64 network runs the same forward and
    backward code that training runs in float32.
    """
    model = init_model(widths, seed, role)
    return ModelParams(model.widths, model.buffer.astype(np.float64), model.role)


def flat_gradient(model, acts, d_logits):
    """The gradient ``backward`` writes for one forward pass of ``model``,
    in a fresh flat array laid out like its buffer."""
    flat = np.empty_like(model.buffer)
    backward(param_tensors(model), acts, d_logits, model.layout(flat))
    return flat


def make_model(weights, biases, role="NetD"):
    """A ``ModelParams`` holding these per-layer arrays, widths read off the
    weights' shapes."""
    widths = (len(weights[0]),) + tuple(np.shape(w)[1] for w in weights)
    layers = [np.ravel(a) for pair in zip(weights, biases) for a in pair]
    return ModelParams(widths, np.concatenate(layers), role)


def reframe(blob, header):
    """The file ``blob`` with a new header line and a length trailer that
    matches it."""
    payload = header + blob[blob.index(b"\n"):-8]
    return payload + struct.pack("<Q", len(payload))
