"""Binary serialization: dataset manifests and model checkpoints.

Both formats share one frame:

* one ASCII header line ``<MAGIC> key=value key=value ...\\n`` whose keys are
  exactly the format's keys, in order; no value is empty or holds whitespace;
* a binary body;
* a trailing little-endian u64 holding the byte length of everything before
  it (header + body).  A truncated or padded file fails this check.

A manifest (``.edm``) has magic ``EDMv1`` and keys
``n d classes rho omega open_source flip seed``; its body is ``n`` packed
little-endian records, each
``id:u32  provenance:u8  true_class:i32  observed:i32  features:f32[d]``.
The provenance byte is the tag the record's labels give (it is derived,
see ``DatasetManifest.provenance``).  Rates are written with ``repr`` so
float round-trips are exact.  ``flip`` is always ``UNIFORM_EXCLUDING_TRUE``.

A checkpoint has magic ``EDMCKPT1`` and keys ``role arch`` (the role tag and
the comma-separated layer widths); its body is the model's parameter
buffer (:attr:`~edmlab.backbone.ModelParams.buffer`) as little-endian
float32.  Parameters come back as float32, the dtype a network trains in
(:data:`~edmlab.backbone.PARAM_DTYPE`), so a loaded checkpoint is exactly
the network that was saved, and a repeated deterministic run reproduces
checkpoint files byte for byte.

Errors are reported distinctly: :class:`~edmlab.errors.ChecksumError` for a
bad or missing trailer, :class:`~edmlab.errors.DimensionError` when the body
does not match the sizes the header declares, and
:class:`~edmlab.errors.FormatError` for a malformed header (any other flip
rule, architecture or role tag, or a noise rate outside [0, 1], included)
or inconsistent body contents (a NaN or infinite value, or a provenance byte
that disagrees with its record's labels).
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .backbone import ModelParams, param_count
from .benchgen import (FLIP_UNIFORM_EXCLUDING_TRUE, NO_CLASS, DatasetManifest,
                       NoiseSpec)
from .errors import ChecksumError, DimensionError, FormatError

MAGIC = "EDMv1"
CKPT_MAGIC = "EDMCKPT1"

_HEADER_KEYS = ("n", "d", "classes", "rho", "omega", "open_source", "flip", "seed")
_CKPT_KEYS = ("role", "arch")

#: the length trailer that ends every file
_TRAILER = struct.Struct("<Q")


def _write_framed(path: str | os.PathLike, magic: str, fields: dict,
                  body: bytes) -> None:
    """Write the header line, ``body`` and the length trailer."""
    parts = [magic]
    for key, value in fields.items():
        text = str(value)
        if not text or any(ch.isspace() for ch in text):
            raise ValueError(f"header value {key}={text!r} must be non-empty "
                             f"and contain no whitespace")
        parts.append(f"{key}={text}")
    payload = (" ".join(parts) + "\n").encode("ascii") + body
    with open(path, "wb") as fh:
        fh.write(payload)
        fh.write(_TRAILER.pack(len(payload)))


def _read_framed(path: str | os.PathLike, magic: str, keys: tuple[str, ...]
                 ) -> tuple[dict[str, str], bytes]:
    """Check the trailer and the header; return the header fields and body."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _TRAILER.size:
        raise ChecksumError(f"file too short to hold a checksum ({len(blob)} bytes)")
    payload = blob[:-_TRAILER.size]
    (stored_len,) = _TRAILER.unpack(blob[-_TRAILER.size:])
    if stored_len != len(payload):
        raise ChecksumError(
            f"length checksum mismatch: header+body span {len(payload)} bytes, "
            f"trailer claims {stored_len}"
        )

    head, newline, body = payload.partition(b"\n")
    if not newline:
        raise FormatError("no header line found")
    try:
        parts = head.decode("ascii").split(" ")
    except UnicodeDecodeError as exc:
        raise FormatError(f"header is not ASCII: {exc}") from None
    if parts[0] != magic:
        raise FormatError(f"bad magic string: expected {magic!r}, got {parts[0]!r}")
    pairs = [part.partition("=") for part in parts[1:]]
    for key, sep, _ in pairs:
        if not sep:
            raise FormatError(f"malformed header field: {key!r}")
    names = [key for key, _, _ in pairs]
    if names != list(keys):
        raise FormatError(f"header fields {names} are not {list(keys)}")
    return {key: value for key, _, value in pairs}, body


def _record_dtype(d: int) -> np.dtype:
    return np.dtype(
        [
            ("id", "<u4"),
            ("prov", "u1"),
            ("true", "<i4"),
            ("obs", "<i4"),
            ("feat", "<f4", (d,)),
        ]
    )


def save_manifest(m: DatasetManifest, path: str | os.PathLike) -> None:
    """Write a manifest; the result reloads bit-identically.  A non-finite
    feature, which the loader rejects, is a ValueError before the file opens."""
    if not np.all(np.isfinite(m.features)):
        raise ValueError("non-finite feature value in a record")
    n = len(m)
    records = np.zeros(n, dtype=_record_dtype(m.feature_dim))
    records["id"] = np.arange(n, dtype=np.uint32)
    records["prov"] = m.provenance
    records["true"] = m.true_class
    records["obs"] = m.observed
    records["feat"] = m.features

    spec = m.noise_spec
    fields = {
        "n": n,
        "d": m.feature_dim,
        "classes": m.num_classes,
        "rho": repr(float(spec.rho)),
        "omega": repr(float(spec.omega)),
        "open_source": spec.open_source,
        "flip": FLIP_UNIFORM_EXCLUDING_TRUE,
        "seed": int(spec.seed),
    }
    _write_framed(path, MAGIC, fields, records.tobytes())


def load_manifest(path: str | os.PathLike) -> DatasetManifest:
    """Read a manifest, validating checksum, sizes, and record consistency."""
    fields, body = _read_framed(path, MAGIC, _HEADER_KEYS)
    if fields["flip"] != FLIP_UNIFORM_EXCLUDING_TRUE:
        raise FormatError(f"unsupported flip rule {fields['flip']!r}")
    try:
        n, d, k = int(fields["n"]), int(fields["d"]), int(fields["classes"])
        spec = NoiseSpec(rho=float(fields["rho"]), omega=float(fields["omega"]),
                         open_source=fields["open_source"],
                         seed=int(fields["seed"]))
    except ValueError as exc:
        raise FormatError(f"bad header value: {exc}") from None
    if n < 0 or d < 1 or k < 1:
        raise FormatError(f"implausible header sizes: n={n} d={d} classes={k}")

    dtype = _record_dtype(d)
    expected = n * dtype.itemsize
    if len(body) != expected:
        raise DimensionError(
            f"record body is {len(body)} bytes, expected {expected} for n={n}, d={d}"
        )
    records = np.frombuffer(body, dtype=dtype)

    if n > 0:
        if not np.array_equal(records["id"], np.arange(n, dtype=np.uint32)):
            raise FormatError("record ids are not the dense sequence 0..n-1")
        if np.any((records["obs"] < 0) | (records["obs"] >= k)):
            raise FormatError("observed class index outside [0, classes)")
        bad_true = (records["true"] != NO_CLASS) & (
            (records["true"] < 0) | (records["true"] >= k)
        )
        if np.any(bad_true):
            raise FormatError("true class index outside [0, classes) and not NONE")
        if not np.all(np.isfinite(records["feat"])):
            raise FormatError("non-finite feature value in a record")

    manifest = DatasetManifest(
        features=records["feat"].reshape(n, d).copy(),
        observed=records["obs"].astype(np.int32),
        true_class=records["true"].astype(np.int32),
        num_classes=k,
        noise_spec=spec,
    )
    if not np.array_equal(records["prov"], manifest.provenance):
        raise FormatError("record provenance tag disagrees with its labels")
    return manifest


def save_checkpoint(params: ModelParams, path: str | os.PathLike) -> None:
    """Write parameters as float32 with a header and length checksum."""
    fields = {"role": params.role, "arch": ",".join(map(str, params.widths))}
    _write_framed(path, CKPT_MAGIC, fields, params.buffer.astype("<f4").tobytes())


def load_checkpoint(path: str | os.PathLike) -> ModelParams:
    """Read a checkpoint; parameters come back as a float32 copy."""
    fields, body = _read_framed(path, CKPT_MAGIC, _CKPT_KEYS)
    try:
        widths = tuple(int(w) for w in fields["arch"].split(","))
        size = param_count(widths)
    except ValueError as exc:
        raise FormatError(f"implausible architecture {fields['arch']!r}: {exc}"
                          ) from None
    if len(body) != 4 * size:
        raise DimensionError(
            f"parameter body is {len(body)} bytes, expected {4 * size} "
            f"for architecture {widths}"
        )
    try:
        return ModelParams(widths, np.frombuffer(body, dtype="<f4"), fields["role"])
    except ValueError as exc:
        raise FormatError(f"bad checkpoint: {exc}") from None
