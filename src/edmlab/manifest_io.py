"""Binary serialization for dataset manifests.

Layout of a ``.edm`` file:

* one ASCII header line:
  ``EDMv1 n=<N> d=<d> classes=<K> rho=<float> omega=<float> open_source=<s> flip=<s> seed=<int>\\n``
* ``N`` packed little-endian records, each
  ``id:u32  provenance:u8  true_class:i32  observed:i32  features:f32[d]``
* a trailing little-endian u64 holding the byte length of everything before
  it (header + records).  A truncated or padded file fails this check.

Rates are written with ``repr`` so float round-trips are exact.  Errors are
reported distinctly: :class:`~edmlab.errors.ChecksumError` for a bad or
missing trailer, :class:`~edmlab.errors.DimensionError` when the record body
does not match the header's n and d, and :class:`~edmlab.errors.FormatError`
for a malformed header or inconsistent record contents (a NaN or infinite
feature included).
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .benchgen import NO_CLASS, DatasetManifest, NoiseSpec, Provenance
from .errors import ChecksumError, DimensionError, FormatError

MAGIC = "EDMv1"

_HEADER_KEYS = ("n", "d", "classes", "rho", "omega", "open_source", "flip", "seed")


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


def _format_header(m: DatasetManifest) -> bytes:
    spec = m.noise_spec
    for name, value in (("open_source", spec.open_source), ("flip", spec.flip_distribution)):
        if not value or any(ch.isspace() for ch in value):
            raise ValueError(f"noise_spec.{name} must be non-empty and contain no whitespace")
    fields = {
        "n": len(m),
        "d": m.feature_dim,
        "classes": m.num_classes,
        "rho": repr(float(spec.rho)),
        "omega": repr(float(spec.omega)),
        "open_source": spec.open_source,
        "flip": spec.flip_distribution,
        "seed": int(spec.seed),
    }
    body = " ".join(f"{k}={fields[k]}" for k in _HEADER_KEYS)
    return f"{MAGIC} {body}\n".encode("ascii")


def save_manifest(m: DatasetManifest, path: str | os.PathLike) -> None:
    """Write a manifest; the result reloads bit-identically."""
    n = len(m)
    records = np.zeros(n, dtype=_record_dtype(m.feature_dim))
    records["id"] = np.arange(n, dtype=np.uint32)
    records["prov"] = m.provenance
    records["true"] = m.true_class
    records["obs"] = m.observed
    records["feat"] = m.features

    payload = _format_header(m) + records.tobytes()
    with open(path, "wb") as fh:
        fh.write(payload)
        fh.write(struct.pack("<Q", len(payload)))


def _parse_header(line: bytes) -> dict:
    try:
        text = line.decode("ascii")
    except UnicodeDecodeError as exc:
        raise FormatError(f"header is not ASCII: {exc}") from None
    parts = text.rstrip("\n").split(" ")
    if not parts or parts[0] != MAGIC:
        raise FormatError(f"bad magic string: expected {MAGIC!r}")
    fields: dict[str, str] = {}
    for part in parts[1:]:
        key, sep, value = part.partition("=")
        if not sep:
            raise FormatError(f"malformed header field: {part!r}")
        fields[key] = value
    missing = [k for k in _HEADER_KEYS if k not in fields]
    if missing:
        raise FormatError(f"header missing fields: {missing}")
    try:
        return {
            "n": int(fields["n"]),
            "d": int(fields["d"]),
            "classes": int(fields["classes"]),
            "rho": float(fields["rho"]),
            "omega": float(fields["omega"]),
            "open_source": fields["open_source"],
            "flip": fields["flip"],
            "seed": int(fields["seed"]),
        }
    except ValueError as exc:
        raise FormatError(f"unparseable header value: {exc}") from None


def load_manifest(path: str | os.PathLike) -> DatasetManifest:
    """Read a manifest, validating checksum, sizes, and record consistency."""
    with open(path, "rb") as fh:
        blob = fh.read()

    if len(blob) < 8:
        raise ChecksumError(f"file too short to hold a checksum ({len(blob)} bytes)")
    payload, trailer = blob[:-8], blob[-8:]
    (stored_len,) = struct.unpack("<Q", trailer)
    if stored_len != len(payload):
        raise ChecksumError(
            f"length checksum mismatch: header+records span {len(payload)} bytes, "
            f"trailer claims {stored_len}"
        )

    newline = payload.find(b"\n")
    if newline < 0:
        raise FormatError("no header line found")
    header = _parse_header(payload[: newline + 1])
    n, d, k = header["n"], header["d"], header["classes"]
    if n < 0 or d < 1 or k < 1:
        raise FormatError(f"implausible header sizes: n={n} d={d} classes={k}")

    body = payload[newline + 1 :]
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
        if not np.all(np.isin(records["prov"], [int(p) for p in Provenance])):
            raise FormatError("record provenance tag outside the known set")
        if np.any((records["obs"] < 0) | (records["obs"] >= k)):
            raise FormatError("observed class index outside [0, classes)")
        bad_true = (records["true"] != NO_CLASS) & (
            (records["true"] < 0) | (records["true"] >= k)
        )
        if np.any(bad_true):
            raise FormatError("true class index outside [0, classes) and not NONE")
        open_mask = records["prov"] == int(Provenance.OPEN)
        if np.any(records["true"][open_mask] != NO_CLASS):
            raise FormatError("open-set record carries an in-set true class")
        if np.any(records["true"][~open_mask] == NO_CLASS):
            raise FormatError("non-open record lacks a true class")
        if not np.all(np.isfinite(records["feat"])):
            raise FormatError("non-finite feature value in a record")

    spec = NoiseSpec(
        rho=header["rho"],
        omega=header["omega"],
        open_source=header["open_source"],
        flip_distribution=header["flip"],
        seed=header["seed"],
    )
    return DatasetManifest(
        features=records["feat"].reshape(n, d).copy(),
        observed=records["obs"].astype(np.int32),
        true_class=records["true"].astype(np.int32),
        provenance=records["prov"].astype(np.uint8),
        num_classes=k,
        noise_spec=spec,
    )
