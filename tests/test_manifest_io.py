"""Tests for binary manifest serialization: round trips and error reporting."""

import struct

import numpy as np
import pytest

from edmlab.benchgen import DatasetManifest, NoiseSpec, Provenance, inject_noise, \
    make_open_pool, make_synthetic_clean
from edmlab.errors import ChecksumError, DimensionError, FormatError
from edmlab.manifest_io import load_manifest, save_manifest


def _noisy_manifest():
    clean = make_synthetic_clean(num_classes=4, per_class=25, feature_dim=6,
                                 cluster_spread=0.5, seed=2)
    pool = make_open_pool(2, 40, 6, 0.5, 8.0, seed=3)
    return inject_noise(clean, pool, NoiseSpec(rho=0.6, omega=0.5, seed=4))


class TestRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        """Save then load reproduces the manifest exactly, floats included."""
        m = _noisy_manifest()
        path = tmp_path / "data.edm"
        save_manifest(m, path)
        loaded = load_manifest(path)
        assert loaded == m
        assert loaded.features.dtype == np.float32
        np.testing.assert_array_equal(loaded.features, m.features)

    def test_saved_twice_is_byte_identical(self, tmp_path):
        m = _noisy_manifest()
        p1, p2 = tmp_path / "a.edm", tmp_path / "b.edm"
        save_manifest(m, p1)
        save_manifest(m, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_dataset_round_trips(self, tmp_path):
        m = DatasetManifest(
            features=np.zeros((0, 3), np.float32),
            observed=np.zeros(0, np.int32),
            true_class=np.zeros(0, np.int32),
            provenance=np.zeros(0, np.uint8),
            num_classes=2,
            noise_spec=NoiseSpec(rho=0.0, omega=0.0, seed=0),
        )
        path = tmp_path / "empty.edm"
        save_manifest(m, path)
        loaded = load_manifest(path)
        assert len(loaded) == 0
        assert loaded.feature_dim == 3
        assert loaded == m

    def test_rate_floats_survive_exactly(self, tmp_path):
        clean = make_synthetic_clean(3, 10, 4, 0.5, seed=0)
        spec = NoiseSpec(rho=0.1, omega=1 / 3, seed=5)
        m = inject_noise(clean, np.zeros((0, 4), np.float32),
                         NoiseSpec(rho=0.0, omega=0.0, seed=0))
        m.noise_spec = spec
        path = tmp_path / "rates.edm"
        save_manifest(m, path)
        loaded = load_manifest(path)
        assert loaded.noise_spec.rho == 0.1
        assert loaded.noise_spec.omega == 1 / 3


class TestErrorReporting:
    def test_truncated_file_fails_checksum(self, tmp_path):
        """Any truncation is caught by the trailing length check."""
        m = _noisy_manifest()
        path = tmp_path / "data.edm"
        save_manifest(m, path)
        blob = path.read_bytes()
        for cut in (1, 7, 40, len(blob) // 2):
            short = tmp_path / f"cut{cut}.edm"
            short.write_bytes(blob[:-cut])
            with pytest.raises(ChecksumError):
                load_manifest(short)

    def test_tiny_file_fails_checksum(self, tmp_path):
        path = tmp_path / "tiny.edm"
        path.write_bytes(b"EDM")
        with pytest.raises(ChecksumError):
            load_manifest(path)

    def test_appended_bytes_fail_checksum(self, tmp_path):
        m = _noisy_manifest()
        path = tmp_path / "data.edm"
        save_manifest(m, path)
        padded = tmp_path / "padded.edm"
        padded.write_bytes(path.read_bytes() + b"\x00" * 16)
        with pytest.raises(ChecksumError):
            load_manifest(padded)

    def test_bad_magic_is_format_error(self, tmp_path):
        m = _noisy_manifest()
        path = tmp_path / "data.edm"
        save_manifest(m, path)
        blob = bytearray(path.read_bytes())
        blob[0:5] = b"XXXv1"  # same length, so the checksum still passes
        bad = tmp_path / "magic.edm"
        bad.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_manifest(bad)

    def test_header_body_mismatch_is_dimension_error(self, tmp_path):
        """An in-place edit of the header's n leaves a wrong-sized body."""
        m = _noisy_manifest()
        path = tmp_path / "data.edm"
        save_manifest(m, path)
        blob = path.read_bytes()
        header_end = blob.index(b"\n")
        header = blob[:header_end].replace(b"n=100", b"n=900")
        assert header != blob[:header_end]
        doctored = header + blob[header_end:]
        bad = tmp_path / "dim.edm"
        bad.write_bytes(doctored)
        with pytest.raises(DimensionError):
            load_manifest(bad)

    def test_missing_header_field_is_format_error(self, tmp_path):
        m = _noisy_manifest()
        path = tmp_path / "data.edm"
        save_manifest(m, path)
        blob = path.read_bytes()
        header_end = blob.index(b"\n")
        header = blob[:header_end].replace(b"seed=", b"sead=")
        payload = header + blob[header_end:-8]
        bad = tmp_path / "field.edm"
        bad.write_bytes(payload + struct.pack("<Q", len(payload)))
        with pytest.raises(FormatError):
            load_manifest(bad)

    def test_sparse_ids_are_format_error(self, tmp_path):
        m = _noisy_manifest()
        path = tmp_path / "data.edm"
        save_manifest(m, path)
        blob = bytearray(path.read_bytes())
        header_len = blob.index(b"\n") + 1
        # overwrite record 0's id field (first 4 bytes of the body)
        blob[header_len:header_len + 4] = struct.pack("<I", 7)
        bad = tmp_path / "ids.edm"
        bad.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_manifest(bad)

    def test_inconsistent_true_class_is_format_error(self, tmp_path):
        """An open-tagged record carrying an in-set true class is rejected."""
        m = _noisy_manifest()
        bad_true = m.true_class.copy()
        open_ids = np.flatnonzero(m.provenance == Provenance.OPEN)
        bad_true[open_ids[0]] = 0
        broken = DatasetManifest(
            features=m.features, observed=m.observed, true_class=bad_true,
            provenance=m.provenance, num_classes=m.num_classes,
            noise_spec=m.noise_spec,
        )
        path = tmp_path / "broken.edm"
        save_manifest(broken, path)
        with pytest.raises(FormatError):
            load_manifest(path)

    def test_observed_out_of_range_is_format_error(self, tmp_path):
        m = _noisy_manifest()
        bad_obs = m.observed.copy()
        bad_obs[0] = 99
        broken = DatasetManifest(
            features=m.features, observed=bad_obs, true_class=m.true_class,
            provenance=m.provenance, num_classes=m.num_classes,
            noise_spec=m.noise_spec,
        )
        path = tmp_path / "obs.edm"
        save_manifest(broken, path)
        with pytest.raises(FormatError):
            load_manifest(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_is_format_error(self, tmp_path, value):
        m = _noisy_manifest()
        path = tmp_path / "data.edm"
        save_manifest(m, path)
        blob = bytearray(path.read_bytes())
        # record 0's first feature follows id:u32, provenance:u8, two i32 classes
        start = blob.index(b"\n") + 1 + 4 + 1 + 4 + 4
        blob[start:start + 4] = struct.pack("<f", value)
        bad = tmp_path / "nan.edm"
        bad.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="non-finite"):
            load_manifest(bad)
