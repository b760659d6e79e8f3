"""Tests for binary manifests and checkpoints: exact bytes, round trips, errors."""

import struct

import numpy as np
import pytest
from conftest import make_model

from edmlab.backbone import init_model
from edmlab.benchgen import DatasetManifest, NoiseSpec, Provenance, inject_noise, \
    make_open_pool, make_synthetic_clean
from edmlab.cli import EXIT_DATA, main
from edmlab.errors import ChecksumError, DimensionError, FormatError
from edmlab.manifest_io import load_checkpoint, load_manifest, save_checkpoint, \
    save_manifest


def _noisy_manifest():
    clean = make_synthetic_clean(num_classes=4, per_class=25, feature_dim=6,
                                 cluster_spread=0.5, seed=2)
    pool = make_open_pool(2, 40, 6, 0.5, 8.0, seed=3)
    return inject_noise(clean, pool, NoiseSpec(rho=0.6, omega=0.5, seed=4))


def _reframe(blob, header):
    """``blob`` with a new header line and a trailer that matches it."""
    payload = header + blob[blob.index(b"\n"):-8]
    return payload + struct.pack("<Q", len(payload))


def _edit_header(edit):
    return lambda blob: _reframe(blob, edit(blob[:blob.index(b"\n")]))


def _retagged(m, tmp_path, record, tag):
    """``m`` saved, then record ``record``'s provenance byte set to ``tag``.

    The byte follows the header line and the record's id:u32; the file's
    length, and so its trailer, is unchanged.
    """
    path = tmp_path / "retagged.edm"
    save_manifest(m, path)
    blob = bytearray(path.read_bytes())
    size = 4 + 1 + 4 + 4 + 4 * m.feature_dim
    blob[blob.index(b"\n") + 1 + record * size + 4] = tag
    path.write_bytes(bytes(blob))
    return path


class TestOnDiskBytes:
    def test_manifest_bytes(self, tmp_path):
        m = DatasetManifest(
            features=np.array([[0.5, -1.0], [2.0, 0.25]], np.float32),
            observed=np.array([0, 1], np.int32),
            true_class=np.array([0, -1], np.int32),
            num_classes=2,
            noise_spec=NoiseSpec(rho=0.5, omega=0.0, seed=7),
        )
        header = (b"EDMv1 n=2 d=2 classes=2 rho=0.5 omega=0.0 "
                  b"open_source=synthetic-pool flip=UNIFORM_EXCLUDING_TRUE seed=7\n")
        records = (struct.pack("<IBii2f", 0, 0, 0, 0, 0.5, -1.0)
                   + struct.pack("<IBii2f", 1, 2, -1, 1, 2.0, 0.25))
        payload = header + records
        path = tmp_path / "two.edm"
        save_manifest(m, path)
        assert path.read_bytes() == payload + struct.pack("<Q", len(payload))

    def test_checkpoint_bytes(self, tmp_path):
        params = make_model([np.array([[0.5], [-1.25]])], [np.array([2.0])],
                            role="NetS")
        payload = b"EDMCKPT1 role=NetS arch=2,1\n" + struct.pack("<3f", 0.5, -1.25, 2.0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, path)
        assert path.read_bytes() == payload + struct.pack("<Q", len(payload))

    @pytest.mark.parametrize("source", ["two words", ""], ids=["spaced", "empty"])
    def test_empty_or_spaced_header_value_rejected(self, tmp_path, source):
        m = _noisy_manifest()
        m.noise_spec = NoiseSpec(rho=0.6, omega=0.5, open_source=source)
        with pytest.raises(ValueError, match="open_source"):
            save_manifest(m, tmp_path / "bad.edm")


_FORMATS = {
    "manifest": (lambda path: save_manifest(_noisy_manifest(), path), load_manifest),
    "checkpoint": (lambda path: save_checkpoint(init_model((6, 16, 4), seed=5), path),
                   load_checkpoint),
}

_FRAME_CASES = [
    pytest.param(lambda blob: blob[:3], ChecksumError, "too short", id="tiny"),
    pytest.param(lambda blob: blob[:-1], ChecksumError, "mismatch", id="truncated-1"),
    pytest.param(lambda blob: blob[:-7], ChecksumError, "mismatch", id="truncated-7"),
    pytest.param(lambda blob: blob[:-40], ChecksumError, "mismatch", id="truncated-40"),
    pytest.param(lambda blob: blob[:-(len(blob) // 2)], ChecksumError, "mismatch",
                 id="truncated-half"),
    pytest.param(lambda blob: blob + b"\x00" * 16, ChecksumError, "mismatch",
                 id="appended-16"),
    pytest.param(_edit_header(lambda h: b"XXXv1" + h[h.index(b" "):]),
                 FormatError, "magic", id="bad-magic"),
    pytest.param(_edit_header(lambda h: h.replace(b"=", b"=\xe9", 1)),
                 FormatError, "ASCII", id="non-ascii"),
    pytest.param(_edit_header(lambda h: h[:h.rindex(b" ")]),
                 FormatError, "header fields", id="missing-key"),
    pytest.param(_edit_header(lambda h: h + b" extra=1"),
                 FormatError, "header fields", id="extra-key"),
    pytest.param(_edit_header(lambda h: h.replace(b"=", b":", 1)),
                 FormatError, "malformed", id="no-equals"),
]


class TestFrameErrors:
    @pytest.mark.parametrize("fmt", sorted(_FORMATS))
    @pytest.mark.parametrize("mutate, error, message", _FRAME_CASES)
    def test_corrupt_frame_rejected(self, tmp_path, fmt, mutate, error, message):
        save, load = _FORMATS[fmt]
        path = tmp_path / "good"
        save(path)
        bad = tmp_path / "bad"
        bad.write_bytes(mutate(path.read_bytes()))
        with pytest.raises(error, match=message):
            load(bad)


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

    def test_missing_header_field_is_format_error(self, tmp_path):
        m = _noisy_manifest()
        path = tmp_path / "data.edm"
        save_manifest(m, path)
        blob = path.read_bytes()
        header = blob[:blob.index(b"\n")].replace(b"seed=", b"sead=")
        bad = tmp_path / "field.edm"
        bad.write_bytes(_reframe(blob, header))
        with pytest.raises(FormatError):
            load_manifest(bad)

    def test_out_of_range_noise_rate_is_format_error(self, tmp_path):
        m = _noisy_manifest()
        path = tmp_path / "data.edm"
        save_manifest(m, path)
        blob = path.read_bytes()
        header = blob[:blob.index(b"\n")].replace(b"rho=0.6", b"rho=1.6")
        bad = tmp_path / "rho.edm"
        bad.write_bytes(_reframe(blob, header))
        with pytest.raises(FormatError, match="rho must be in"):
            load_manifest(bad)
        with pytest.raises(ValueError, match="omega must be in"):
            NoiseSpec(rho=0.5, omega=-2.0)

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

    def test_unknown_flip_rule_is_format_error(self, tmp_path):
        m = _noisy_manifest()
        path = tmp_path / "data.edm"
        save_manifest(m, path)
        blob = path.read_bytes()
        header_end = blob.index(b"\n")
        header = blob[:header_end].replace(b"flip=UNIFORM_EXCLUDING_TRUE",
                                           b"flip=PAIRWISE")
        assert header != blob[:header_end]
        payload = header + blob[header_end:-8]
        bad = tmp_path / "flip.edm"
        bad.write_bytes(payload + struct.pack("<Q", len(payload)))
        with pytest.raises(FormatError, match="PAIRWISE"):
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
        clean = int(np.flatnonzero(m.provenance == Provenance.CLEAN)[0])
        with pytest.raises(FormatError, match="disagrees with its labels"):
            load_manifest(_retagged(m, tmp_path, clean, Provenance.OPEN))

    @pytest.mark.parametrize("stored, tag", [
        (Provenance.CLOSED, Provenance.CLEAN),
        (Provenance.CLEAN, Provenance.CLOSED),
        (Provenance.OPEN, Provenance.CLEAN),
        (Provenance.CLEAN, 3),
    ], ids=["closed-tagged-clean", "clean-tagged-closed", "open-tagged-clean",
            "unknown-tag"])
    def test_tag_disagreeing_with_labels_is_format_error(self, tmp_path,
                                                         stored, tag):
        """The stored provenance byte must be the tag the labels give."""
        m = _noisy_manifest()
        record = int(np.flatnonzero(m.provenance == stored)[0])
        with pytest.raises(FormatError, match="disagrees with its labels"):
            load_manifest(_retagged(m, tmp_path, record, tag))

    def test_observed_out_of_range_is_format_error(self, tmp_path):
        m = _noisy_manifest()
        bad_obs = m.observed.copy()
        bad_obs[0] = 99
        broken = DatasetManifest(
            features=m.features, observed=bad_obs, true_class=m.true_class,
            num_classes=m.num_classes, noise_spec=m.noise_spec,
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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_is_not_saved(self, tmp_path, value):
        """A manifest the loader would reject is refused before its file
        is opened."""
        m = _noisy_manifest()
        m.features[3, 1] = value
        path = tmp_path / "data.edm"
        with pytest.raises(ValueError, match="non-finite"):
            save_manifest(m, path)
        assert not path.exists()


class TestCheckpoints:
    def test_round_trip_preserves_float32_values(self, tmp_path):
        m = init_model((6, 16, 4), seed=5, role="NetS")
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        loaded = load_checkpoint(path)
        assert loaded.widths == m.widths
        assert loaded.role == "NetS"
        for a, b in zip(loaded.flat(), m.flat()):
            np.testing.assert_array_equal(a, b.astype(np.float32).astype(np.float64))

    def test_loaded_network_is_bitwise_the_saved_one(self, tmp_path):
        m = init_model((6, 16, 4), seed=5)
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        loaded = load_checkpoint(path)
        assert loaded.buffer.dtype == np.float32
        assert loaded.buffer.tobytes() == m.buffer.tobytes()

    def test_save_load_save_is_byte_identical(self, tmp_path):
        m = init_model((6, 16, 4), seed=5)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(m, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_arch_body_mismatch_is_dimension_error(self, tmp_path):
        m = init_model((6, 16, 4), seed=5)
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        blob = path.read_bytes()
        header_end = blob.index(b"\n")
        doctored = blob[:header_end].replace(b"arch=6,16,4", b"arch=6,61,4") \
            + blob[header_end:]
        bad = tmp_path / "dim.ckpt"
        bad.write_bytes(doctored)
        with pytest.raises(DimensionError):
            load_checkpoint(bad)

    def test_unknown_role_is_format_error(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_model((6, 16, 4), seed=5), path)
        bad = tmp_path / "role.ckpt"
        bad.write_bytes(_edit_header(lambda h: h.replace(b"role=NetD", b"role=NetX"))(
            path.read_bytes()))
        with pytest.raises(FormatError, match="NetX"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("arch", [b"6", b"6,0,4", b"6,x,4"])
    def test_implausible_architecture_is_format_error(self, tmp_path, capsys, arch):
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_model((6, 16, 4), seed=5), path)
        bad = tmp_path / "arch.ckpt"
        bad.write_bytes(_edit_header(lambda h: h.replace(b"6,16,4", arch))(
            path.read_bytes()))
        with pytest.raises(FormatError, match="implausible architecture"):
            load_checkpoint(bad)
        data = tmp_path / "data.edm"
        save_manifest(_noisy_manifest(), data)
        out = tmp_path / "out"
        assert main(["eval", "--checkpoint", str(bad), "--manifest", str(data),
                     "--test-manifest", str(data), "--out-dir", str(out)]) == EXIT_DATA
        assert "implausible architecture" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_weight_is_format_error(self, tmp_path, value):
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_model((6, 16, 4), seed=5), path)
        blob = bytearray(path.read_bytes())
        start = blob.index(b"\n") + 1
        blob[start:start + 4] = struct.pack("<f", value)
        bad = tmp_path / "nan.ckpt"
        bad.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="non-finite"):
            load_checkpoint(bad)
