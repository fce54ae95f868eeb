import dataclasses
import hashlib
import json
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdlab import cli, data
from kdlab.encoder import EncoderConfig, init_params
from kdlab.errors import (
    ChecksumMismatch,
    FormatVersionMismatch,
    InvalidSpec,
    LabelOutOfRange,
    NonFiniteInput,
)
from kdlab.numerics import seeded_rng
from test_cli import write_manifest

SMALL = data.SyntheticSpec(
    num_classes=4, image_dim=8, text_dim=6, samples_per_class=20,
    noise_sigma=0.2, anchor_scale=1.0, seed=123,
)


class TestSpec:
    def test_invalid_specs(self):
        with pytest.raises(InvalidSpec):
            data.SyntheticSpec(num_classes=1)
        with pytest.raises(InvalidSpec):
            data.SyntheticSpec(image_dim=1)
        with pytest.raises(InvalidSpec):
            data.SyntheticSpec(noise_sigma=-0.1)
        with pytest.raises(InvalidSpec):
            data.SyntheticSpec(samples_per_class=0)

    def test_dict_roundtrip(self, tmp_path):
        # A file's header stores the spec field by field; load_dataset reads
        # it back whole and rejects a header missing a field or adding one.
        ds, fields = data.generate(SMALL), dataclasses.asdict(SMALL)
        arrays = (ds.text_anchors, ds.image_raw, ds.labels)
        path = tmp_path / "ds.bin"
        _write_file(path, 2, {"spec": fields, "probe_accuracy": 1.0}, *arrays)
        assert data.load_dataset(path).spec == SMALL
        missing = {k: v for k, v in fields.items() if k != "seed"}
        for spec in (missing, {**fields, "colour": 1}):
            _write_file(path, 2, {"spec": spec, "probe_accuracy": 1.0}, *arrays)
            with pytest.raises(InvalidSpec):
                data.load_dataset(path)


class TestGenerate:
    def test_shapes_and_label_histogram(self):
        spec = data.SyntheticSpec(num_classes=8, samples_per_class=250, seed=3)
        ds = data.generate(spec)
        assert ds.image_raw.shape == (2000, spec.image_dim)
        assert ds.text_anchors.shape == (8, spec.text_dim)
        counts = np.bincount(ds.labels, minlength=8)
        np.testing.assert_array_equal(counts, 250)

    def test_zero_noise_samples_equal_anchor(self):
        # Without noise every row of a class is its image anchor.
        ds = data.generate(ZERO_NOISE)
        for c in range(3):
            rows = ds.image_raw[ds.labels == c]
            np.testing.assert_array_equal(rows, np.tile(rows[0], (7, 1)))

    def test_deterministic(self):
        a = data.generate(SMALL)
        b = data.generate(SMALL)
        np.testing.assert_array_equal(a.image_raw, b.image_raw)
        np.testing.assert_array_equal(a.text_anchors, b.text_anchors)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_anchor_separation(self):
        # The image anchors are the rows of a zero-noise dataset.
        image_anchors = data.generate(ZERO_NOISE).image_raw[::7]
        for anchors in (data.generate(SMALL).text_anchors, image_anchors):
            unit = anchors / np.linalg.norm(anchors, axis=1, keepdims=True)
            cos = unit @ unit.T
            np.fill_diagonal(cos, -1.0)
            assert cos.max() <= 0.99

    def test_low_noise_probe_accuracy(self):
        # Default-scale spec with modest noise must separate cleanly.
        ds = data.generate(data.SyntheticSpec(seed=11))
        assert ds.probe_accuracy >= 0.99


class TestRoundtrip:
    def test_save_load_bit_exact(self, tmp_path):
        ds = data.generate(SMALL)
        path = tmp_path / "ds.bin"
        data.save_dataset(ds, path)
        loaded = data.load_dataset(path)
        assert loaded.spec == ds.spec
        np.testing.assert_array_equal(loaded.text_anchors, ds.text_anchors)
        np.testing.assert_array_equal(loaded.image_raw, ds.image_raw)
        np.testing.assert_array_equal(loaded.labels, ds.labels)
        assert loaded.probe_accuracy == ds.probe_accuracy
        assert [f.name for f in dataclasses.fields(loaded)] == [
            "spec", "text_anchors", "image_raw", "labels", "probe_accuracy"
        ]

    def test_truncated_file(self, tmp_path):
        ds = data.generate(SMALL)
        path = tmp_path / "ds.bin"
        data.save_dataset(ds, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ChecksumMismatch):
            data.load_dataset(path)

    def test_flipped_byte(self, tmp_path):
        ds = data.generate(SMALL)
        path = tmp_path / "ds.bin"
        data.save_dataset(ds, path)
        blob = bytearray(path.read_bytes())
        blob[100] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumMismatch):
            data.load_dataset(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"WRONG-MAGIC-HERE" + b"\x00" * 100)
        with pytest.raises(FormatVersionMismatch):
            data.load_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            data.load_dataset(tmp_path / "nope.bin")

    def test_version_1_file_is_rebuilt_by_gen_data(self, tmp_path, capsys):
        # A version-1 file (image anchors, text anchors, image rows, text
        # rows, labels) with a valid checksum fails as a format mismatch
        # that says how to rebuild it, and `kdlab run` reading it exits 3.
        ds = data.generate(SMALL)
        header = {"spec": dataclasses.asdict(SMALL), "probe_accuracy": ds.probe_accuracy}
        path = tmp_path / "v1.bin"
        image_anchors, text_raw = np.zeros((4, 8)), np.zeros((80, 6))
        _write_file(
            path, 1, header, image_anchors, ds.text_anchors, ds.image_raw, text_raw, ds.labels
        )
        with pytest.raises(FormatVersionMismatch, match="kdlab gen-data"):
            data.load_dataset(path)
        manifest = tmp_path / "m.json"
        write_manifest(manifest, dataset={"path": str(path)})
        assert cli.main(["run", str(manifest), "--output-dir", str(tmp_path / "o")]) == 3
        assert "kdlab gen-data" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case",
        [
            "more-samples", "short-body", "long-body", "no-probe", "not-json", "string-field",
            "negative-noise",
        ],
    )
    def test_header_that_disagrees_with_its_body(self, tmp_path, capsys, case):
        # A version-2 file with a valid checksum whose header disagrees
        # with its body, or is malformed, fails with a declared error, and
        # `kdlab validate` reading it exits 3 naming the file.
        ds = data.generate(SMALL)
        fields = dataclasses.asdict(SMALL)
        header = {"spec": fields, "probe_accuracy": ds.probe_accuracy}
        labels = ds.labels
        if case == "more-samples":
            header["spec"] = {**fields, "samples_per_class": SMALL.samples_per_class + 1}
        elif case == "short-body":
            labels = labels[:-1]
        elif case == "long-body":
            labels = np.append(labels, 0)
        elif case == "no-probe":
            header = {"spec": fields}
        elif case == "not-json":
            header = b"{spec"
        elif case == "string-field":
            header["spec"] = {**fields, "num_classes": "4"}
        else:
            header["spec"] = {**fields, "noise_sigma": -1}
        path = tmp_path / "bad.bin"
        _write_file(path, 2, header, ds.text_anchors, ds.image_raw, labels)
        error = InvalidSpec if case in ("string-field", "negative-noise") else FormatVersionMismatch
        with pytest.raises(error, match=re.escape(str(path))):
            data.load_dataset(path)
        manifest = tmp_path / "m.json"
        write_manifest(manifest, dataset={"path": str(path)})
        assert cli.main(["validate", str(manifest)]) == 3
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case, error",
        [("nan", NonFiniteInput), ("infinity", NonFiniteInput), ("label", LabelOutOfRange)],
    )
    def test_values_a_run_cannot_take(self, tmp_path, capsys, case, error):
        # A file whose checksum and shapes hold but which holds a NaN or
        # infinite entry, or a label that is not a class, fails at load
        # naming the file, and `kdlab validate` reading it exits 3.
        ds = data.generate(SMALL)
        text_anchors, image_raw, labels = (
            a.copy() for a in (ds.text_anchors, ds.image_raw, ds.labels)
        )
        if case == "nan":
            image_raw[5, 1] = np.nan
        elif case == "infinity":
            text_anchors[2, 0] = -np.inf
        else:
            labels[7] = SMALL.num_classes
        header = {"spec": dataclasses.asdict(SMALL), "probe_accuracy": ds.probe_accuracy}
        path = tmp_path / "bad.bin"
        _write_file(path, 2, header, text_anchors, image_raw, labels)
        with pytest.raises(error, match=re.escape(str(path))):
            data.load_dataset(path)
        manifest = tmp_path / "m.json"
        write_manifest(manifest, dataset={"path": str(path)})
        assert cli.main(["validate", str(manifest)]) == 3
        assert str(path) in capsys.readouterr().err

    def test_failed_write_keeps_the_previous_file(self, tmp_path):
        # The labels fail to convert after the header and the float arrays
        # are written: the previous file stays as it was, with no temp file
        # beside it.
        ds = data.generate(SMALL)
        path = tmp_path / "ds.bin"
        data.save_dataset(ds, path)
        before = path.read_bytes()
        bad = dataclasses.replace(ds, labels=np.array(["x"] * ds.labels.size))
        with pytest.raises(ValueError):
            data.save_dataset(bad, path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


ZERO_NOISE = data.SyntheticSpec(
    num_classes=3, image_dim=5, text_dim=4, samples_per_class=7, noise_sigma=0.0, seed=4
)


def _write_file(path, version: int, header, *arrays) -> None:
    """A dataset file of format ``version`` holding ``header`` (a dict,
    written as JSON, or raw bytes) and ``arrays`` (float64 or int64),
    framed as the module docstring of ``kdlab.data`` describes, with a
    valid checksum."""
    hbytes = header if isinstance(header, bytes) else json.dumps(header).encode()
    body = b"KDLAB-PAIRED-DS\x00" + struct.pack("<II", version, len(hbytes)) + hbytes
    for a in arrays:
        body += a.astype(a.dtype.newbyteorder("<")).tobytes()
    digest = hashlib.blake2b(body, digest_size=8).digest()
    path.write_bytes(body + struct.pack("<Q", int.from_bytes(digest, "little")))


TINY_FILE_SPEC = data.SyntheticSpec(
    num_classes=2, image_dim=2, text_dim=2, samples_per_class=1, seed=3
)


def _tiny_blob() -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "ds.bin"
        data.save_dataset(data.generate(TINY_FILE_SPEC), path)
        return path.read_bytes()


def _damaged(blob: bytes, offset: int, bit: int | None) -> bytes:
    """``blob`` cut at ``offset``, or with one bit flipped there."""
    if bit is None:
        return blob[:offset]
    out = bytearray(blob)
    out[offset] ^= 1 << bit
    return bytes(out)


class TestDamagedFile:
    def test_every_cut_and_bit_flip_is_declared(self, tmp_path):
        # Cut the file at every offset and flip every bit of every byte:
        # each load fails with one of the two declared errors.
        blob = _tiny_blob()
        path = tmp_path / "ds.bin"
        for offset in range(len(blob)):
            for bit in (None, *range(8)):
                path.write_bytes(_damaged(blob, offset, bit))
                with pytest.raises((ChecksumMismatch, FormatVersionMismatch)):
                    data.load_dataset(path)

    @settings(max_examples=15, deadline=None)
    @given(draws=st.data())
    def test_kdlab_run_exits_3(self, draws):
        # The same damage, read through `kdlab run`'s dataset.path, is a
        # data error.
        blob = _tiny_blob()
        offset = draws.draw(st.integers(0, len(blob) - 1))
        bit = draws.draw(st.one_of(st.none(), st.integers(0, 7)))
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "ds.bin"
            path.write_bytes(_damaged(blob, offset, bit))
            manifest = Path(d) / "m.json"
            write_manifest(manifest, dataset={"path": str(path)})
            assert cli.main(["run", str(manifest), "--output-dir", str(Path(d) / "o")]) == 3


class TestCorruptTeacher:
    def _params(self):
        return init_params(EncoderConfig(6, (8,), 4), seeded_rng(0))

    def test_zero_sigma_unchanged(self):
        p = self._params()
        q = data.corrupt_teacher(p, 0.0, seeded_rng(1))
        for a, b in zip(p.weights, q.weights):
            np.testing.assert_array_equal(a, b)

    def test_deterministic(self):
        p = self._params()
        a = data.corrupt_teacher(p, 2.0, seeded_rng(5))
        b = data.corrupt_teacher(p, 2.0, seeded_rng(5))
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_biases_untouched(self):
        p = self._params()
        p.biases[0][:] = 1.5
        q = data.corrupt_teacher(p, 3.0, seeded_rng(2))
        for a, b in zip(p.biases, q.biases):
            np.testing.assert_array_equal(a, b)
        assert any(np.any(a != b) for a, b in zip(p.weights, q.weights))


class TestClassBank:
    def test_identity_encoder_normalized_anchors(self):
        ds = data.generate(SMALL)
        cfg = EncoderConfig(SMALL.text_dim, (), SMALL.text_dim, "identity", 0.0)
        params = init_params(cfg, seeded_rng(0))
        params.weights[0] = np.eye(SMALL.text_dim)
        bank = data.build_class_bank(params, ds)
        expected = ds.text_anchors / np.linalg.norm(
            ds.text_anchors, axis=1, keepdims=True
        )
        np.testing.assert_allclose(bank, expected, atol=1e-12)

    def test_frozen_teacher_bank_stable(self):
        ds = data.generate(SMALL)
        params = init_params(EncoderConfig(SMALL.text_dim, (10,), 5), seeded_rng(8))
        a = data.build_class_bank(params, ds)
        b = data.build_class_bank(params, ds)
        np.testing.assert_array_equal(a, b)
