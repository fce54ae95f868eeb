"""Synthetic paired-modality datasets with planted class structure.

Each class gets one random anchor per modality. An image sample is its
class's image anchor plus Gaussian noise; the text side of a class is its
anchor alone, which every text encoder reads. Ground truth is known and
cross-modal alignment must be learned (anchors of the two modalities share
nothing but class identity). Generation is a pure function of the spec,
including its seed.

The on-disk format (version 2) is a 16-byte magic, a version word, a
length-prefixed JSON header (the spec and the probe accuracy), the text
anchors and image rows as little-endian float64 and the labels as int64,
in row-major order, and a trailing 64-bit checksum over everything before
it. Any other version fails with ``FormatVersionMismatch``; ``kdlab
gen-data`` rebuilds the file from its spec. A file whose checksum holds
fails too, naming itself, if its header or its arrays' length disagree
with the format, if its spec is not one ``config``'s reader accepts, if a
text anchor or image row holds NaN or Infinity, or if a label is not a
class. The file is written atomically (``_atomic_open``).
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .config import SyntheticSpec, _build, _readers
from .encoder import EncoderParams, encode
from .errors import (
    ChecksumMismatch,
    ConfigParseError,
    FormatVersionMismatch,
    InvalidSpec,
    LabelOutOfRange,
    NonFiniteInput,
)
from .numerics import seeded_rng

_MAGIC = b"KDLAB-PAIRED-DS\x00"
_VERSION = 2
_ANCHOR_COS_LIMIT = 0.99
_PROBE_PER_CLASS = 25


@dataclass
class PairedDataset:
    """Raw image rows with their labels, and the class text anchors."""

    spec: SyntheticSpec
    text_anchors: np.ndarray   # N x text_dim
    image_raw: np.ndarray      # M x image_dim
    labels: np.ndarray         # M, int64 in [0, N)
    probe_accuracy: float      # nearest-anchor accuracy on held-out probe draws


def _draw_separated_anchors(rng, n: int, dim: int, scale: float) -> np.ndarray:
    for _ in range(1000):
        anchors = rng.normal(0.0, scale, size=(n, dim))
        unit = anchors / np.linalg.norm(anchors, axis=1, keepdims=True)
        cos = unit @ unit.T
        np.fill_diagonal(cos, -1.0)
        if float(cos.max()) <= _ANCHOR_COS_LIMIT:
            return anchors
    raise InvalidSpec("could not draw sufficiently separated anchors")


def _nearest_anchor_accuracy(points: np.ndarray, anchors: np.ndarray, labels) -> float:
    d2 = (
        np.sum(points**2, axis=1, keepdims=True)
        - 2.0 * points @ anchors.T
        + np.sum(anchors**2, axis=1)
    )
    return float(np.mean(np.argmin(d2, axis=1) == labels))


def generate(spec: SyntheticSpec) -> PairedDataset:
    """Deterministically materialize a dataset from its spec.

    Anchor sets are redrawn while any two anchors of a modality have
    cosine above 0.99. A held-out probe (fresh noise draws) is classified
    by nearest image anchor at generation time: for noise well inside the
    anchor separation (sigma below a quarter of the minimum anchor
    distance) the probe must reach 0.99 accuracy, otherwise the spec is
    rejected as inconsistent. The image anchors serve only this probe and
    are not stored.
    """
    rng = seeded_rng(spec.seed, 11)
    n, spc = spec.num_classes, spec.samples_per_class
    image_anchors = _draw_separated_anchors(rng, n, spec.image_dim, spec.anchor_scale)
    text_anchors = _draw_separated_anchors(rng, n, spec.text_dim, spec.anchor_scale)

    labels = np.repeat(np.arange(n, dtype=np.int64), spc)
    image_raw = image_anchors[labels] + rng.normal(
        0.0, spec.noise_sigma, size=(spec.num_samples, spec.image_dim)
    )

    probe_labels = np.repeat(np.arange(n, dtype=np.int64), _PROBE_PER_CLASS)
    probe = image_anchors[probe_labels] + rng.normal(
        0.0, spec.noise_sigma, size=(probe_labels.size, spec.image_dim)
    )
    probe_acc = _nearest_anchor_accuracy(probe, image_anchors, probe_labels)

    diffs = image_anchors[:, None, :] - image_anchors[None, :, :]
    dist = np.sqrt(np.sum(diffs**2, axis=2))
    np.fill_diagonal(dist, np.inf)
    if spec.noise_sigma < float(dist.min()) / 4.0 and probe_acc < 0.99:
        raise InvalidSpec(
            f"separability probe failed: accuracy {probe_acc:.3f} despite "
            f"noise {spec.noise_sigma} << anchor separation {dist.min():.3f}"
        )

    return PairedDataset(spec, text_anchors, image_raw, labels, probe_acc)


def corrupt_teacher(params: EncoderParams, sigma: float, rng) -> EncoderParams:
    """A deviating teacher: Gaussian noise of scale ``sigma`` on every
    weight matrix entry (biases untouched), the ``weight_noise`` kind of
    ``config.Corruption``."""
    new = params.copy()
    for w in new.weights:
        w += rng.normal(0.0, sigma, size=w.shape)
    return new


def build_class_bank(text_params: EncoderParams, dataset: PairedDataset) -> np.ndarray:
    """Encode each class's text anchor once (eval mode) into a cached bank.

    Rows come out unit-norm from the encoder; the bank is reused for the
    whole run instead of re-encoding class text per batch.
    """
    bank, _ = encode(text_params, dataset.text_anchors)
    return bank


def _checksum(data: bytes) -> int:
    import hashlib  # here, not at module level: it loads OpenSSL, which only dataset files need

    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


@contextlib.contextmanager
def _atomic_open(path, mode: str = "w"):
    """``path`` opened for writing, text (``"w"``) or bytes (``"wb"``),
    through a temp file in its directory, which replaces ``path``
    (``os.replace``) once the block has written it all. A write that
    raises leaves the previous file as it was and no temp file behind. No
    newline is translated: csv rows end in CRLF, as ``csv.writer`` ends
    them, and json and text lines in LF."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, newline=None if "b" in mode else "") as f:
            yield f
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_dataset(dataset: PairedDataset, path) -> None:
    """Write ``dataset`` to ``path`` in the format of the module docstring,
    part by part, atomically."""
    header = {"spec": asdict(dataset.spec), "probe_accuracy": dataset.probe_accuracy}
    hbytes = json.dumps(header, sort_keys=True).encode()
    parts = [_MAGIC + struct.pack("<II", _VERSION, len(hbytes)) + hbytes]
    with _atomic_open(path, "wb") as f:
        f.write(parts[0])
        for a, dtype in (
            (dataset.text_anchors, "<f8"), (dataset.image_raw, "<f8"), (dataset.labels, "<i8")
        ):
            parts.append(np.ascontiguousarray(a, dtype=dtype).tobytes())
            f.write(parts[-1])
        f.write(struct.pack("<Q", _checksum(b"".join(parts))))


def load_dataset(path) -> PairedDataset:
    """The dataset in the file ``path``; a wrong file fails with a declared
    error naming it: ``ChecksumMismatch``, ``FormatVersionMismatch``; for a
    spec without exactly the ``SyntheticSpec`` fields, or one that
    ``config._build`` rejects (the manifest's reader), ``InvalidSpec``; for
    a NaN or infinite array entry, ``NonFiniteInput``; and for a label
    outside [0, num_classes), ``LabelOutOfRange``."""
    blob = Path(path).read_bytes()
    if len(blob) < len(_MAGIC) or blob[: len(_MAGIC)] != _MAGIC:
        raise FormatVersionMismatch(f"{path} is not a paired-dataset file")
    if len(blob) < len(_MAGIC) + 8 + 8:
        raise ChecksumMismatch(f"{path} is truncated")
    (stored,) = struct.unpack("<Q", blob[-8:])
    if _checksum(blob[:-8]) != stored:
        raise ChecksumMismatch(f"{path} failed its checksum (truncated or corrupt)")
    off = len(_MAGIC)
    version, hlen = struct.unpack_from("<II", blob, off)
    if version != _VERSION:
        raise FormatVersionMismatch(
            f"{path} has dataset format version {version}, this kdlab reads version "
            f"{_VERSION}: rebuild it from its spec with `kdlab gen-data`"
        )
    off += 8
    try:
        header = json.loads(blob[off : off + hlen].decode())
    except ValueError:
        raise FormatVersionMismatch(f"{path} has a header that is not JSON") from None
    off += hlen
    if not (isinstance(header, dict) and header.keys() == {"spec", "probe_accuracy"}
            and type(header["probe_accuracy"]) in (int, float)):
        raise FormatVersionMismatch(f"{path} has a header other than a spec and a probe accuracy")
    fields = header["spec"]
    if not isinstance(fields, dict) or fields.keys() != _readers(SyntheticSpec).keys():
        raise InvalidSpec(f"{path} holds a spec that is not an object of the SyntheticSpec fields")
    try:
        spec = _build(SyntheticSpec, fields, "spec")
    except ConfigParseError as e:
        raise InvalidSpec(f"{path} holds an invalid spec: {e}") from None
    m = spec.num_samples
    body = 8 * (spec.num_classes * spec.text_dim + m * spec.image_dim + m)
    if len(blob) - 8 - off != body:
        raise FormatVersionMismatch(
            f"{path} has {len(blob) - 8 - off} bytes of arrays where its spec makes {body}"
        )

    def take_f8(shape):
        nonlocal off
        n = int(np.prod(shape))
        a = np.frombuffer(blob, dtype="<f8", count=n, offset=off).reshape(shape)
        off += n * 8
        return a.astype(np.float64)

    text_anchors = take_f8((spec.num_classes, spec.text_dim))
    image_raw = take_f8((m, spec.image_dim))
    labels = np.frombuffer(blob, dtype="<i8", count=m, offset=off).astype(np.int64)
    for name, a in (("text_anchors", text_anchors), ("image_raw", image_raw)):
        if not np.isfinite(a).all():
            raise NonFiniteInput(f"{path} holds a NaN or infinite {name} entry")
    if not 0 <= labels.min() <= labels.max() < spec.num_classes:
        raise LabelOutOfRange(f"{path} holds a label outside [0, {spec.num_classes})")
    return PairedDataset(spec, text_anchors, image_raw, labels, float(header["probe_accuracy"]))
