"""Synthetic paired-modality datasets with planted class structure.

Each class gets one random anchor per modality; samples are anchors plus
Gaussian noise, so ground truth is known and cross-modal alignment must be
learned (anchors of the two modalities share nothing but class identity).
Generation is a pure function of the spec, including its seed.

The on-disk format is a 16-byte magic, a version word, a length-prefixed
JSON header, the arrays as little-endian float64 (labels as int64) in row
-major order, and a trailing 64-bit checksum over everything before it.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .encoder import EncoderParams, encode
from .errors import ChecksumMismatch, FormatVersionMismatch, InvalidConfig, InvalidSpec
from .numerics import seeded_rng

_MAGIC = b"KDLAB-PAIRED-DS\x00"
_VERSION = 1
_ANCHOR_COS_LIMIT = 0.99
_PROBE_PER_CLASS = 25


@dataclass(frozen=True)
class SyntheticSpec:
    """Everything that determines a dataset, byte for byte."""

    num_classes: int = 8
    image_dim: int = 32
    text_dim: int = 24
    samples_per_class: int = 250
    noise_sigma: float = 0.35
    anchor_scale: float = 1.0
    seed: int = 7

    def __post_init__(self):
        if self.num_classes < 2:
            raise InvalidSpec("num_classes must be >= 2")
        if self.image_dim < 2 or self.text_dim < 2:
            raise InvalidSpec("modality dims must be >= 2")
        if self.samples_per_class < 1:
            raise InvalidSpec("samples_per_class must be >= 1")
        if self.noise_sigma < 0.0:
            raise InvalidSpec("noise_sigma must be >= 0")
        if self.anchor_scale <= 0.0:
            raise InvalidSpec("anchor_scale must be > 0")

    @property
    def num_samples(self) -> int:
        return self.num_classes * self.samples_per_class

    def to_dict(self) -> dict:
        return {
            "num_classes": self.num_classes,
            "image_dim": self.image_dim,
            "text_dim": self.text_dim,
            "samples_per_class": self.samples_per_class,
            "noise_sigma": self.noise_sigma,
            "anchor_scale": self.anchor_scale,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SyntheticSpec":
        try:
            return cls(
                num_classes=int(d["num_classes"]),
                image_dim=int(d["image_dim"]),
                text_dim=int(d["text_dim"]),
                samples_per_class=int(d["samples_per_class"]),
                noise_sigma=float(d["noise_sigma"]),
                anchor_scale=float(d["anchor_scale"]),
                seed=int(d["seed"]),
            )
        except KeyError as e:
            raise InvalidSpec(f"missing spec field {e.args[0]!r}") from e


@dataclass
class PairedDataset:
    """Raw per-modality feature vectors with labels and the class anchors."""

    spec: SyntheticSpec
    image_anchors: np.ndarray  # N x image_dim
    text_anchors: np.ndarray   # N x text_dim
    image_raw: np.ndarray      # M x image_dim
    text_raw: np.ndarray       # M x text_dim
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
    rejected as inconsistent.
    """
    rng = seeded_rng(spec.seed, 11)
    n, spc = spec.num_classes, spec.samples_per_class
    image_anchors = _draw_separated_anchors(rng, n, spec.image_dim, spec.anchor_scale)
    text_anchors = _draw_separated_anchors(rng, n, spec.text_dim, spec.anchor_scale)

    labels = np.repeat(np.arange(n, dtype=np.int64), spc)
    image_raw = image_anchors[labels] + rng.normal(
        0.0, spec.noise_sigma, size=(spec.num_samples, spec.image_dim)
    )
    text_raw = text_anchors[labels] + rng.normal(
        0.0, spec.noise_sigma, size=(spec.num_samples, spec.text_dim)
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

    return PairedDataset(
        spec=spec,
        image_anchors=image_anchors,
        text_anchors=text_anchors,
        image_raw=image_raw,
        text_raw=text_raw,
        labels=labels,
        probe_accuracy=probe_acc,
    )


@dataclass(frozen=True)
class WeightNoise:
    """Corruption mode: independent Gaussian noise on every weight matrix."""

    sigma: float = 1.0

    def __post_init__(self):
        if self.sigma < 0:
            raise InvalidConfig("sigma", "must be >= 0")


LABEL_SHUFFLE = "label_shuffle"


def corrupt_teacher(params: EncoderParams, mode, rng) -> EncoderParams:
    """Produce a deviating teacher.

    ``WeightNoise`` perturbs every weight matrix entry (biases untouched);
    the ``label_shuffle`` tag leaves parameters alone and is honored by the
    trainer, which pretrains such a teacher against permuted labels.
    """
    if isinstance(mode, WeightNoise):
        new = params.copy()
        for w in new.weights:
            w += rng.normal(0.0, mode.sigma, size=w.shape)
        return new
    if mode == LABEL_SHUFFLE:
        return params.copy()
    raise ValueError(f"unknown corruption mode {mode!r}")


def build_class_bank(text_params: EncoderParams, dataset: PairedDataset) -> np.ndarray:
    """Encode each class's text anchor once (eval mode) into a cached bank.

    Rows come out unit-norm from the encoder; the bank is reused for the
    whole run instead of re-encoding class text per batch.
    """
    bank, _ = encode(text_params, dataset.text_anchors, train_mode=False)
    return bank


def _checksum(data: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def save_dataset(dataset: PairedDataset, path) -> None:
    header = {
        "spec": dataset.spec.to_dict(),
        "probe_accuracy": dataset.probe_accuracy,
    }
    hbytes = json.dumps(header, sort_keys=True).encode()
    body = bytearray()
    body += _MAGIC
    body += struct.pack("<II", _VERSION, len(hbytes))
    body += hbytes
    for a in (dataset.image_anchors, dataset.text_anchors, dataset.image_raw, dataset.text_raw):
        body += np.ascontiguousarray(a, dtype="<f8").tobytes()
    body += np.ascontiguousarray(dataset.labels, dtype="<i8").tobytes()
    body += struct.pack("<Q", _checksum(bytes(body)))
    Path(path).write_bytes(bytes(body))


def load_dataset(path) -> PairedDataset:
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
        raise FormatVersionMismatch(f"unsupported dataset version {version}")
    off += 8
    header = json.loads(blob[off : off + hlen].decode())
    off += hlen
    spec = SyntheticSpec.from_dict(header["spec"])

    def take_f8(shape):
        nonlocal off
        n = int(np.prod(shape))
        a = np.frombuffer(blob, dtype="<f8", count=n, offset=off).reshape(shape)
        off += n * 8
        return a.astype(np.float64)

    n, m = spec.num_classes, spec.num_samples
    image_anchors = take_f8((n, spec.image_dim))
    text_anchors = take_f8((n, spec.text_dim))
    image_raw = take_f8((m, spec.image_dim))
    text_raw = take_f8((m, spec.text_dim))
    labels = np.frombuffer(blob, dtype="<i8", count=m, offset=off).astype(np.int64)
    return PairedDataset(
        spec=spec,
        image_anchors=image_anchors,
        text_anchors=text_anchors,
        image_raw=image_raw,
        text_raw=text_raw,
        labels=labels,
        probe_accuracy=float(header["probe_accuracy"]),
    )
