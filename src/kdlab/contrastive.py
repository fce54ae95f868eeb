"""Batch contrastive distributions, the symmetric contrastive loss, and
the rank of each sample's true class against a class text bank.

Two modes share one code path: in-batch mode pairs each image row with the
text row of the same index (``labels = 0..B-1``); class-bank mode scores a
batch of image features against N cached per-class text vectors, with
labels naming class indices. The loss averages the image-to-text and
text-to-image cross-entropies and returns exact analytic gradients with
respect to both feature matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyBank, LabelOutOfRange, NotADistribution
from .numerics import (
    _check_tau,
    _pair_log_softmax,
    _row_sums,
    as_matrix,
    pairwise_logits,
    softmax_rows,
)

# perfbench's tracer wraps log_softmax_rows at every module that binds it
# (EXPECTED_BINDINGS in perfbench/tracer.py); clip_loss calls its kernel.
from .numerics import log_softmax_rows  # noqa: E402,F401

_UNIT_ROW_TOL = 1e-9


@dataclass(frozen=True)
class ContrastiveBatch:
    """Unit-row image features U (B x d), text features W (B x d or N x d), tau."""

    image_features: np.ndarray
    text_features: np.ndarray
    tau: float

    def __post_init__(self):
        u = as_matrix(self.image_features, "image_features")
        w = as_matrix(self.text_features, "text_features")
        if u.shape[1] != w.shape[1]:
            raise DimensionMismatch(
                f"feature dims differ: {u.shape[1]} vs {w.shape[1]}"
            )
        for name, m in (("image_features", u), ("text_features", w)):
            if m.shape[0] == 0:
                continue
            norms = np.linalg.norm(m, axis=1)
            if np.max(np.abs(norms - 1.0)) > _UNIT_ROW_TOL:
                raise NotADistribution(f"{name} rows are not unit-norm")
        object.__setattr__(self, "image_features", u)
        object.__setattr__(self, "text_features", w)


@dataclass
class LossValueWithGrad:
    """Scalar loss (the mean of the two directions' cross-entropies) plus
    gradients w.r.t. the two feature matrices."""

    value: float
    grad_image: np.ndarray
    grad_text: np.ndarray


@dataclass(frozen=True)
class MixedLabels:
    """Soft pairing for mixup batches: secondary labels plus per-sample weight
    of the primary label (1.0 reduces to hard labels)."""

    labels_b: np.ndarray
    lam: np.ndarray


def _check_labels(labels, n_rows: int, n_candidates: int, name: str) -> np.ndarray:
    lab = np.asarray(labels, dtype=np.int64)
    if lab.ndim != 1 or lab.shape[0] != n_rows:
        raise DimensionMismatch(f"{name} must be 1-D with one entry per sample")
    if lab.size and (lab.min() < 0 or lab.max() >= n_candidates):
        raise LabelOutOfRange(
            f"{name} must index candidate rows [0, {n_candidates})"
        )
    return lab


def clip_loss(
    batch: ContrastiveBatch,
    labels,
    mix: MixedLabels | None = None,
) -> LossValueWithGrad:
    """Symmetric temperature cross-entropy over both retrieval directions.

    Image-to-text: each image row is scored against every text row and
    cross-entropy is taken against its label. Text-to-image: the text row
    of each sample's label is scored against every image row, with the
    sample's own position as target. The value is the mean of both
    directions; gradients are exact.
    """
    u = batch.image_features
    w = batch.text_features
    b_sz = u.shape[0]
    n_cand = w.shape[0]
    if b_sz == 0:
        raise DimensionMismatch("clip_loss needs at least one sample")

    labels_a = _check_labels(labels, b_sz, n_cand, "labels")
    if mix is not None:
        mix = MixedLabels(
            _check_labels(mix.labels_b, b_sz, n_cand, "mix labels"),
            np.asarray(mix.lam, dtype=np.float64),
        )
        if mix.lam.shape != (b_sz,):
            raise DimensionMismatch("mix.lam must have one coefficient per sample")
    _check_tau(batch.tau)
    return _clip_loss(u, w, batch.tau, _pair_log_softmax(u, w, batch.tau), labels_a, mix)


def _clip_loss(
    u: np.ndarray,
    w: np.ndarray,
    tau: float,
    dists: tuple[np.ndarray, ...],
    labels_a: np.ndarray,
    mix: MixedLabels | None,
) -> LossValueWithGrad:
    """:func:`clip_loss` on checked inputs, given the distributions
    ``numerics._pair_log_softmax(u, w, tau)``. Without ``mix`` the targets are
    one-hot, which is what the soft formulas give at lam = 1.

    ``u``, ``w`` and the distributions may carry a leading member axis, (S,
    B, d) and (S, N, d), sharing the labels; the value and the gradients
    then carry it too, and each member's slice has the bits it gets alone."""
    log_p, p, log_q, q = dists
    lead = u.shape[:-2]
    b_sz = u.shape[-2]
    n_cand = w.shape[-2]
    idx = np.arange(b_sz)

    # Soft target matrix over text candidates, one row per image; for the
    # text-to-image direction, each anchor row is the labelled text
    # candidate and its target is the sample position that selected it.
    target = np.zeros((b_sz, n_cand))
    sel = np.zeros((n_cand, b_sz))
    if mix is None:
        target[idx, labels_a] = 1.0
        sel[labels_a, idx] = 1.0
        counts = np.bincount(labels_a, minlength=n_cand).astype(np.float64)
        t2i_sum = _row_sums(log_q[..., labels_a, idx])
    else:
        labels_b, wa = mix.labels_b, mix.lam
        wb = 1.0 - wa
        np.add.at(target, (idx, labels_a), wa)
        np.add.at(target, (idx, labels_b), wb)
        np.add.at(sel, (labels_a, idx), wa)
        np.add.at(sel, (labels_b, idx), wb)
        counts = np.zeros(n_cand)
        np.add.at(counts, labels_a, wa)
        np.add.at(counts, labels_b, wb)
        t2i_sum = _row_sums(wa * log_q[..., labels_a, idx]) + _row_sums(
            wb * log_q[..., labels_b, idx]
        )

    l_i2t = -_row_sums((target * log_p).reshape(*lead, -1)) / b_sz
    grad_logits_i2t = (p - target) / b_sz
    l_t2i = -t2i_sum / b_sz
    grad_logits_t2i = (counts[:, None] * q - sel) / b_sz

    scale = 0.5 / tau
    grad_u = scale * (grad_logits_i2t @ w + grad_logits_t2i.swapaxes(-1, -2) @ w)
    grad_w = scale * (grad_logits_i2t.swapaxes(-1, -2) @ u + grad_logits_t2i @ u)

    return LossValueWithGrad(
        value=0.5 * (l_i2t + l_t2i),
        grad_image=grad_u,
        grad_text=grad_w,
    )


def rank_of_label(u, bank, labels, tau: float) -> np.ndarray:
    """Zero-based rank of each sample's true class in the score ordering."""
    um = as_matrix(u, "u")
    bm = as_matrix(bank, "bank")
    if bm.shape[0] == 0:
        raise EmptyBank("class bank has no rows")
    probs = softmax_rows(pairwise_logits(um, bm), tau)
    order = np.argsort(-probs, axis=1, kind="stable")
    return np.argmax(order == np.asarray(labels, dtype=np.int64)[:, None], axis=1)
