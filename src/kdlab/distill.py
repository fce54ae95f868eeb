"""Distillation losses: bidirectional KL alignment of contrastive
distributions against each teacher, MSE feature imitation, and assembly of
the total student objective with configurable component ratios and
per-teacher weights.

Teacher distributions are treated as constants (no gradient flows back to
a teacher); gradients are returned for the student side only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidSimplex, NonPositiveRatio, ShapeMismatch
from .numerics import as_matrix, log_softmax_rows, pairwise_logits, softmax_rows


@dataclass(frozen=True)
class TeacherOutputs:
    """One frozen teacher's view of a batch: unit-row image features plus
    its image-to-text and text-to-image contrastive distributions against
    N text rows (a class bank, or the batch's own B rows)."""

    image_features: np.ndarray   # B x d_T
    i2t_probs: np.ndarray        # B x N
    t2i_probs: np.ndarray        # N x B

    @classmethod
    def from_features(cls, image_features, text_features, tau: float) -> "TeacherOutputs":
        u = as_matrix(image_features, "image_features")
        w = as_matrix(text_features, "text_features")
        return cls(
            image_features=u,
            i2t_probs=softmax_rows(pairwise_logits(u, w), tau),
            t2i_probs=softmax_rows(pairwise_logits(w, u), tau),
        )


@dataclass
class KlPairLoss:
    """Bidirectional KL losses for one teacher with student-side gradients,
    each gradient summed over both directions."""

    l_i2t: float
    l_t2i: float
    grad_image: np.ndarray
    grad_text: np.ndarray


def _mean_row_kl(p_teacher: np.ndarray, log_p_student: np.ndarray) -> float:
    safe = np.where(p_teacher > 0.0, p_teacher, 1.0)
    val = np.sum(p_teacher * (np.log(safe) - log_p_student)) / p_teacher.shape[0]
    return max(float(val), 0.0)


def kl_grad_wrt_logits(p_student: np.ndarray, p_teacher: np.ndarray) -> np.ndarray:
    """Gradient of mean-row KL(teacher || student) w.r.t. the student's
    softmax input logits: (p_S - p_T) / rows."""
    if p_student.shape != p_teacher.shape:
        raise ShapeMismatch("distribution shapes differ")
    return (p_student - p_teacher) / p_student.shape[0]


def kl_pair_loss(
    teacher: TeacherOutputs,
    student_image_features,
    student_text_features,
    tau_student: float,
) -> KlPairLoss:
    """Mean-row KL from the teacher's distributions to the student's, both
    directions, with analytic gradients w.r.t. the student feature matrices.

    The student distributions are re-derived from its features at
    ``tau_student``; the chain through the softmax gives a logit gradient
    of (p_S - p_T) / (rows * tau) which is then pushed onto the features.
    """
    u = as_matrix(student_image_features, "student_image_features")
    w = as_matrix(student_text_features, "student_text_features")
    p_t_i2t = teacher.i2t_probs
    p_t_t2i = teacher.t2i_probs
    if p_t_i2t.shape != (u.shape[0], w.shape[0]):
        raise ShapeMismatch(
            f"teacher i2t shape {p_t_i2t.shape} != student {(u.shape[0], w.shape[0])}"
        )
    if p_t_t2i.shape != (w.shape[0], u.shape[0]):
        raise ShapeMismatch(
            f"teacher t2i shape {p_t_t2i.shape} != student {(w.shape[0], u.shape[0])}"
        )

    log_p_i2t = log_softmax_rows(pairwise_logits(u, w), tau_student)
    p_s_i2t = np.exp(log_p_i2t)
    l_i2t = _mean_row_kl(p_t_i2t, log_p_i2t)
    g_logits = kl_grad_wrt_logits(p_s_i2t, p_t_i2t) / tau_student
    grad_u_i2t = g_logits @ w
    grad_w_i2t = g_logits.T @ u

    log_p_t2i = log_softmax_rows(pairwise_logits(w, u), tau_student)
    p_s_t2i = np.exp(log_p_t2i)
    l_t2i = _mean_row_kl(p_t_t2i, log_p_t2i)
    g_logits = kl_grad_wrt_logits(p_s_t2i, p_t_t2i) / tau_student
    grad_w_t2i = g_logits @ u
    grad_u_t2i = g_logits.T @ w

    return KlPairLoss(
        l_i2t=l_i2t,
        l_t2i=l_t2i,
        grad_image=grad_u_i2t + grad_u_t2i,
        grad_text=grad_w_i2t + grad_w_t2i,
    )


@dataclass
class MseAlign:
    value: float
    grad_image: np.ndarray
    grad_text: np.ndarray


def mse_align(u_teacher, u_student, w_teacher, w_student) -> MseAlign:
    """Mean squared error over the image block plus the text block.

    Each block averages over all its elements; the student-side gradient is
    2 (s - t) / count per block.
    """
    ut = as_matrix(u_teacher, "u_teacher")
    us = as_matrix(u_student, "u_student")
    wt = as_matrix(w_teacher, "w_teacher")
    ws = as_matrix(w_student, "w_student")
    if ut.shape != us.shape:
        raise ShapeMismatch(f"image blocks differ: {ut.shape} vs {us.shape}")
    if wt.shape != ws.shape:
        raise ShapeMismatch(f"text blocks differ: {wt.shape} vs {ws.shape}")

    du = us - ut
    dw = ws - wt
    value = float(np.mean(du * du) + np.mean(dw * dw))
    return MseAlign(
        value=value,
        grad_image=2.0 * du / du.size,
        grad_text=2.0 * dw / dw.size,
    )


@dataclass
class LossBreakdown:
    """The student objective and the parts of it a run logs."""

    l_kl_weighted: float  # the kl part entering total
    l_mse: float
    total: float


def check_simplex(weights, k: int | None = None, tol: float = 1e-9) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1:
        raise InvalidSimplex("weights must be a 1-D vector")
    if k is not None and w.shape[0] != k:
        raise InvalidSimplex(f"expected {k} weights, got {w.shape[0]}")
    if w.size == 0:
        raise InvalidSimplex("weights must be non-empty")
    if not (np.all(w >= -tol) and abs(float(w.sum()) - 1.0) <= tol):  # NaN fails too
        raise InvalidSimplex("weights must be nonnegative and sum to 1")
    return w


def total_loss(
    l_clip: float,
    kl_terms: Sequence[tuple[float, float]],
    l_mse: float,
    ratios: tuple[float, float, float],
    weights,
) -> LossBreakdown:
    """Assemble the student objective.

    total = r_clip * l_clip + r_kl * KL + r_mse * l_mse, where KL is the
    weighted bidirectional KL: each teacher's (i2t + t2i) sum weighted by
    its simplex coefficient.
    """
    r_clip, r_kl, r_mse = (float(r) for r in ratios)
    if r_clip <= 0.0 or r_kl <= 0.0 or r_mse <= 0.0:
        raise NonPositiveRatio(f"loss ratios must be > 0, got {ratios}")
    terms = np.asarray(kl_terms, dtype=np.float64).reshape(-1, 2)  # rows (i2t, t2i)

    w = check_simplex(weights, k=len(terms))
    kl_weighted = float(np.dot(w, terms[:, 0] + terms[:, 1]))

    total = r_clip * float(l_clip) + r_kl * kl_weighted + r_mse * float(l_mse)
    return LossBreakdown(l_kl_weighted=kl_weighted, l_mse=float(l_mse), total=total)
