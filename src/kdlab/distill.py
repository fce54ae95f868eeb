"""Distillation losses: bidirectional KL alignment of contrastive
distributions against each teacher, MSE feature imitation, and assembly of
the total student objective with configurable component ratios and
per-teacher weights.

Teacher distributions are treated as constants (no gradient flows back to
a teacher); gradients are returned for the student side only.

The training step's kernels (``_kl_stack``, ``_mse_align``,
``_total_losses``) also take a leading member axis S on the student side,
for students trained side by side: each member's slice has the bits a
call with that member alone gives, since every product runs per slice and
every sum runs over that member's own contiguous terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidSimplex, NonPositiveRatio, ShapeMismatch
from .numerics import (
    _check_dims,
    _check_tau,
    _pair_log_softmax,
    _row_sums,
    _softmax,
    as_matrix,
)

# perfbench's tracer wraps these public functions at every module that
# binds them (EXPECTED_BINDINGS in perfbench/tracer.py); this module calls
# their kernels instead.
from .numerics import log_softmax_rows, pairwise_logits, softmax_rows  # noqa: E402,F401


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
        _check_dims(u, w)
        _check_tau(tau)
        return cls(u, *_teacher_dists(u, w, tau))


def _teacher_dists(u: np.ndarray, w: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """The image-to-text (B x N) and text-to-image (N x B) distributions of
    checked unit rows ``u`` against ``w`` at ``tau``; with a leading block
    axis on ``u``, one pair per batch, each with the bits it has alone."""
    return _softmax(u @ w.T, tau), _softmax(w @ u.swapaxes(-1, -2), tau)


@dataclass
class KlPairLoss:
    """Bidirectional KL losses for one teacher with student-side gradients,
    each gradient summed over both directions."""

    l_i2t: float
    l_t2i: float
    grad_image: np.ndarray
    grad_text: np.ndarray


def kl_grad_wrt_logits(p_student: np.ndarray, p_teacher: np.ndarray) -> np.ndarray:
    """Gradient of mean-row KL(teacher || student) w.r.t. the student's
    softmax input logits: (p_S - p_T) / rows. Leading axes broadcast:
    ``p_teacher`` may be a stack of K teachers' distributions, giving K
    gradients, and an (S, 1, rows, N) stack of students against it gives
    S x K."""
    if p_student.shape[-2:] != p_teacher.shape[-2:]:
        raise ShapeMismatch("distribution shapes differ")
    return (p_student - p_teacher) / p_student.shape[-2]


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
    if teacher.i2t_probs.shape != (u.shape[0], w.shape[0]):
        raise ShapeMismatch(
            f"teacher i2t shape {teacher.i2t_probs.shape} != student {(u.shape[0], w.shape[0])}"
        )
    if teacher.t2i_probs.shape != (w.shape[0], u.shape[0]):
        raise ShapeMismatch(
            f"teacher t2i shape {teacher.t2i_probs.shape} != student {(w.shape[0], u.shape[0])}"
        )
    _check_dims(u, w)
    _check_tau(tau_student)
    dists = _pair_log_softmax(u, w, tau_student)
    l_i2t, l_t2i, grad_u, grad_w = _kl_stack(
        teacher.i2t_probs[None], teacher.t2i_probs[None], u, w, tau_student, dists
    )
    return KlPairLoss(l_i2t=l_i2t[0], l_t2i=l_t2i[0], grad_image=grad_u[0], grad_text=grad_w[0])


def _kl_stack(p_i2t, p_t2i, u, w, tau: float, dists):
    """:func:`kl_pair_loss` for K teachers at once, on checked inputs.

    ``p_i2t`` (K x B x N) and ``p_t2i`` (K x N x B) stack the teachers'
    distributions; ``dists`` is ``numerics._pair_log_softmax(u, w, tau)``.
    Returns the K i2t and K t2i losses and the K x B x d and K x N x d
    student gradients. Each teacher's slice has the bits a call with that
    teacher alone gives: the products run per slice, and each loss sums its
    own slice. A leading member axis on ``u``, ``w`` and ``dists`` puts an S
    axis before every output's K axis.
    """
    log_p, p, log_q, q = dists
    g_i2t = kl_grad_wrt_logits(_per_teacher(p), p_i2t)
    g_i2t /= tau
    g_t2i = kl_grad_wrt_logits(_per_teacher(q), p_t2i)
    g_t2i /= tau
    u, w = _per_teacher(u), _per_teacher(w)
    grad_u = g_i2t @ w
    grad_u += g_t2i.swapaxes(-1, -2) @ w
    grad_w = g_i2t.swapaxes(-1, -2) @ u
    grad_w += g_t2i @ u
    return _mean_row_kls(p_i2t, log_p), _mean_row_kls(p_t2i, log_q), grad_u, grad_w


def _per_teacher(a: np.ndarray) -> np.ndarray:
    """A member stack's (S, rows, cols) array with an axis for the K
    teachers, (S, 1, rows, cols); one student's array broadcasts as it is."""
    return a[:, None] if a.ndim > 2 else a


def _mean_row_kls(p_teacher: np.ndarray, log_p_student: np.ndarray) -> np.ndarray:
    """Mean-row KL(teacher || student) for each teacher of a K x rows x N
    stack, against a rows x N student or a stack of them, clamped below at
    0. One reduction sums each (student, teacher) pair's rows x N terms, in
    the order a sum over that slice alone takes."""
    terms = np.where(p_teacher > 0.0, p_teacher, 1.0)
    np.log(terms, out=terms)
    if log_p_student.ndim > 2:
        terms = terms - _per_teacher(log_p_student)
    else:
        terms -= log_p_student
    terms *= p_teacher
    means = _row_sums(terms.reshape(*terms.shape[:-2], -1)) / p_teacher.shape[-2]
    return np.where(means < 0.0, 0.0, means)  # max(m, 0.0), a NaN kept


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
    return _mse_align(ut, us, wt, ws)


def _mse_align(ut, us, wt, ws) -> MseAlign:
    """:func:`mse_align` on checked matrices. A leading member axis on
    either side of a block gives every member its value and gradients."""
    du = us - ut
    dw = ws - wt
    # Each block's mean as np.mean takes it: one sum, then a division.
    n_u = du.shape[-2] * du.shape[-1]
    n_w = dw.shape[-2] * dw.shape[-1]
    value = _row_sums((du * du).reshape(*du.shape[:-2], -1)) / n_u + _row_sums(
        (dw * dw).reshape(*dw.shape[:-2], -1)
    ) / n_w
    du *= 2.0
    du /= n_u
    dw *= 2.0
    dw /= n_w
    return MseAlign(value=value, grad_image=du, grad_text=dw)


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
    its simplex coefficient. The checks, then :func:`_total_losses` for one
    member.
    """
    r_clip, r_kl, r_mse = (float(r) for r in ratios)
    if r_clip <= 0.0 or r_kl <= 0.0 or r_mse <= 0.0:
        raise NonPositiveRatio(f"loss ratios must be > 0, got {ratios}")
    terms = np.asarray(kl_terms, dtype=np.float64).reshape(-1, 2)  # rows (i2t, t2i)
    w = check_simplex(weights, k=len(terms))
    kl, total = _total_losses(
        np.array([float(l_clip)]), terms[None, :, 0], terms[None, :, 1],
        np.array([float(l_mse)]), np.array([[r_clip, r_kl, r_mse]]), w[None],
    )
    return LossBreakdown(l_kl_weighted=float(kl[0]), l_mse=float(l_mse), total=float(total[0]))


def _total_losses(l_clip, kl_i2t, kl_t2i, l_mse, ratios, alpha):
    """Every member's weighted KL and total objective, as (S,) arrays, from
    its clip loss (S,), its K teachers' KL terms (S, K) each way, its MSE
    term (S,), its (clip, kl, mse) ratios (S, 3) and its weights (S, K);
    without the member axis, one member's.
    Each member's weighted KL is ``np.dot(alpha_s, i2t_s + t2i_s)``: matmul
    takes a 1 x K by K x 1 product per member through numpy's dot kernel,
    so it has np.dot's bits."""
    kl = np.matmul(alpha[..., None, :], (kl_i2t + kl_t2i)[..., :, None])[..., 0, 0]
    total = ratios[..., 0] * l_clip + ratios[..., 1] * kl + ratios[..., 2] * l_mse
    return kl, total
