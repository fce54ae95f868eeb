"""Teacher-weighting strategies.

Four strategies are exposed through the trainer: ``base`` (no
distillation), ``avg`` (uniform weights), ``lsr`` (label-similarity
ratios), and ``dsw`` (min-norm weights over the per-teacher gradient
hull). The min-norm problem

    min_alpha 0.5 * || sum_k alpha_k g_k ||^2   s.t. alpha on the simplex

over the flattened per-teacher gradients g_k has one datum, their K x K
Gram matrix G: with d = sum_k alpha_k g_k, <d, g_k> = (G alpha)_k and
||d||^2 = alpha^T G alpha. Frank-Wolfe with exact line search and the
stationarity certificate read only G. When d is nonzero, -d descends
every teacher objective simultaneously, which the certificate checks
through the variational inequality <d, g_k> >= ||d||^2 for all k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyGradientSet, NonFiniteInput
from .numerics import _checked_stack, as_matrix, as_vector

_TIE_EPS = 1e-18


def _gram_matrix(gram) -> np.ndarray:
    m = np.ascontiguousarray(gram, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"Gram matrix must be K x K, got shape {m.shape}")
    if m.shape[0] == 0:
        raise EmptyGradientSet("gradient set has zero teachers")
    return m


@dataclass
class LsrWeights:
    weights: np.ndarray
    degenerate: bool  # all-zero scores fell back to uniform


def lsr_weights(scores) -> LsrWeights:
    """Similarity-ratio weights alpha_k = r_k / sum_j r_j.

    All-zero scores cannot be normalized; the batch falls back to uniform
    weights and is flagged degenerate so callers can log it.
    """
    r = as_vector(scores, "scores")
    if r.size == 0:
        raise EmptyGradientSet("no similarity scores")
    if np.any(r < 0.0):
        raise ValueError("similarity scores must be nonnegative")
    total = float(r.sum())
    if total <= 0.0:
        return LsrWeights(np.full(r.size, 1.0 / r.size), degenerate=True)
    return LsrWeights(r / total, degenerate=False)


def teacher_label_similarity(
    teacher_image_features,
    labels,
    class_bank,
    labels_b=None,
    lam=None,
):
    """Mean clamped cosine between each teacher image feature and the
    teacher's own class text vector for the sample's true label.

    Features and bank rows are unit-norm, so the cosine is a plain dot
    product; negative similarities clamp to zero. Soft (mixup) batches pass
    a secondary label set with per-sample mixing coefficients. Features of
    a block of n batches, (n, B, d) with (n, B) labels, give n scores.
    """
    u = _checked_stack(teacher_image_features, "teacher_image_features")
    bank = as_matrix(class_bank, "class_bank")
    sims_a = _label_sims(u, bank[np.asarray(labels, dtype=np.int64)])
    if labels_b is None:
        return np.mean(sims_a, axis=-1)
    lab_b = np.asarray(labels_b, dtype=np.int64)
    lam = np.asarray(lam, dtype=np.float64)
    sims_b = _label_sims(u, bank[lab_b])
    return np.mean(lam * sims_a + (1.0 - lam) * sims_b, axis=-1)


def _label_sims(u: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Each checked feature row's clamped cosine with its label's bank row,
    the same row of ``rows``. A row's value does not depend on the rows
    beside it, and leading stack axes, such as a block's batches and
    teachers, leave each row's bits as they are."""
    return np.maximum(np.sum(u * rows, axis=-1), 0.0)


@dataclass
class FrankWolfeResult:
    weights: np.ndarray        # simplex point over teachers
    iterations: int
    gap: float                 # final <d, d - g_t>
    converged: bool


def frank_wolfe_min_norm(gram, max_iter: int = 2000, tol: float = 1e-10) -> FrankWolfeResult:
    """Frank-Wolfe for the simplex-constrained min-norm point, on the Gram matrix.

    Starts uniform; each step picks the vertex t = argmin_k <g_k, d>
    (lowest index on ties) and line-searches along [d, g_t] with the
    closed-form two-point solution. Stops when the gap <d, d - g_t> drops
    to ``tol`` or the iteration budget runs out. Exact line search makes
    the objective non-increasing. Raises ``NonFiniteInput`` when the Gram
    matrix is not finite: a non-finite gradient entry makes a diagonal
    entry non-finite, and so do finite entries whose squares overflow.
    """
    gram = _gram_matrix(gram)
    k = gram.shape[0]
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not np.isfinite(gram).all():
        raise NonFiniteInput("Gram matrix contains non-finite entries")
    alpha = np.full(k, 1.0 / k)

    iterations = 0
    converged = False
    gap = 0.0
    for _ in range(max_iter):
        ga = gram @ alpha
        obj2 = float(alpha @ ga)          # <d, d>
        t = int(np.argmin(ga))
        ga_t, g_tt = float(ga[t]), float(gram[t, t])
        gap = obj2 - ga_t                 # <d, d - g_t>
        if gap <= tol:
            converged = True
            break
        # The closed-form min-norm point of the segment [d, g_t].
        denom = obj2 - 2.0 * ga_t + g_tt
        if denom < _TIE_EPS:
            gamma = 0.5
        else:
            # np.clip to [0, 1] in plain floats: -0.0 clips to 0.0, NaN stays.
            gamma = (g_tt - ga_t) / denom
            gamma = 0.0 if gamma <= 0.0 else min(gamma, 1.0)
        alpha *= gamma
        alpha[t] += 1.0 - gamma
        iterations += 1

    return FrankWolfeResult(weights=alpha, iterations=iterations, gap=gap, converged=converged)


@dataclass
class StationarityCertificate:
    passed: bool
    stationary: bool            # ||d|| within tol of zero
    slacks: np.ndarray          # <d, g_k> - ||d||^2 per teacher
    d_norm: float


def certify_pareto_stationarity(gram, alpha, tol: float) -> StationarityCertificate:
    """Check the min-norm variational inequality <d, g_k> >= ||d||^2 - tol
    at d = alpha @ g on the Gram matrix: slacks (G alpha)_k - alpha^T G alpha,
    ||d|| = sqrt(alpha^T G alpha).

    A vanishing d means no common descent direction exists and is reported
    as stationary (and passing) regardless of the slacks. Near d = 0,
    ||d|| read from G is off by the order of sqrt(eps) * max_k ||g_k||, eps
    the float64 epsilon (a negative alpha^T G alpha reads as 0), so
    ``stationary`` needs a ``tol`` well above that. The Gram matrix is the
    one ``frank_wolfe_min_norm`` already checked, so it is not checked for
    finiteness again; a NaN slack fails.
    """
    gram = _gram_matrix(gram)
    a = as_vector(alpha, "alpha")
    if a.size != gram.shape[0]:
        raise DimensionMismatch("weights do not match the Gram matrix")
    ga = gram @ a
    d_norm_sq = float(a @ ga)
    slacks = ga - d_norm_sq
    d_norm = math.sqrt(max(d_norm_sq, 0.0))
    stationary = d_norm <= tol
    passed = stationary or bool((slacks >= -tol).all())
    return StationarityCertificate(
        passed=passed, stationary=stationary, slacks=slacks, d_norm=d_norm
    )


# dsw's Frank-Wolfe budget and stopping gap, and its certificate's tolerance.
DSW_MAX_ITER = 100
DSW_TOL = 1e-10
DSW_CERT_TOL = 1e-6
