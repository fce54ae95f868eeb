"""Teacher-weighting strategies.

Four strategies are exposed through the trainer: ``base`` (no
distillation), ``avg`` (uniform weights), ``lsr`` (label-similarity
ratios), and ``dsw`` (min-norm weights over the per-teacher gradient
hull). The min-norm problem

    min_alpha 0.5 * || sum_k alpha_k g_k ||^2   s.t. alpha on the simplex

is solved by Frank-Wolfe with exact line search on the Gram matrix; a
closed form covers two teachers and an exhaustive simplex-grid oracle
covers up to four. When the combined direction d is nonzero, -d descends
every teacher objective simultaneously, which the stationarity
certificate checks through the variational inequality
<d, g_k> >= ||d||^2 for all k.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DimensionMismatch, EmptyGradientSet, TooManyTeachers
from .numerics import as_matrix, as_vector

_MAX_BRUTE_TEACHERS = 4
_TIE_EPS = 1e-18


@dataclass(frozen=True)
class TeacherGradientSet:
    """K flattened per-teacher gradients over the shared student parameters."""

    gradients: np.ndarray      # K x P
    objectives: np.ndarray     # K

    @classmethod
    def from_rows(cls, rows, objectives=None) -> "TeacherGradientSet":
        """From a K x P matrix, or a sequence of K gradient vectors."""
        g = as_matrix(rows)
        obj = (
            np.zeros(g.shape[0])
            if objectives is None
            else np.asarray(objectives, dtype=np.float64)
        )
        return cls(gradients=g, objectives=obj)


def _grad_matrix(grads) -> np.ndarray:
    if isinstance(grads, TeacherGradientSet):
        g = grads.gradients
    else:
        g = np.asarray(grads, dtype=np.float64)
    if g.ndim != 2:
        raise DimensionMismatch("gradient set must be a K x P matrix")
    if g.shape[0] == 0:
        raise EmptyGradientSet("gradient set has zero teachers")
    return g


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
) -> float:
    """Mean clamped cosine between each teacher image feature and the
    teacher's own class text vector for the sample's true label.

    Features and bank rows are unit-norm, so the cosine is a plain dot
    product; negative similarities clamp to zero. Soft (mixup) batches pass
    a secondary label set with per-sample mixing coefficients.
    """
    u = as_matrix(teacher_image_features, "teacher_image_features")
    bank = as_matrix(class_bank, "class_bank")
    lab = np.asarray(labels, dtype=np.int64)
    sims_a = np.maximum(np.sum(u * bank[lab], axis=1), 0.0)
    if labels_b is None:
        return float(np.mean(sims_a))
    lab_b = np.asarray(labels_b, dtype=np.int64)
    lam = np.asarray(lam, dtype=np.float64)
    sims_b = np.maximum(np.sum(u * bank[lab_b], axis=1), 0.0)
    return float(np.mean(lam * sims_a + (1.0 - lam) * sims_b))


def min_norm_2(g1, g2) -> tuple[float, np.ndarray]:
    """Closed-form min-norm point on the segment [g1, g2].

    Returns (gamma, d) with d = gamma * g1 + (1 - gamma) * g2 and gamma the
    clamped minimizer ((g2 - g1) . g2) / ||g1 - g2||^2; coincident
    endpoints tie-break to gamma = 0.5.
    """
    a = as_vector(g1, "g1")
    b = as_vector(g2, "g2")
    if a.shape != b.shape:
        raise DimensionMismatch(f"lengths differ: {a.size} vs {b.size}")
    diff = a - b
    denom = float(diff @ diff)
    if denom < _TIE_EPS:
        gamma = 0.5
    else:
        gamma = float(np.clip((b - a) @ b / denom, 0.0, 1.0))
    return gamma, gamma * a + (1.0 - gamma) * b


@dataclass
class FrankWolfeResult:
    weights: np.ndarray        # simplex point over teachers
    direction: np.ndarray      # d = sum_k alpha_k g_k
    objective: float           # 0.5 * ||d||^2
    iterations: int
    gap: float                 # final <d, d - g_t>
    converged: bool
    objective_trace: list[float]


def frank_wolfe_min_norm(grads, max_iter: int = 2000, tol: float = 1e-10) -> FrankWolfeResult:
    """Frank-Wolfe for the simplex-constrained min-norm point.

    Starts uniform; each step picks the vertex t = argmin_k <g_k, d>
    (lowest index on ties) and line-searches along [d, g_t] with the
    closed-form two-point solution. Stops when the gap <d, d - g_t> drops
    to ``tol`` or the iteration budget runs out. Exact line search makes
    the objective non-increasing.
    """
    g = _grad_matrix(grads)
    k = g.shape[0]
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    gram = g @ g.T
    alpha = np.full(k, 1.0 / k)

    iterations = 0
    converged = False
    gap = 0.0
    trace: list[float] = []
    for _ in range(max_iter):
        ga = gram @ alpha
        obj2 = float(alpha @ ga)          # <d, d>
        trace.append(0.5 * obj2)
        t = int(np.argmin(ga))
        gap = obj2 - float(ga[t])         # <d, d - g_t>
        if gap <= tol:
            converged = True
            break
        # min_norm_2(d, g_t) evaluated on the Gram matrix.
        denom = obj2 - 2.0 * float(ga[t]) + float(gram[t, t])
        if denom < _TIE_EPS:
            gamma = 0.5
        else:
            gamma = float(np.clip((gram[t, t] - ga[t]) / denom, 0.0, 1.0))
        alpha = gamma * alpha
        alpha[t] += 1.0 - gamma
        iterations += 1

    direction = alpha @ g
    objective = 0.5 * float(alpha @ gram @ alpha)
    return FrankWolfeResult(
        weights=alpha,
        direction=direction,
        objective=objective,
        iterations=iterations,
        gap=gap,
        converged=converged,
        objective_trace=trace,
    )


_GRID_CACHE: dict[tuple[int, int], np.ndarray] = {}


def simplex_grid(k: int, steps: int) -> np.ndarray:
    """All lattice points with coordinates i/steps on the (k-1)-simplex."""
    key = (k, steps)
    if key not in _GRID_CACHE:
        points = []
        for cuts in combinations(range(steps + k - 1), k - 1):
            prev = -1
            counts = []
            for c in cuts:
                counts.append(c - prev - 1)
                prev = c
            counts.append(steps + k - 2 - prev)
            points.append(counts)
        _GRID_CACHE[key] = np.asarray(points, dtype=np.float64) / steps
    return _GRID_CACHE[key]


def brute_force_min_norm(grads, grid_step: float) -> tuple[np.ndarray, float]:
    """Exhaustive min-norm search over the simplex lattice (test oracle).

    Capped at four teachers; the lattice is a subset of the simplex so the
    returned objective upper-bounds the true minimum.
    """
    g = _grad_matrix(grads)
    k = g.shape[0]
    if k > _MAX_BRUTE_TEACHERS:
        raise TooManyTeachers(f"brute force capped at {_MAX_BRUTE_TEACHERS} teachers")
    steps = round(1.0 / grid_step)
    if abs(steps * grid_step - 1.0) > 1e-9 or steps < 1:
        raise ValueError(f"grid_step {grid_step} must divide 1")
    lattice = simplex_grid(k, steps)
    gram = g @ g.T
    objectives = 0.5 * np.einsum("ij,jk,ik->i", lattice, gram, lattice)
    best = int(np.argmin(objectives))
    return lattice[best].copy(), float(objectives[best])


@dataclass
class StationarityCertificate:
    passed: bool
    stationary: bool            # ||d|| within tol of zero
    slacks: np.ndarray          # <d, g_k> - ||d||^2 per teacher
    d_norm: float


def certify_pareto_stationarity(d, grads, tol: float) -> StationarityCertificate:
    """Check the min-norm variational inequality <d, g_k> >= ||d||^2 - tol.

    A vanishing d means no common descent direction exists and is reported
    as stationary (and passing) regardless of the slacks.
    """
    dv = as_vector(d, "d")
    g = _grad_matrix(grads)
    if g.shape[1] != dv.size:
        raise DimensionMismatch("direction length does not match gradients")
    d_norm_sq = float(dv @ dv)
    slacks = g @ dv - d_norm_sq
    stationary = bool(np.sqrt(d_norm_sq) <= tol)
    passed = stationary or bool(np.all(slacks >= -tol))
    return StationarityCertificate(
        passed=passed,
        stationary=stationary,
        slacks=slacks,
        d_norm=float(np.sqrt(d_norm_sq)),
    )


DSW_MAX_ITER = 100
DSW_TOL = 1e-10


def dsw_weights(grads) -> np.ndarray:
    """Dynamic teacher weights: the min-norm simplex point at the training
    defaults (a small fixed iteration budget per batch)."""
    return frank_wolfe_min_norm(grads, max_iter=DSW_MAX_ITER, tol=DSW_TOL).weights


def is_valid_simplex(weights, tol: float = 1e-9) -> bool:
    w = np.asarray(weights, dtype=np.float64)
    return (
        w.ndim == 1
        and w.size >= 1
        and bool(np.all(w >= -tol))
        and abs(float(w.sum()) - 1.0) <= tol
    )
