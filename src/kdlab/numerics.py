"""Dense float64 vector/matrix primitives shared by every other module.

A "matrix" throughout the package is a 2-D C-ordered ``numpy.float64``
array; a probability matrix is a matrix whose rows are distributions
(entries in [0, 1], rows summing to 1 within ``ROW_SUM_TOL``).

All randomness flows through :func:`seeded_rng`, which wraps numpy's
PCG64 bit generator: the algorithm is fixed and platform-independent, so
an identical ``(seed, key)`` always yields an identical stream.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DimensionMismatch,
    NonFiniteInput,
    NonPositiveTemperature,
    NotADistribution,
    ZeroVector,
)

# Alias types: the package passes plain arrays around and validates at the
# boundaries instead of wrapping every matrix in a class.
DenseMatrix = np.ndarray
ProbMatrix = np.ndarray
SeededRng = np.random.Generator

ZERO_NORM_EPS = 1e-12
ROW_SUM_TOL = 1e-9
KL_FLOOR = 1e-12


def seeded_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic PCG64 generator for ``seed`` plus an optional stream key.

    Distinct keys give independent streams derived from the same master
    seed, which is how the trainer separates init / shuffling / corruption
    randomness without the streams interfering.
    """
    entropy = (int(seed),) + tuple(int(k) for k in key)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry is finite. A finite sum implies finite entries,
    so the entrywise test runs only when the sum is not finite: a NaN or
    an infinity, or finite entries whose sum overflows (numpy then warns
    about the overflow, and the entrywise test accepts the array)."""
    return math.isfinite(a.sum()) or bool(np.isfinite(a).all())


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float64 array, raising on bad shape/content."""
    a = np.ascontiguousarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got ndim={a.ndim}")
    if not _all_finite(a):
        raise NonFiniteInput(f"{name} contains non-finite entries")
    return a


def as_vector(x, name: str = "vector") -> np.ndarray:
    a = np.ascontiguousarray(x, dtype=np.float64)
    if a.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-D, got ndim={a.ndim}")
    if not _all_finite(a):
        raise NonFiniteInput(f"{name} contains non-finite entries")
    return a


def l2_normalize(v) -> np.ndarray:
    """Scale a vector to unit Euclidean norm, preserving direction."""
    a = as_vector(v)
    if a.size == 0:
        raise DimensionMismatch("cannot normalize an empty vector")
    norm = float(np.linalg.norm(a))
    if norm < ZERO_NORM_EPS:
        raise ZeroVector(f"vector norm {norm:.3e} below {ZERO_NORM_EPS:.0e}")
    return a / norm


def normalize_rows(m) -> np.ndarray:
    """Row-wise L2 normalization of a matrix."""
    a = as_matrix(m)
    norms = np.linalg.norm(a, axis=1, keepdims=True)
    if np.any(norms < ZERO_NORM_EPS):
        raise ZeroVector("a row has near-zero norm")
    return a / norms


def cosine_sim(a, b) -> float:
    """Cosine of the angle between two vectors, clamped to [-1, 1]."""
    va = as_vector(a, "a")
    vb = as_vector(b, "b")
    if va.shape != vb.shape:
        raise DimensionMismatch(f"lengths differ: {va.size} vs {vb.size}")
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na < ZERO_NORM_EPS or nb < ZERO_NORM_EPS:
        raise ZeroVector("cosine similarity of a near-zero vector")
    return float(np.clip(np.dot(va, vb) / (na * nb), -1.0, 1.0))


def pairwise_logits(u, w) -> np.ndarray:
    """All inner products between rows of ``u`` (B x d) and rows of ``w`` (N x d)."""
    mu = as_matrix(u, "u")
    mw = as_matrix(w, "w")
    if mu.shape[1] != mw.shape[1]:
        raise DimensionMismatch(
            f"feature dims differ: {mu.shape[1]} vs {mw.shape[1]}"
        )
    return mu @ mw.T


def softmax_rows(logits, tau: float) -> np.ndarray:
    """Row-wise temperature softmax, ``softmax(logits / tau)`` per row.

    Computed with per-row max subtraction so extreme logits stay finite.
    """
    if not np.isfinite(tau) or tau <= 0.0:
        raise NonPositiveTemperature(f"tau must be > 0, got {tau}")
    z = as_matrix(logits, "logits")
    if z.size == 0:
        return z.copy()
    z = z / tau
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def log_softmax_rows(logits, tau: float) -> np.ndarray:
    """Row-wise log of the temperature softmax (stable against underflow)."""
    if not np.isfinite(tau) or tau <= 0.0:
        raise NonPositiveTemperature(f"tau must be > 0, got {tau}")
    z = as_matrix(logits, "logits")
    if z.size == 0:
        return z.copy()
    z = z / tau
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def check_prob_matrix(p, tol: float = ROW_SUM_TOL) -> np.ndarray:
    """Validate the probability-matrix invariants, returning the array."""
    a = as_matrix(p, "prob matrix")
    if a.size == 0:
        return a
    if np.any(a < 0.0) or np.any(a > 1.0):
        raise NotADistribution("entries outside [0, 1]")
    sums = a.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > tol):
        raise NotADistribution(f"row sums deviate from 1 beyond {tol:.0e}")
    return a


def _check_prob_row(p, name: str) -> np.ndarray:
    a = as_vector(p, name)
    if np.any(a < -ROW_SUM_TOL):
        raise NotADistribution(f"{name} has negative entries")
    if abs(float(a.sum()) - 1.0) > ROW_SUM_TOL:
        raise NotADistribution(f"{name} does not sum to 1")
    return a


def kl_divergence(p, q) -> float:
    """KL divergence sum_j p_j ln(p_j / q_j) between two probability rows.

    Uses the 0 * ln(0/q) = 0 convention and floors q at ``KL_FLOOR`` before
    the log so zero teacher probabilities cannot produce infinities. The
    result is clamped at zero against rounding (true KL is nonnegative).
    """
    vp = _check_prob_row(p, "p")
    vq = _check_prob_row(q, "q")
    if vp.shape != vq.shape:
        raise DimensionMismatch(f"lengths differ: {vp.size} vs {vq.size}")
    qc = np.maximum(vq, KL_FLOOR)
    mask = vp > 0.0
    val = float(np.sum(vp[mask] * (np.log(vp[mask]) - np.log(qc[mask]))))
    return max(val, 0.0)
