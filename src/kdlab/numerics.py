"""Dense float64 vector/matrix primitives shared by every other module.

A "matrix" throughout the package is a 2-D C-ordered ``numpy.float64``
array; the package passes plain arrays around and validates them at the
boundaries instead of wrapping every matrix in a class.

All randomness flows through :func:`seeded_rng`, which wraps numpy's
PCG64 bit generator: the algorithm is fixed and platform-independent, so
an identical ``(seed, key)`` always yields an identical stream.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput, NonPositiveTemperature

ZERO_NORM_EPS = 1e-12


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


def _checked_stack(x, name: str) -> np.ndarray:
    """``x`` as a finite float64 matrix, or a stack of them along one
    leading axis, which :func:`as_matrix` checks as one matrix."""
    a = np.ascontiguousarray(x, dtype=np.float64)
    if a.ndim != 3:
        return as_matrix(a, name)
    as_matrix(a.reshape(-1, a.shape[-1]), name)
    return a


def as_vector(x, name: str = "vector") -> np.ndarray:
    a = np.ascontiguousarray(x, dtype=np.float64)
    if a.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-D, got ndim={a.ndim}")
    if not _all_finite(a):
        raise NonFiniteInput(f"{name} contains non-finite entries")
    return a


def pairwise_logits(u, w) -> np.ndarray:
    """All inner products between rows of ``u`` (B x d) and rows of ``w`` (N x d)."""
    mu = as_matrix(u, "u")
    mw = as_matrix(w, "w")
    _check_dims(mu, mw)
    return mu @ mw.T


def _check_dims(u: np.ndarray, w: np.ndarray) -> None:
    if u.shape[1] != w.shape[1]:
        raise DimensionMismatch(f"feature dims differ: {u.shape[1]} vs {w.shape[1]}")


def _check_tau(tau: float) -> None:
    if not np.isfinite(tau) or tau <= 0.0:
        raise NonPositiveTemperature(f"tau must be > 0, got {tau}")


def softmax_rows(logits, tau: float) -> np.ndarray:
    """Row-wise temperature softmax, ``softmax(logits / tau)`` per row.

    Computed with per-row max subtraction so extreme logits stay finite.
    """
    _check_tau(tau)
    return _softmax(as_matrix(logits, "logits"), tau)


def log_softmax_rows(logits, tau: float) -> np.ndarray:
    """Row-wise log of the temperature softmax (stable against underflow)."""
    _check_tau(tau)
    return _log_softmax(as_matrix(logits, "logits"), tau)


# Unchecked kernels: the public functions above and the training step call
# these on arrays already checked at the boundary.


def _softmax(logits: np.ndarray, tau: float) -> np.ndarray:
    """Softmax over the last axis; a stack of matrices gives each row the
    bits it has in a matrix of its own."""
    if logits.size == 0:
        return logits.copy()
    z = logits / tau
    z -= z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax(logits: np.ndarray, tau: float) -> np.ndarray:
    """Log-softmax over the last axis, as :func:`_softmax` takes it."""
    if logits.size == 0:
        return logits.copy()
    z = logits / tau
    z -= z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Sums over the last axis, each as ``np.sum`` takes it over that row
    alone (pairwise). An array in another memory order, such as the gather
    ``log_q[..., labels, idx]``, would be reduced in another order, so the
    rows are made contiguous first."""
    return np.add.reduce(np.ascontiguousarray(a), axis=-1)


def _pair_log_softmax(u: np.ndarray, w: np.ndarray, tau: float) -> tuple[np.ndarray, ...]:
    """The contrastive distributions of image rows ``u`` against text rows
    ``w`` at ``tau``: image-to-text log-probabilities (B x N) and their exp,
    then text-to-image (N x B) and their exp. With a leading member axis on
    both, (S, B, d) and (S, N, d), each member's pair has its own bits."""
    log_p = _log_softmax(u @ w.swapaxes(-1, -2), tau)
    log_q = _log_softmax(w @ u.swapaxes(-1, -2), tau)
    return log_p, np.exp(log_p), log_q, np.exp(log_q)
