"""Independent numerical oracles used to check analytic results.

The finite-difference helpers stay deliberately naive: central
differences for gradients and direct elementwise arithmetic for values,
so they share no code with the implementations they verify. The reference
implementations below them are what the tests compare the library
against: the closed-form two-teacher min-norm point, the exhaustive
simplex-grid min-norm search, a scalar KL divergence, the
probability-matrix invariants, the cross-entropy logit gradient, a
per-array Adam update, a fresh Adam state and zero gradients for the
public ``adam_step``, a parameter fingerprint, the mixup soft-label
contrastive loss and bank scatter written with ``np.add.at``, and a plain
student forward with the distillation objective of one batch. No run calls
them, so they live here, not in ``kdlab``.
"""

import hashlib
from itertools import combinations

import numpy as np

from kdlab.encoder import AdamState, EncoderGrads
from kdlab.errors import DimensionMismatch, EmptyGradientSet, NotADistribution, ShapeMismatch
from kdlab.numerics import as_matrix, as_vector

FD_STEP = 1e-5
REL_FLOOR = 1e-3


def central_diff_grad(f, x, step=FD_STEP):
    """Central finite-difference gradient of scalar f w.r.t. array x."""
    x = np.array(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = f(x)
        flat[i] = orig - step
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * step)
    return g


def rel_errors(analytic, numeric, floor=REL_FLOOR):
    """Elementwise relative error with a floor so near-zero coordinates are
    judged on absolute error instead of blowing up."""
    a = np.asarray(analytic, dtype=np.float64)
    b = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(b)))
    return np.abs(a - b) / denom


def fraction_within(analytic, numeric, tol=1e-5, floor=REL_FLOOR):
    errs = rel_errors(analytic, numeric, floor)
    return float(np.mean(errs <= tol)) if errs.size else 1.0


_SEGMENT_TIE_EPS = 1e-18


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
    if denom < _SEGMENT_TIE_EPS:
        gamma = 0.5
    else:
        gamma = float(np.clip((b - a) @ b / denom, 0.0, 1.0))
    return gamma, gamma * a + (1.0 - gamma) * b


_MAX_BRUTE_TEACHERS = 4
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
    """Exhaustive min-norm search over the simplex lattice.

    Capped at four teachers; the lattice is a subset of the simplex so the
    returned objective upper-bounds the true minimum.
    """
    g = np.asarray(grads, dtype=np.float64)
    if g.ndim != 2:
        raise DimensionMismatch("gradient set must be a K x P matrix")
    k = g.shape[0]
    if k == 0:
        raise EmptyGradientSet("gradient set has zero teachers")
    if k > _MAX_BRUTE_TEACHERS:
        raise ValueError(f"brute force capped at {_MAX_BRUTE_TEACHERS} teachers")
    steps = round(1.0 / grid_step)
    if abs(steps * grid_step - 1.0) > 1e-9 or steps < 1:
        raise ValueError(f"grid_step {grid_step} must divide 1")
    lattice = simplex_grid(k, steps)
    gram = g @ g.T
    objectives = 0.5 * np.einsum("ij,jk,ik->i", lattice, gram, lattice)
    best = int(np.argmin(objectives))
    return lattice[best].copy(), float(objectives[best])


ROW_SUM_TOL = 1e-9
KL_FLOOR = 1e-12


def check_prob_matrix(p, tol: float = ROW_SUM_TOL) -> np.ndarray:
    """Validate the probability-matrix invariants: entries in [0, 1] and
    rows summing to 1 within ``tol``. Returns the array."""
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


def ce_grad_wrt_logits(p_student: np.ndarray, p_teacher: np.ndarray) -> np.ndarray:
    """Gradient of mean-row cross-entropy CE(teacher, student) w.r.t. the
    student logits, composed through the full softmax Jacobian.

    Independent derivation used to confirm it coincides with
    ``distill.kl_grad_wrt_logits`` (the teacher entropy term is constant):
    J_softmax^T v with v = -p_T / p_S gives p * v - p (p . v) per row.
    """
    if p_student.shape != p_teacher.shape:
        raise ShapeMismatch("distribution shapes differ")
    v = -p_teacher / np.maximum(p_student, 1e-300)
    pv = np.sum(p_student * v, axis=1, keepdims=True)
    return (p_student * v - p_student * pv) / p_student.shape[0]


def param_fingerprint(params) -> str:
    """Hash of an encoder's config plus raw parameter bytes; detects any
    mutation."""
    h = hashlib.sha256()
    h.update(repr(params.config).encode())
    for a in params.weights + params.biases:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def adam_per_array(weights, biases, grads_w, grads_b, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One bias-corrected Adam update (step ``t``) of each array on its own:
    the reference the flat, in-place update must match bit for bit. ``m``
    and ``v`` are lists of the moment arrays, weights then biases. Returns
    the new (params, m, v) lists in the same order."""
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    out_p, out_m, out_v = [], [], []
    for p, g, mi, vi in zip(list(weights) + list(biases), list(grads_w) + list(grads_b), m, v):
        m_new = beta1 * mi + (1.0 - beta1) * g
        v_new = beta2 * vi + (1.0 - beta2) * g * g
        out_p.append(p - lr * (m_new / c1) / (np.sqrt(v_new / c2) + eps))
        out_m.append(m_new)
        out_v.append(v_new)
    return out_p, out_m, out_v


def zero_grads(params) -> EncoderGrads:
    """Zero gradients shaped like ``params``' weights and biases."""
    return EncoderGrads(
        [np.zeros_like(w) for w in params.weights], [np.zeros_like(b) for b in params.biases]
    )


def init_adam(params, lr: float) -> AdamState:
    """The Adam state before the first step at rate ``lr``: zero moments."""
    return AdamState(lr=lr, t=0, m=zero_grads(params), v=zero_grads(params))


def mixed_clip_loss_add_at(u, w, tau, labels_a, labels_b, lam):
    """The contrastive loss under mixup soft labels, with its soft targets
    and counts accumulated by ``np.add.at`` into zeros, weights a then b:
    (value, grad_image, grad_text)."""
    logits = u @ w.T / tau
    logits -= logits.max(axis=1, keepdims=True)
    log_p = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    logits = w @ u.T / tau
    logits -= logits.max(axis=1, keepdims=True)
    log_q = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    p, q = np.exp(log_p), np.exp(log_q)
    b_sz, n_cand = u.shape[0], w.shape[0]
    idx = np.arange(b_sz)
    wa, wb = lam, 1.0 - lam
    target = np.zeros((b_sz, n_cand))
    sel = np.zeros((n_cand, b_sz))
    counts = np.zeros(n_cand)
    np.add.at(target, (idx, labels_a), wa)
    np.add.at(target, (idx, labels_b), wb)
    np.add.at(sel, (labels_a, idx), wa)
    np.add.at(sel, (labels_b, idx), wb)
    np.add.at(counts, labels_a, wa)
    np.add.at(counts, labels_b, wb)
    t2i_sum = np.sum(wa * log_q[labels_a, idx]) + np.sum(wb * log_q[labels_b, idx])
    l_i2t = float(-np.sum(target * log_p) / b_sz)
    l_t2i = float(-t2i_sum / b_sz)
    g_i2t = (p - target) / b_sz
    g_t2i = (counts[:, None] * q - sel) / b_sz
    scale = 0.5 / tau
    grad_u = scale * (g_i2t @ w + g_t2i.T @ w)
    grad_w = scale * (g_i2t.T @ u + g_t2i @ u)
    return 0.5 * (l_i2t + l_t2i), grad_u, grad_w


def soft_scatter_add_at(grad_rows, labels_a, labels_b, lam, n_rows):
    """Row gradients of soft-gathered bank rows scattered back to the bank
    by two ``np.add.at`` calls, the a-weighted rows then the b-weighted."""
    out = np.zeros((n_rows, grad_rows.shape[1]))
    np.add.at(out, labels_a, lam[:, None] * grad_rows)
    np.add.at(out, labels_b, (1.0 - lam)[:, None] * grad_rows)
    return out


def unflatten(flat, dims):
    """An encoder's (weights, biases) read from the front of a flat vector
    laid out W0, W1, ..., b0, b1, ... for layer widths ``dims``, and the
    number of entries they take."""
    shapes = list(zip(dims[:-1], dims[1:])) + [(d,) for d in dims[1:]]
    arrays, start = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        arrays.append(flat[start : start + size].reshape(shape))
        start += size
    n = len(dims) - 1
    return arrays[:n], arrays[n:], start


_ACTIVATIONS = {"relu": lambda z: np.maximum(z, 0.0), "tanh": np.tanh, "identity": lambda z: z}


def mlp_features(weights, biases, activation: str, x) -> np.ndarray:
    """Unit-norm output rows of an affine stack with ``activation`` after
    each hidden layer and no dropout."""
    h = np.asarray(x, dtype=np.float64)
    for w, b in zip(weights[:-1], biases[:-1]):
        h = _ACTIVATIONS[activation](h @ w + b)
    out = h @ weights[-1] + biases[-1]
    return out / np.sqrt(np.sum(out * out, axis=1, keepdims=True))


def _log_softmax_rows(z):
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def lsr_alpha(teacher_feats, teacher_banks, labels) -> np.ndarray:
    """``lsr``'s weights: each teacher's mean clamped cosine between its
    image features and its bank row of each label, normalized to sum 1."""
    scores = np.array([
        np.mean(np.maximum(np.sum(u * bank[labels], axis=1), 0.0))
        for u, bank in zip(teacher_feats, teacher_banks)
    ])
    return scores / scores.sum()


def distill_objective(theta, config, dims, x, anchors, labels, teacher_feats, teacher_banks, alpha):
    """The student objective of one batch, as ``distill.total_loss``
    documents it, with the teacher weights ``alpha`` held fixed:

        clip + r_kl * sum_j alpha_j (KL_i2t_j + KL_t2i_j) + r_mse * MSE,

    each term times its ratio in ``config.loss_ratios``, without the KL
    and MSE terms under ``base``. ``theta`` is the image then the text
    encoder's flat vector (layer widths ``dims``), ``x`` the batch's image
    rows, ``anchors`` the class text anchors, and ``teacher_feats`` and
    ``teacher_banks`` each teacher's image features and class bank, of the
    student's output dim. Clip is the mean of the image-to-text and
    text-to-image cross-entropies at ``tau_student``; each KL is the
    mean-row KL from the teacher's distributions at ``tau_teacher`` to the
    student's at ``tau_distill``; the MSE compares the image features and
    the bank rows of the labels, against the alpha-weighted teacher targets
    (``weighted_target``) or against each teacher's, alpha-weighted
    (``per_teacher``). Returns (total, clip, weighted KL, MSE)."""
    w_img, b_img, n_img = unflatten(theta, dims[0])
    w_txt, b_txt, _ = unflatten(theta[n_img:], dims[1])
    u = mlp_features(w_img, b_img, config.student.activation, x)
    w = mlp_features(w_txt, b_txt, config.student.activation, anchors)
    rows = np.arange(u.shape[0])
    tau = config.tau_student
    clip = -0.5 * (
        np.mean(_log_softmax_rows(u @ w.T / tau)[rows, labels])
        + np.mean(_log_softmax_rows(w @ u.T / tau)[labels, rows])
    )
    r_clip, r_kl, r_mse = config.loss_ratios
    if config.strategy == "base":
        return r_clip * clip, clip, 0.0, 0.0
    log_p = _log_softmax_rows(u @ w.T / config.tau_distill)
    log_q = _log_softmax_rows(w @ u.T / config.tau_distill)
    kl = 0.0
    for a, u_t, bank_t in zip(alpha, teacher_feats, teacher_banks):
        p_t = np.exp(_log_softmax_rows(u_t @ bank_t.T / config.tau_teacher))
        q_t = np.exp(_log_softmax_rows(bank_t @ u_t.T / config.tau_teacher))
        kl += a * (
            np.sum(p_t * (np.log(p_t) - log_p)) / p_t.shape[0]
            + np.sum(q_t * (np.log(q_t) - log_q)) / q_t.shape[0]
        )
    w_rows = w[labels]
    if config.mse_mode == "weighted_target":
        u_target = sum(a * u_t for a, u_t in zip(alpha, teacher_feats))
        w_target = sum(a * bank_t[labels] for a, bank_t in zip(alpha, teacher_banks))
        mse = np.mean((u - u_target) ** 2) + np.mean((w_rows - w_target) ** 2)
    else:
        mse = sum(
            a * (np.mean((u - u_t) ** 2) + np.mean((w_rows - bank_t[labels]) ** 2))
            for a, u_t, bank_t in zip(alpha, teacher_feats, teacher_banks)
        )
    return r_clip * clip + r_kl * kl + r_mse * mse, clip, kl, mse
