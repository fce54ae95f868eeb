"""Small affine-stack encoders with exact manual backpropagation.

An encoder is a stack of affine layers with an elementwise activation and
optional inverted dropout on the hidden activations; the final affine
output is L2-normalized per row, so encoders always emit unit feature
vectors. The same type serves frozen teachers and the trainable student.

``encode`` returns the features together with a :class:`ForwardTape`
caching everything the reverse pass needs, including the normalization
Jacobian inputs. :func:`backward` consumes a tape exactly once;
:func:`vjp` is the reusable pure core for callers (the multi-objective
weighting path) that legitimately need several vector-Jacobian products
through one forward pass.

``vjp`` also takes a stack of K cotangents, shape ``(K, B, d)``, and runs
them through the tape in one reverse pass; every returned array then
carries the leading K axis. Each slice is bit-identical to a separate
2-D call with that cotangent: the stacked matmuls run the same BLAS
product per slice, and every reduction keeps its order.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import FormatVersionMismatch, ShapeMismatch, TapeReused, ZeroVector
from .numerics import ZERO_NORM_EPS, as_matrix

ACTIVATIONS = ("relu", "tanh", "identity")

_CKPT_MAGIC = b"KDLABENC"
_CKPT_VERSION = 1


@dataclass(frozen=True)
class EncoderConfig:
    """Architecture of one encoder: input width, hidden widths, output dim."""

    input_dim: int
    hidden_widths: tuple[int, ...] = ()
    output_dim: int = 16
    activation: str = "relu"
    dropout_p: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "hidden_widths", tuple(int(w) for w in self.hidden_widths))
        dims = (self.input_dim, *self.hidden_widths, self.output_dim)
        if any(d < 1 for d in dims):
            raise ShapeMismatch(f"all layer dims must be >= 1, got {dims}")
        if self.activation not in ACTIVATIONS:
            raise ShapeMismatch(f"unknown activation {self.activation!r}")
        if not (0.0 <= self.dropout_p < 1.0):
            raise ShapeMismatch(f"dropout_p must lie in [0, 1), got {self.dropout_p}")

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_widths, self.output_dim)

    @property
    def n_layers(self) -> int:
        return len(self.hidden_widths) + 1


@dataclass
class EncoderParams:
    """Per-layer weight matrices (fan_in x fan_out) and bias vectors."""

    config: EncoderConfig
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def copy(self) -> "EncoderParams":
        return EncoderParams(
            self.config,
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
        )

    def n_params(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)


@dataclass
class EncoderGrads:
    """Gradient arrays mirroring the shapes of :class:`EncoderParams`."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @classmethod
    def zeros_like(cls, params: EncoderParams) -> "EncoderGrads":
        return cls(
            [np.zeros_like(w) for w in params.weights],
            [np.zeros_like(b) for b in params.biases],
        )

    def flatten(self) -> np.ndarray:
        """All gradients as one vector in the order W0, W1, ..., b0, b1, ...;
        gradients from a stacked :func:`vjp` give a K x P matrix of those."""
        parts = self.weights + self.biases
        if not parts:
            return np.zeros(0)
        lead = self.biases[0].shape[:-1]  # () or (K,)
        return np.concatenate([a.reshape(*lead, -1) for a in parts], axis=-1)


@dataclass
class ForwardTape:
    """Cached activations from one forward pass, consumed by one backward."""

    params: EncoderParams
    layer_inputs: list[np.ndarray]  # input to each affine layer
    pre_acts: list[np.ndarray]      # hidden pre-activations
    act_values: list[np.ndarray]    # hidden activations before dropout
    masks: list[np.ndarray | None]  # inverted dropout masks (None when off)
    raw_out: np.ndarray             # pre-normalization output rows
    norms: np.ndarray               # row norms of raw_out, shape (B, 1)
    features: np.ndarray            # normalized output rows
    train_mode: bool
    consumed: bool = field(default=False)


def init_params(config: EncoderConfig, rng: np.random.Generator) -> EncoderParams:
    """Fan-in scaled uniform weights, zero biases; deterministic given the rng."""
    weights, biases = [], []
    dims = config.layer_dims
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = 1.0 / math.sqrt(fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return EncoderParams(config, weights, biases)


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "tanh":
        return np.tanh(z)
    return z


def _activation_deriv(name: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    if name == "relu":
        return (z > 0.0).astype(np.float64)
    if name == "tanh":
        return 1.0 - a * a
    return np.ones_like(z)


def encode(
    params: EncoderParams,
    x,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, ForwardTape]:
    """Forward pass producing unit-norm feature rows and a backward tape.

    Dropout is applied to hidden activations only, with inverted scaling,
    and only when ``train_mode`` is set; evaluation passes never touch the
    rng, so repeated eval calls are identical.
    """
    cfg = params.config
    xm = as_matrix(x, "x")
    if xm.shape[1] != cfg.input_dim:
        raise ShapeMismatch(f"input dim {xm.shape[1]} != config {cfg.input_dim}")

    use_dropout = train_mode and cfg.dropout_p > 0.0
    if use_dropout and rng is None:
        raise ValueError("train_mode with dropout requires an rng")

    h = xm
    layer_inputs: list[np.ndarray] = []
    pre_acts: list[np.ndarray] = []
    act_values: list[np.ndarray] = []
    masks: list[np.ndarray | None] = []
    n_hidden = len(cfg.hidden_widths)
    for i in range(n_hidden):
        layer_inputs.append(h)
        z = h @ params.weights[i] + params.biases[i]
        a = _activate(cfg.activation, z)
        if use_dropout:
            mask = (rng.random(a.shape) >= cfg.dropout_p) / (1.0 - cfg.dropout_p)
            h = a * mask
        else:
            mask = None
            h = a
        pre_acts.append(z)
        act_values.append(a)
        masks.append(mask)

    layer_inputs.append(h)
    raw = h @ params.weights[-1] + params.biases[-1]
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    if raw.shape[0] and float(norms.min()) < ZERO_NORM_EPS:
        raise ZeroVector("a pre-normalization output row has near-zero norm")
    features = raw / norms if raw.shape[0] else raw.copy()

    tape = ForwardTape(
        params=params,
        layer_inputs=layer_inputs,
        pre_acts=pre_acts,
        act_values=act_values,
        masks=masks,
        raw_out=raw,
        norms=norms,
        features=features,
        train_mode=train_mode,
    )
    return features, tape


def vjp(tape: ForwardTape, grad_features) -> tuple[EncoderGrads, np.ndarray]:
    """Pure vector-Jacobian product through the pass recorded on ``tape``.

    Returns (parameter gradients, gradient w.r.t. the input batch). Safe to
    call repeatedly on one tape; use :func:`backward` for the consume-once
    contract. A stacked ``(K, B, d)`` cotangent gives K products in one
    pass, each array with a leading K axis (see the module docstring).
    """
    cfg = tape.params.config
    gy = np.ascontiguousarray(grad_features, dtype=np.float64)
    as_matrix(gy.reshape(-1, gy.shape[-1]) if gy.ndim == 3 else gy, "grad_features")
    if gy.shape[-2:] != tape.features.shape:
        raise ShapeMismatch(
            f"grad shape {gy.shape} != features shape {tape.features.shape}"
        )

    # Through y = v / ||v||: dv = (dy - (dy . y) y) / ||v||.
    y = tape.features
    rowdot = np.sum(gy * y, axis=-1, keepdims=True)
    g = (gy - rowdot * y) / tape.norms

    weights = tape.params.weights
    biases = tape.params.biases
    n_hidden = len(cfg.hidden_widths)
    g_w = [None] * len(weights)
    g_b = [None] * len(biases)

    g_w[-1] = tape.layer_inputs[-1].T @ g
    g_b[-1] = g.sum(axis=-2)
    g = g @ weights[-1].T

    for i in range(n_hidden - 1, -1, -1):
        if tape.masks[i] is not None:
            g = g * tape.masks[i]
        g = g * _activation_deriv(cfg.activation, tape.pre_acts[i], tape.act_values[i])
        g_w[i] = tape.layer_inputs[i].T @ g
        g_b[i] = g.sum(axis=-2)
        g = g @ weights[i].T

    return EncoderGrads(list(g_w), list(g_b)), g


def backward(tape: ForwardTape, grad_features) -> tuple[EncoderGrads, np.ndarray]:
    """Consume a tape, returning (parameter gradients, input gradients)."""
    if tape.consumed:
        raise TapeReused("tape already consumed by a backward pass")
    result = vjp(tape, grad_features)
    tape.consumed = True
    return result


@dataclass(frozen=True)
class AdamState:
    """Adam moment accumulators plus hyperparameters; ``t`` is the step count."""

    lr: float
    beta1: float
    beta2: float
    eps: float
    t: int
    m: EncoderGrads
    v: EncoderGrads


def init_adam(
    params: EncoderParams,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> AdamState:
    return AdamState(
        lr=lr,
        beta1=beta1,
        beta2=beta2,
        eps=eps,
        t=0,
        m=EncoderGrads.zeros_like(params),
        v=EncoderGrads.zeros_like(params),
    )


def with_lr(state: AdamState, lr: float) -> AdamState:
    """Copy of the state with a different learning rate (for schedules)."""
    return replace(state, lr=lr)


def adam_step(
    params: EncoderParams, grads: EncoderGrads, state: AdamState
) -> tuple[EncoderParams, AdamState]:
    """One bias-corrected Adam update; pure, returns new params and state."""
    for p, g in zip(params.weights + params.biases, grads.weights + grads.biases):
        if p.shape != g.shape:
            raise ShapeMismatch(f"param shape {p.shape} != grad shape {g.shape}")

    t = state.t + 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t

    def upd(p, g, m, v):
        m_new = b1 * m + (1.0 - b1) * g
        v_new = b2 * v + (1.0 - b2) * g * g
        p_new = p - state.lr * (m_new / c1) / (np.sqrt(v_new / c2) + state.eps)
        return p_new, m_new, v_new

    new_w, new_b = [], []
    m_w, m_b, v_w, v_b = [], [], [], []
    for p, g, m, v in zip(params.weights, grads.weights, state.m.weights, state.v.weights):
        pn, mn, vn = upd(p, g, m, v)
        new_w.append(pn)
        m_w.append(mn)
        v_w.append(vn)
    for p, g, m, v in zip(params.biases, grads.biases, state.m.biases, state.v.biases):
        pn, mn, vn = upd(p, g, m, v)
        new_b.append(pn)
        m_b.append(mn)
        v_b.append(vn)

    new_params = EncoderParams(params.config, new_w, new_b)
    new_state = replace(state, t=t, m=EncoderGrads(m_w, m_b), v=EncoderGrads(v_w, v_b))
    return new_params, new_state


def param_fingerprint(params: EncoderParams) -> str:
    """Hash of config plus raw parameter bytes; detects any mutation."""
    import hashlib

    h = hashlib.sha256()
    h.update(json.dumps(_config_dict(params.config), sort_keys=True).encode())
    for a in params.weights + params.biases:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def _config_dict(cfg: EncoderConfig) -> dict:
    return {
        "input_dim": cfg.input_dim,
        "hidden_widths": list(cfg.hidden_widths),
        "output_dim": cfg.output_dim,
        "activation": cfg.activation,
        "dropout_p": cfg.dropout_p,
    }


def save_params(params: EncoderParams, path) -> None:
    """Write a checkpoint: magic, version, JSON manifest, then per-layer blobs.

    Blobs are little-endian float64, C order, one flat blob per layer array
    in the order W0, b0, W1, b1, ...; the manifest records shapes.
    """
    manifest = {
        "config": _config_dict(params.config),
        "shapes": [list(a.shape) for a in _layer_arrays(params)],
    }
    mbytes = json.dumps(manifest, sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(_CKPT_MAGIC)
        f.write(struct.pack("<II", _CKPT_VERSION, len(mbytes)))
        f.write(mbytes)
        for a in _layer_arrays(params):
            f.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_params(path) -> EncoderParams:
    """Read a checkpoint written by :func:`save_params`."""
    blob = Path(path).read_bytes()
    if len(blob) < len(_CKPT_MAGIC) + 8 or blob[: len(_CKPT_MAGIC)] != _CKPT_MAGIC:
        raise FormatVersionMismatch("not an encoder checkpoint file")
    off = len(_CKPT_MAGIC)
    version, mlen = struct.unpack_from("<II", blob, off)
    if version != _CKPT_VERSION:
        raise FormatVersionMismatch(f"unsupported checkpoint version {version}")
    off += 8
    manifest = json.loads(blob[off : off + mlen].decode())
    off += mlen
    cfg = EncoderConfig(
        input_dim=manifest["config"]["input_dim"],
        hidden_widths=tuple(manifest["config"]["hidden_widths"]),
        output_dim=manifest["config"]["output_dim"],
        activation=manifest["config"]["activation"],
        dropout_p=manifest["config"]["dropout_p"],
    )
    arrays = []
    for shape in manifest["shapes"]:
        n = int(np.prod(shape)) if shape else 1
        a = np.frombuffer(blob, dtype="<f8", count=n, offset=off).reshape(shape)
        arrays.append(a.astype(np.float64))
        off += n * 8
    weights = arrays[0::2]
    biases = arrays[1::2]
    params = EncoderParams(cfg, weights, biases)
    dims = cfg.layer_dims
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        if weights[i].shape != (fan_in, fan_out) or biases[i].shape != (fan_out,):
            raise ShapeMismatch("checkpoint shapes inconsistent with config")
    return params


def _layer_arrays(params: EncoderParams):
    for w, b in zip(params.weights, params.biases):
        yield w
        yield b
