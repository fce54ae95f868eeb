"""Small affine-stack encoders with exact manual backpropagation.

An encoder is a stack of affine layers with an elementwise activation and
optional inverted dropout on the hidden activations; the final affine
output is L2-normalized per row, so encoders always emit unit feature
vectors. The same type serves frozen teachers and the trainable student.

``encode`` returns the eval-mode features together with a
:class:`ForwardTape` caching everything the reverse pass needs, including
the normalization Jacobian inputs. :func:`vjp` is the pure reverse pass; a
tape can be replayed, which the multi-objective weighting path relies on.

``vjp`` also takes a stack of K cotangents, shape ``(K, B, d)``, and runs
them through the tape in one reverse pass; every returned array then
carries the leading K axis. Each slice is bit-identical to a separate
2-D call with that cotangent: the stacked matmuls run the same BLAS
product per slice, and every reduction keeps its order.

The training step calls the private kernels behind ``encode``, ``vjp``
and ``adam_step`` on inputs it checked once, at its entry. ``_encode`` is
the forward pass; it takes dropout keep-masks drawn ahead by
``_dropout_masks`` (None in eval mode), so a caller can draw a step's
randomness before running it. It also runs a stack of batches, (n, B,
d_in): numpy runs one BLAS product per batch, so each batch gets the bits
it has alone. A train-mode row that dropout leaves with a near-zero output
is passed again with every hidden unit kept (see ``_encode``).

``_backward`` writes each weight and bias gradient straight into the
matching array of an :class:`EncoderGrads` given by the caller (with a
leading K axis for a stacked cotangent) and overwrites every entry; it
skips the input gradient. Those arrays are views into one flat buffer in
:meth:`EncoderGrads.flatten`'s order (``_Layout.views``), laid out once by
their owner: ``_FlatAdam`` for its gradient, the trainer for ``dsw``'s
K x P matrix. ``_FlatAdam`` holds the parameters and Adam moments (from
zero; ``adam_step`` loads its state into them) of one encoder, or of an
image and text encoder pair, as flat buffers, the pair's
encoders in columns of their own, and updates them in place through one
scratch buffer and then the used-up gradient buffer. A step is one
elementwise pass over the pair's columns, or over one encoder's, and each
encoder keeps its own step count; each entry rounds as it would in an
update of its own array.

Row policy, the one rule for the eval-mode passes over many rows (an
evaluation, the frozen teachers' cache) and the trainer's blocks of
batches: an eval-mode product over many rows holds at most
``_EVAL_ROWS`` = 64 rows, the default batch, and one stacked pass at most
``_STACK_ROWS`` = 512 rows of activations, summed over the members of
member-stacked parameters (below), since each member holds its own. So
``_encode_rows`` encodes the ``_EVAL_ROWS``-row chunks of ``_row_chunks``
in stacks of at most ``_STACK_ROWS`` // (``_EVAL_ROWS`` x S) chunks, one
at least, for S members (S = 1 unstacked), then the tail, if any: two
calls for an evaluation's 400 rows with one encoder, four with a 4-member
group, and four for a 1600-row teacher cache. An eval-mode row's bits
do not depend on the rows beside it, as long as there are at least two
(BLAS computes a one-row product with its matrix-vector kernel, which
rounds differently), so no chunk has one row and the trainer encodes a
one-row batch alone. A 512-row product crosses OpenBLAS's threading
threshold: measured, it ran on both cores and raised a run's CPU time by
about 60%, and the idle worker thread then busy-waits (on a 2-core Xeon,
a 0.3 s sleep right after one 400 x 32 x 80 product read 128 ms of CPU
time). The stack cap bounds memory: on a 2-core Xeon (``BENCH_8.json``,
two 30 s runs each) the benchmark's mixup ``lsr`` K=3 run made 533
student steps/s batch by batch, and 602, 635, 687 and 697 with block caps
of 128, 256 and 512 rows and a whole epoch, its peak RSS up 0.4%, 1.2%,
3.1% and 11.1% against the benchmark's 5% bound.

Member stacks: the three kernels also take the parameters of S encoders of
one architecture trained side by side, as (S, P) flat buffers viewed as
(S, in, out) weights and (S, out) biases. ``_encode`` then maps shared
input rows (B, d_in) to (S, B, d) features, ``_backward`` takes an (S, B, d)
cotangent and writes (S, P) gradients, and ``_FlatAdam`` steps every
member at once. Each member gets the bits it gets alone: each product runs
one BLAS call per member, and every reduction runs along the axes it takes
for one member. A member whose dropout retry fires gets keep-masks of its
own; the others keep the shared ones. ``_member_tape`` gives one member's
slice of a tape, which ``dsw``'s stacked reverse passes run through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .config import architecture_problem
from .errors import NonFiniteInput, ShapeMismatch, ZeroVector
from .numerics import ZERO_NORM_EPS, _checked_stack, as_matrix


@dataclass(frozen=True)
class EncoderConfig:
    """Architecture of one encoder: input width, hidden widths, output dim;
    ``config.architecture_problem`` is its rule."""

    input_dim: int
    hidden_widths: tuple[int, ...] = ()
    output_dim: int = 16
    activation: str = "relu"
    dropout_p: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "hidden_widths", tuple(int(w) for w in self.hidden_widths))
        if self.input_dim < 1:
            raise ShapeMismatch(f"input_dim must be >= 1, got {self.input_dim}")
        problem = architecture_problem(self)
        if problem:
            raise ShapeMismatch("{} {}".format(*problem))

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_widths, self.output_dim)


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


@dataclass
class EncoderGrads:
    """Gradient arrays mirroring the shapes of :class:`EncoderParams`."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

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
    """Cached activations from one forward pass, read by :func:`vjp`."""

    params: EncoderParams
    layer_inputs: list[np.ndarray]  # input to each affine layer
    act_values: list[np.ndarray | None]  # hidden activations before dropout, kept for tanh
    masks: list[np.ndarray | None]  # inverted dropout masks (None when off)
    norms: np.ndarray               # pre-normalization output row norms, (B, 1)
    features: np.ndarray            # normalized output rows


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
    """The activation of ``z``, written over ``z``."""
    if name == "relu":
        return np.maximum(z, 0.0, out=z)
    if name == "tanh":
        return np.tanh(z, out=z)
    return z


def _checked_input(params: EncoderParams, x) -> np.ndarray:
    """``x`` as a finite float64 matrix of the encoder's input width."""
    xm = as_matrix(x, "x")
    if xm.shape[1] != params.config.input_dim:
        raise ShapeMismatch(f"input dim {xm.shape[1]} != config {params.config.input_dim}")
    return xm


def encode(params: EncoderParams, x) -> tuple[np.ndarray, ForwardTape]:
    """Eval-mode forward pass: unit-norm feature rows and the tape
    :func:`vjp` reads. It applies no dropout and draws nothing, so repeated
    calls are identical; a train-mode pass is ``_encode`` with the
    keep-masks of ``_dropout_masks``."""
    return _encode(params, _checked_input(params, x), None)


def _dropout_masks(cfg: EncoderConfig, rows: int, rng) -> list[np.ndarray] | None:
    """The dropout keep-masks of a train-mode pass over ``rows`` input rows,
    one boolean (rows, width) mask per hidden layer in layer order, or None
    without dropout."""
    if cfg.dropout_p == 0.0:
        return None
    return [rng.random((rows, w)) >= cfg.dropout_p for w in cfg.hidden_widths]


def _encode(
    params: EncoderParams, xm: np.ndarray, masks: list[np.ndarray] | None
) -> tuple[np.ndarray, ForwardTape]:
    """:func:`encode` on an input it has checked, with the keep-masks of
    :func:`_dropout_masks` (None: no dropout), scaled here by 1 / (1 - p).
    The normalization raises on a row whose norm is near zero or not
    finite, so every feature row it returns is a finite unit vector,
    whatever the parameters. One exception: a row whose norm is near zero
    in a pass with dropout is passed again with every hidden unit kept
    (its keep-masks set to all True); it raises only if it is still near
    zero. Rows that pass the check keep their bits. With member-stacked
    parameters the retry's keep-masks are per member (see the module
    docstring)."""
    cfg = params.config
    keep = 1.0 - cfg.dropout_p
    h = xm
    layer_inputs: list[np.ndarray] = []
    act_values: list[np.ndarray] = []
    scaled: list[np.ndarray | None] = []
    for i in range(len(cfg.hidden_widths)):
        layer_inputs.append(h)
        z = h @ params.weights[i]
        z += params.biases[i][..., None, :]
        a = _activate(cfg.activation, z)
        mask = None if masks is None else masks[i] / keep
        h = a if mask is None else a * mask
        # Only tanh's derivative reads a; relu's reads the sign of h.
        act_values.append(a if cfg.activation == "tanh" else None)
        scaled.append(mask)

    layer_inputs.append(h)
    raw = h @ params.weights[-1]
    raw += params.biases[-1][..., None, :]
    # What np.linalg.norm computes, without its wrapper.
    norms = np.sqrt(np.add.reduce(raw * raw, axis=-1, keepdims=True))
    if raw.size:
        if float(norms.min()) < ZERO_NORM_EPS:
            low = norms < ZERO_NORM_EPS  # (..., B, 1)
            if masks is None or all(np.where(low, m, True).all() for m in masks):
                raise ZeroVector("a pre-normalization output row has near-zero norm")
            return _encode(params, xm, [np.where(low, True, m) for m in masks])
        if not math.isfinite(float(norms.max())):
            raise NonFiniteInput("a pre-normalization output row has a non-finite norm")
    raw /= norms

    tape = ForwardTape(
        params=params,
        layer_inputs=layer_inputs,
        act_values=act_values,
        masks=scaled,
        norms=norms,
        features=raw,
    )
    return raw, tape


# The row policy (see the module docstring): the most rows of an
# eval-mode product over many rows, and of one stacked pass.
_EVAL_ROWS = 64
_STACK_ROWS = 512


def _row_chunks(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x``'s rows (axis -2) in chunks of ``_EVAL_ROWS`` rows, as (stack,
    tail): the full chunks on a new axis before the row axis, (...,
    chunks, rows, d), as a view, and the rows after them, fewer than
    ``_EVAL_ROWS`` or none; where one row would be left, the tail is that
    row and the last full chunk, so an input of two or more rows gets no
    one-row chunk."""
    n, size = x.shape[-2], _EVAL_ROWS
    full = n // size
    if full and n - full * size == 1:
        full -= 1
    cut = full * size
    return x[..., :cut, :].reshape(*x.shape[:-2], full, size, x.shape[-1]), x[..., cut:, :]


def _encode_rows(params: EncoderParams, xm: np.ndarray) -> np.ndarray:
    """The eval-mode features of checked rows ``xm`` under the row policy
    (see the module docstring): the full chunks of :func:`_row_chunks` as
    stacks of at most ``_STACK_ROWS`` rows over all members, then the tail
    unless it is empty, one ``_encode`` each. Each row keeps the bits it
    gets in one pass over all of ``xm``, and no product has more than
    ``_EVAL_ROWS`` + 1 rows. Member-stacked parameters run a stack as
    (chunks, 1, rows, d) against their (S, ., .) weights, which is one BLAS
    product per chunk and member."""
    stack, tail = _row_chunks(xm)
    stacked = params.weights[0].ndim == 3
    members = params.weights[0].shape[0] if stacked else 1
    per = max(_STACK_ROWS // (_EVAL_ROWS * members), 1)
    feats = []
    for part in (stack[i : i + per] for i in range(0, stack.shape[0], per)):
        if stacked:
            f = _encode(params, part[:, None], None)[0].swapaxes(0, 1)
        else:
            f = _encode(params, part, None)[0]
        feats.append(f.reshape(*f.shape[:-3], -1, f.shape[-1]))
    if tail.shape[-2] or not feats:
        feats.append(_encode(params, tail, None)[0])
    return np.concatenate(feats, axis=-2)


def _member_params(params: EncoderParams, s: int) -> EncoderParams:
    """Member ``s`` of member-stacked parameters, as views."""
    return EncoderParams(
        params.config, [w[s] for w in params.weights], [b[s] for b in params.biases]
    )


def _member_tape(tape: ForwardTape, s: int) -> ForwardTape:
    """Member ``s`` of a tape recorded with member-stacked parameters, as
    views. The input rows, and keep-masks the members share, carry no
    member axis and stay as they are. A tape without a member axis is its
    own member."""
    if tape.features.ndim == 2:
        return tape
    nd = tape.features.ndim
    pick = lambda a: a if a is None or a.ndim < nd else a[s]  # noqa: E731
    return ForwardTape(
        params=_member_params(tape.params, s),
        layer_inputs=[pick(a) for a in tape.layer_inputs],
        act_values=[pick(a) for a in tape.act_values],
        masks=[pick(m) for m in tape.masks],
        norms=tape.norms[s],
        features=tape.features[s],
    )


def vjp(tape: ForwardTape, grad_features) -> tuple[EncoderGrads, np.ndarray]:
    """Pure vector-Jacobian product through the pass recorded on ``tape``.

    Returns (parameter gradients, gradient w.r.t. the input batch). Safe to
    call repeatedly on one tape. A stacked ``(K, B, d)`` cotangent gives K
    products in one pass, each array with a leading K axis (see the module
    docstring).
    """
    gy = _checked_stack(grad_features, "grad_features")
    if gy.shape[-2:] != tape.features.shape:
        raise ShapeMismatch(
            f"grad shape {gy.shape} != features shape {tape.features.shape}"
        )
    layout = _Layout(tape.params.config)
    grads = EncoderGrads(*layout.views(np.empty(gy.shape[:-2] + (layout.size,))))
    g = _backward(tape, gy, grads)
    return grads, g @ tape.params.weights[0].T


def _backward(tape: ForwardTape, gy: np.ndarray, out: EncoderGrads) -> np.ndarray:
    """:func:`vjp` on a checked cotangent, writing each parameter gradient
    into its array of ``out`` (arrays with a leading K axis for a stacked
    cotangent, or a leading member axis with member-stacked parameters),
    which may be views into one flat buffer laid out once; every entry is
    overwritten. Returns the cotangent of the first layer's output;
    the input gradient, which training never reads, is left to the caller."""
    cfg = tape.params.config
    # Through y = v / ||v||: dv = (dy - (dy . y) y) / ||v||.
    y = tape.features
    g = gy * y
    rowdot = np.add.reduce(g, axis=-1, keepdims=True)
    np.multiply(rowdot, y, out=g)
    np.subtract(gy, g, out=g)
    g /= tape.norms

    weights = tape.params.weights
    n = len(weights)
    np.matmul(tape.layer_inputs[-1].swapaxes(-1, -2), g, out=out.weights[-1])
    np.add.reduce(g, axis=-2, out=out.biases[-1])
    for i in range(n - 2, -1, -1):
        g = g @ weights[i + 1].swapaxes(-1, -2)
        if tape.masks[i] is not None:
            g *= tape.masks[i]
        if cfg.activation == "relu":
            # relu(z) > 0 exactly where z > 0, and so is h = relu(z) * mask
            # wherever the mask keeps the unit; g is already 0 where not.
            g *= tape.layer_inputs[i + 1] > 0.0
        elif cfg.activation == "tanh":
            a = tape.act_values[i]
            g *= 1.0 - a * a
        np.matmul(tape.layer_inputs[i].swapaxes(-1, -2), g, out=out.weights[i])
        np.add.reduce(g, axis=-2, out=out.biases[i])
    return g


class _Layout:
    """Where each weight and bias of an encoder sits in one flat float64
    vector: W0, W1, ..., b0, b1, ..., as :meth:`EncoderGrads.flatten` orders
    them."""

    def __init__(self, config: EncoderConfig):
        dims = config.layer_dims
        shapes = list(zip(dims[:-1], dims[1:])) + [(d,) for d in dims[1:]]
        self.n_layers = len(dims) - 1
        self.spans: list[tuple[int, int, tuple[int, ...]]] = []
        start = 0
        for shape in shapes:
            stop = start + math.prod(shape)
            self.spans.append((start, stop, shape))
            start = stop
        self.size = start

    def views(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """(weights, biases) as views into ``flat``, with its leading axes.
        Its last axis must have unit stride, as a column slice of a matrix
        has, so that each reshape is a view."""
        if flat.strides[-1] != flat.itemsize:
            raise ValueError("the flat buffer's last axis must have unit stride")
        lead = flat.shape[:-1]
        arrays = [flat[..., a:b].reshape(*lead, *shape) for a, b, shape in self.spans]
        return arrays[: self.n_layers], arrays[self.n_layers :]


# Adam's constants: the moments' decay rates and the denominator's floor.
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class AdamState:
    """Adam's moment accumulators ``m`` and ``v`` after ``t`` steps, and
    the rate ``lr`` of the next step; its decay rates and floor are the
    module's constants."""

    lr: float
    t: int
    m: EncoderGrads
    v: EncoderGrads


def adam_step(
    params: EncoderParams, grads: EncoderGrads, state: AdamState
) -> tuple[EncoderParams, AdamState]:
    """One bias-corrected Adam update; pure, returns new params and state."""
    for p, g in zip(params.weights + params.biases, grads.weights + grads.biases):
        if p.shape != g.shape:
            raise ShapeMismatch(f"param shape {p.shape} != grad shape {g.shape}")
    opt = _FlatAdam([params])
    opt.t[0] = state.t
    opt.m[:] = state.m.flatten()
    opt.v[:] = state.v.flatten()
    opt.grad[:] = grads.flatten()
    opt.step(state.lr)
    m, v = (EncoderGrads(*opt.layouts[0].views(a)) for a in (opt.m, opt.v))
    return opt.params[0], replace(state, t=opt.t[0], m=m, v=v)


class _FlatAdam:
    """Encoders in training, one or an (image, text) pair: their parameters
    and Adam moments as flat float64 buffers (copies of those given) that
    each step updates in place, each encoder's entries in its own columns
    (``columns``), in the order given; member-stacked parameters give
    (S, P) buffers. ``params`` and ``grads`` hold each encoder's views into
    the parameter buffer and into ``grad``, the buffer the step's gradient
    is written into; all are laid out once, with one scratch buffer for
    the step. Each encoder keeps its own step count ``t``; the moments and
    step counts start at zero."""

    def __init__(self, params: Sequence[EncoderParams]):
        self.layouts = [_Layout(p.config) for p in params]
        self.t = [0] * len(params)
        self.p = np.concatenate(
            [EncoderGrads(p.weights, p.biases).flatten() for p in params], axis=-1
        )
        self.m = np.zeros_like(self.p)
        self.v = np.zeros_like(self.p)
        self.grad = np.empty_like(self.p)
        stops = np.cumsum([layout.size for layout in self.layouts]).tolist()
        self.columns = [slice(a, b) for a, b in zip([0] + stops[:-1], stops)]
        self.params = [
            EncoderParams(p.config, *layout.views(self.p[..., c]))
            for p, layout, c in zip(params, self.layouts, self.columns)
        ]
        self.grads = [
            EncoderGrads(*layout.views(self.grad[..., c]))
            for layout, c in zip(self.layouts, self.columns)
        ]
        # (grad, m, v, scratch, p) over every column, and over each encoder's.
        buffers = (self.grad, self.m, self.v, np.empty_like(self.p), self.p)
        self._buffers = {None: buffers}
        for e, c in enumerate(self.columns):
            self._buffers[e] = tuple(a[..., c] for a in buffers)

    def step(self, lr: float, encoder: int | None = None) -> None:
        """One bias-corrected Adam update with ``grad`` at rate ``lr``, of
        every encoder, whose step counts must be equal, or of encoder
        ``encoder`` alone: one elementwise pass over their entries, through
        the scratch buffer and then ``grad`` itself, once the moments have
        used it up; each entry rounds as it would in a separate update of
        its own array, m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g,
        p -= lr (m / c1) / (sqrt(v / c2) + eps)."""
        for e in range(len(self.t)) if encoder is None else (encoder,):
            self.t[e] += 1
        t = self.t[encoder or 0]
        c1 = 1.0 - _BETA1**t
        c2 = 1.0 - _BETA2**t
        g, m, v, s, p = self._buffers[encoder]
        np.multiply(g, 1.0 - _BETA1, out=s)
        m *= _BETA1
        m += s
        np.multiply(g, 1.0 - _BETA2, out=s)
        s *= g
        v *= _BETA2
        v += s
        np.divide(m, c1, out=s)
        s *= lr
        r = g  # the gradient is used up
        np.divide(v, c2, out=r)
        np.sqrt(r, out=r)
        r += _EPS
        s /= r
        p -= s

    def result(self) -> list[EncoderParams]:
        """The trained parameters of each encoder, in arrays of their own."""
        return [p.copy() for p in self.params]
