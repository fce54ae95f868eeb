"""Two-step training orchestration: pretrain teachers with the contrastive
loss against their class banks, freeze them, then distill the student under
a chosen teacher-weighting strategy.

Strategies (``config.STRATEGIES``):
  base  clip-only training, distillation terms removed entirely
  avg   uniform teacher weights
  lsr   label-similarity ratio weights, recomputed per batch
  dsw   min-norm (multi-gradient) weights on the per-teacher KL parameter
        gradients, recomputed per batch

The student's class text bank is recomputed once per epoch by default
(text-encoder gradients accumulate across the epoch and apply in one
step), trading exactness for cached class vectors; ``text_bank_refresh =
"batch"`` switches to exact per-batch recomputation. Teacher banks are
always computed once, after freezing.

Blocks of batches: the teachers are frozen, and the random draws that
shape a batch do not depend on the parameters, so ``distill_students``
walks each epoch in blocks of consecutive batches of equal size, at most
``encoder._STACK_ROWS`` = 512 rows (8 batches of 64; see ``encoder``'s
row policy). A shorter tail batch is a block of its own, and so is every
one-row batch.
- Draws: at the start of an epoch, the epoch-mode text bank's dropout
  masks, then the epoch's permutation; at the start of each block, per
  batch in order, ``augment``'s draws, the per-batch text bank's masks and
  the image rows' masks. That is the order the per-batch step used to draw
  them in, so every draw keeps its bits.
- Per block, one stacked pass over all K teachers and (n batches, B
  rows, .): their features, their image-to-text and text-to-image
  distributions (t2i normalizes over each batch's own rows), their
  label-similarity scores under ``lsr``, and their soft-gathered bank rows
  for the MSE. Each run of roster neighbours of one output dim forms a
  stack, whose features and bank rows are (n, K_s, B, d) arrays; a
  ``weighted_target`` run has one stack. Under ``none`` a row's
  features, its i2t distribution and its clamped label similarity depend
  on the row alone, so they are computed once per call for every training
  row, in eval mode, under ``encoder``'s row policy; a block gathers its
  rows of them and computes only t2i.
  Otherwise the block's augmented rows go through one eval-mode forward
  pass per teacher, whose widths differ.
- Per batch, the student's step reads slice i of the block: encode,
  contrastive loss, stacked KL, the ``lsr`` weights or ``dsw``'s reverse
  passes and Frank-Wolfe, MSE (under ``per_teacher`` one call per stack
  of teachers), reverse pass, Adam.
Each stacked product runs one BLAS call per batch and teacher, with the
bits the batch gets alone, and every reduction keeps its axis and order;
why the blocks are capped: ``encoder``'s row policy.

Groups: ``distill_students`` trains the runs of one seed whose configs
differ only in ``strategy`` and ``loss_ratios`` in lockstep, and
``distill_student`` is its one-member call. The members start from the
same parameters and see the same draws, so the student state gets a
leading member axis S, which ``_Members`` lays out: the encoders'
parameters, gradients and Adam moments are (S, P) buffers, and each batch
runs one forward pass, one contrastive loss, one reverse pass and one
Adam step for every member at once (see ``encoder``'s member stacks).
Per group: one teacher pass, one set of draws, and one evaluation per
epoch. Per batch,
``_distill_terms`` runs the KL, MSE and total-loss terms once over the
distilling members (``base`` members skip them), weighted by
``_teacher_weights``: under ``lsr`` one set of weights from the shared
scores, and per ``dsw`` member its stacked KL reverse passes through its
slice of each tape, then Frank-Wolfe and the certificate on the K x K
Gram matrix of those gradients. Per member: the finite-loss check, its
accuracy and recall@5 from ``evaluate``, and the ``EpochRecord`` that
``_EpochSums`` builds. Every member gets the
bits it gets alone: each product runs one BLAS call per member, and
every reduction runs over that member's own contiguous terms. A failure
of any member stops the whole call.

The training step: ``pretrain_teacher`` and ``distill_students`` check
their inputs once, at entry. The dataset's image rows, class text anchors and
labels are checked against the encoders, and the teachers' banks against
the dataset. Each batch then runs the private, unchecked kernels behind
the public ``encode``, ``vjp``, ``adam_step``, ``clip_loss``,
``kl_pair_loss`` and ``mse_align``, so it gets the same bits. The kernels
divide by temperatures unchecked; the configs (``config``) reject one that
is not finite and above 0. Two checks stay in the step, where a diverging run
would otherwise go on silently: the encoder's normalization rejects a row
whose norm is near zero or not finite, and each step's total loss must be
finite. One rule relaxes the first check: a train-mode row with dropout
whose norm is near zero is passed again with every hidden unit kept. While
the biases are zero, as at initialization, a row whose hidden units
dropout all drops has an output of exactly zero; that is a draw, not
divergence. The rule runs only after the check fails, so every row that
passes it keeps its bits; a row still near zero, and any such row in eval
mode or without dropout, raises ``ZeroVector``.
- The student's image-to-text and text-to-image log-distributions are
  computed once per batch. The contrastive loss and every teacher's KL
  share them when ``tau_distill == tau_student``.
- The image and text encoders' parameters, gradients, Adam moments and
  scratch live in one flat buffer per pair, each encoder in its own
  columns, laid out once per run and updated in place (see ``encoder``).
  Pretraining and the per-batch text bank take one Adam step per batch
  over the pair; the epoch text bank steps the image columns each batch
  and the text columns once per epoch, each with its own step count.
  ``dsw``'s stacked passes write into one K x P matrix in the pair's
  columns (``_kl_grad_matrix``), also laid out once per run.

Evaluation: ``evaluate`` checks its inputs on each call, and its rows go
through ``encoder._encode_rows`` under ``encoder``'s row policy. It takes
one encoder pair or member-stacked parameters: the eval rows go through
the stacked image parameters in passes of at most 512 rows summed over
the members, and the class anchors once through the stacked text
parameters, then ``rank_of_label`` runs per member, which gets the bits it
gets alone. A group calls it once per epoch for all its members.

Single-threaded runs are bit-deterministic in (config, seed): every random
draw comes from named PCG64 streams derived from the run seed.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field, fields, replace
from typing import Sequence

import numpy as np

from . import distill, weighting
from .config import (
    STRATEGIES, TRAIN_FRACTION, Augmentation, PretrainConfig, StudentConfig, TeacherSpec,
    TrainConfig, split_sizes,
)
from .config import LrSchedule  # noqa: F401  (perfbench's workloads read it here)
from .contrastive import MixedLabels, _check_labels, _clip_loss, rank_of_label
from .data import PairedDataset, build_class_bank, corrupt_teacher
from .encoder import (
    _STACK_ROWS,
    EncoderConfig,
    EncoderGrads,
    EncoderParams,
    _backward,
    _checked_input,
    _dropout_masks,
    _encode,
    _encode_rows,
    _FlatAdam,
    _member_params,
    _member_tape,
    _row_chunks,
    init_params,
)
from .errors import (
    InvalidConfig,
    NonFiniteInput,
    PretrainBelowGate,
    ShapeMismatch,
    StrategyTeacherMismatch,
)
from .numerics import _pair_log_softmax, _softmax, as_matrix, seeded_rng

# perfbench's tracer wraps these public functions at every module that
# binds them (EXPECTED_BINDINGS in perfbench/tracer.py). The training step
# and the evaluation call their unchecked kernels instead, so nothing here
# calls them.
from .contrastive import clip_loss  # noqa: E402,F401
from .encoder import adam_step, encode, vjp  # noqa: E402,F401

# Stream tags for per-run rng derivation.
_TAG_TEACHER = 1
_TAG_STUDENT_INIT = 2
_TAG_TRAIN_LOOP = 3
_TAG_PROJECTION = 4
_TAG_SPLIT = 5


@dataclass
class Teacher:
    """Frozen encoder pair with its cached class text bank."""

    image_params: EncoderParams
    text_params: EncoderParams
    bank: np.ndarray
    accuracy: float


@dataclass
class StudentModel:
    image_params: EncoderParams
    text_params: EncoderParams


@dataclass
class EpochRecord:
    epoch: int
    l_clip: float
    l_kl: float           # weighted bidirectional KL entering the total
    l_mse: float
    total: float
    accuracy: float
    recall5: float
    alphas: np.ndarray    # mean strategy weights over the epoch's batches
    fw_iterations: float
    lr: float
    pareto_certified: bool


@dataclass
class RunMetrics:
    strategy: str
    num_teachers: int
    epochs: list[EpochRecord] = field(default_factory=list)
    fw_unconverged: int = 0  # dsw batches whose Frank-Wolfe ran out of iterations

    @property
    def final(self) -> EpochRecord:
        return self.epochs[-1]


@dataclass
class AugmentedBatch:
    """A batch's augmented image rows, its labels, and ``mix``: under
    mixup its ``MixedLabels`` (partner labels and weights), else None."""

    image_raw: np.ndarray
    labels_a: np.ndarray
    mix: MixedLabels | None


def split_indices(labels, train_fraction: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint stratified split; exact per class when counts divide."""
    labels = np.asarray(labels, dtype=np.int64)
    train_parts, eval_parts = [], []
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        idx = idx[rng.permutation(idx.size)]
        cut, _ = split_sizes(idx.size, train_fraction)
        train_parts.append(idx[:cut])
        eval_parts.append(idx[cut:])
    return np.sort(np.concatenate(train_parts)), np.sort(np.concatenate(eval_parts))


def dataset_split(dataset: PairedDataset, train_fraction: float = TRAIN_FRACTION):
    """Canonical split for a dataset, derived from the dataset seed so every
    strategy and run seed sees the same partition."""
    rng = seeded_rng(dataset.spec.seed, _TAG_SPLIT)
    return split_indices(dataset.labels, train_fraction, rng)


def augment(image_raw, labels, mode: Augmentation, rng) -> AugmentedBatch:
    """Vector-space batch augmentation of the image rows.

    jitter adds Gaussian noise, one ``standard_normal`` draw of the rows'
    shape; mixup convexly combines each sample with a random in-batch
    partner using per-sample Beta(beta, beta) coefficients, tracked as a
    soft label pair. The text side is the class anchors, which no mode
    touches.
    """
    img = np.asarray(image_raw, dtype=np.float64)
    lab = np.asarray(labels, dtype=np.int64)
    if mode.kind == "none":
        return AugmentedBatch(img, lab, None)
    if mode.kind == "jitter":
        img = img + mode.sigma * rng.standard_normal(img.shape)
        return AugmentedBatch(img, lab, None)
    # mixup
    b_sz = img.shape[0]
    partner = rng.permutation(b_sz)
    lam = rng.beta(mode.beta, mode.beta, size=b_sz)
    img = lam[:, None] * img + (1.0 - lam)[:, None] * img[partner]
    return AugmentedBatch(img, lab, MixedLabels(lab[partner], lam))


def evaluate(
    image_params: EncoderParams,
    text_params: EncoderParams,
    dataset: PairedDataset,
    idx,
    tau: float,
) -> list[tuple[float, float]]:
    """(accuracy, recall@5) of classification of the rows ``idx`` over the
    ranking of the model's own encoded class anchors, one pair per member
    of member-stacked parameters, and a one-item list for one encoder
    pair. Each class has one bank row, so recall@1 is the accuracy. The
    rows are encoded once for every member, under ``encoder``'s row
    policy, in passes of at most ``_STACK_ROWS`` rows summed over the
    members (400 rows take four passes in a 4-member group, two for one
    encoder pair). Each member gets the bits it gets alone."""
    banks = build_class_bank(text_params, dataset)
    idx = np.asarray(idx, dtype=np.int64)
    feats = _encode_rows(image_params, _checked_input(image_params, dataset.image_raw[idx]))
    if feats.ndim == 2:  # one encoder pair, no member axis
        feats, banks = feats[None], banks[None]
    top = min(5, banks.shape[-2])
    ranks = [rank_of_label(f, bank, dataset.labels[idx], tau) for f, bank in zip(feats, banks)]
    return [(float(np.mean(r < 1)), float(np.mean(r < top))) for r in ranks]


def _init_encoder_pair(arch: StudentConfig | TeacherSpec, dataset: PairedDataset, rng):
    """Fresh (image, text) encoders of the architecture ``arch`` for the
    dataset's two modalities."""
    return tuple(
        init_params(
            EncoderConfig(
                dim, arch.hidden_widths, arch.output_dim, arch.activation, arch.dropout_p
            ),
            rng,
        )
        for dim in (dataset.spec.image_dim, dataset.spec.text_dim)
    )


def _batches(n: int, batch_size: int, rng) -> list[np.ndarray]:
    order = rng.permutation(n)
    return [order[i : i + batch_size] for i in range(0, n, batch_size)]


def _checked_inputs(
    img_params: EncoderParams, txt_params: EncoderParams, dataset: PairedDataset
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dataset's image rows, class text anchors and labels, checked
    once against the encoders they feed: the training step's kernels do
    not check them again."""
    image_raw = _checked_input(img_params, dataset.image_raw)
    anchors = _checked_input(txt_params, dataset.text_anchors)
    labels = _check_labels(dataset.labels, image_raw.shape[0], anchors.shape[0], "labels")
    return image_raw, anchors, labels


def _check_loss(values: list[float], epoch: int) -> None:
    """Stop a diverged run: a step's total losses, one per member of a
    group, must be finite."""
    for value in values:
        if not math.isfinite(value):
            raise NonFiniteInput(f"training loss is {value} in epoch {epoch}")


def pretrain_teacher(
    cfg: PretrainConfig,
    dataset: PairedDataset,
    train_idx,
    eval_idx,
    spec: TeacherSpec,
    seed: int,
    teacher_index: int,
) -> Teacher:
    """Train one teacher pair with the class-bank contrastive loss, then
    freeze it, apply any configured corruption, and cache its bank.

    The accuracy gate is checked on the eval split before corruption; a
    label-shuffled teacher is corrupt by construction, so the gate warning
    is skipped for it (its accuracy is still recorded).
    """
    rng_init = seeded_rng(seed, _TAG_TEACHER, teacher_index, 0)
    rng_loop = seeded_rng(seed, _TAG_TEACHER, teacher_index, 1)
    rng_corrupt = seeded_rng(seed, _TAG_TEACHER, teacher_index, 2)

    img_params, txt_params = _init_encoder_pair(spec, dataset, rng_init)
    opt = _FlatAdam((img_params, txt_params))
    (img, txt), (img_grads, txt_grads) = opt.params, opt.grads
    image_raw, anchors, labels = _checked_inputs(img_params, txt_params, dataset)
    img_cfg, txt_cfg = img_params.config, txt_params.config

    train_idx = np.asarray(train_idx, dtype=np.int64)
    labels = labels.copy()
    if spec.corruption.kind == "label_shuffle":
        shuffled = labels[train_idx]
        labels[train_idx] = shuffled[rng_corrupt.permutation(shuffled.size)]

    for epoch in range(cfg.epochs):
        for batch in _batches(train_idx.size, cfg.batch_size, rng_loop):
            idx = train_idx[batch]
            feats, tape_i = _encode(
                img, image_raw[idx], _dropout_masks(img_cfg, idx.size, rng_loop)
            )
            bank, tape_t = _encode(
                txt, anchors, _dropout_masks(txt_cfg, anchors.shape[0], rng_loop)
            )
            dists = _pair_log_softmax(feats, bank, cfg.tau)
            loss = _clip_loss(feats, bank, cfg.tau, dists, labels[idx], None)
            _check_loss([loss.value], epoch)
            _backward(tape_i, loss.grad_image, img_grads)
            _backward(tape_t, loss.grad_text, txt_grads)
            opt.step(cfg.lr)

    img_params, txt_params = opt.result()
    [(acc, _)] = evaluate(img_params, txt_params, dataset, eval_idx, cfg.tau)
    if spec.corruption.kind != "label_shuffle" and acc < cfg.accuracy_gate:
        warnings.warn(
            f"teacher {teacher_index} reached eval accuracy {acc:.3f}, below the "
            f"{cfg.accuracy_gate} gate",
            PretrainBelowGate,
        )

    if spec.corruption.kind == "weight_noise":
        img_params = corrupt_teacher(img_params, spec.corruption.sigma, rng_corrupt)
        txt_params = corrupt_teacher(txt_params, spec.corruption.sigma, rng_corrupt)

    bank = build_class_bank(txt_params, dataset)
    return Teacher(
        image_params=img_params,
        text_params=txt_params,
        bank=bank,
        accuracy=acc,
    )


def _soft_gather(bank: np.ndarray, labels: np.ndarray, mix: MixedLabels | None) -> np.ndarray:
    """Per-sample text rows under soft labels: lam * bank[a] + (1-lam) * bank[b],
    and bank[a] without ``mix``. The bank may carry a leading member axis.
    Where b = a and lam = 1 the soft rows are bank[a], bit for bit."""
    rows = np.take(bank, labels, axis=-2)
    if mix is None:
        return rows
    return mix.lam[..., None] * rows + (1.0 - mix.lam)[..., None] * np.take(
        bank, mix.labels_b, axis=-2
    )


def _soft_scatter(
    grad_rows: np.ndarray, labels: np.ndarray, mix: MixedLabels | None, n_rows: int
) -> np.ndarray:
    """Adjoint of :func:`_soft_gather`: scatter row gradients back to the
    bank, each member's rows of a member stack to its own bank."""
    out = np.zeros(grad_rows.shape[:-2] + (n_rows, grad_rows.shape[-1]))
    if mix is None:
        np.add.at(out, (..., labels, slice(None)), grad_rows)
    else:
        np.add.at(out, (..., labels, slice(None)), mix.lam[:, None] * grad_rows)
        np.add.at(out, (..., mix.labels_b, slice(None)), (1.0 - mix.lam)[:, None] * grad_rows)
    return out


class _Projection:
    """Fixed (non-trainable) linear maps from the student feature space into
    each teacher feature dimension, drawn once per run."""

    def __init__(self, student_dim: int, teacher_dims: Sequence[int], rng):
        self.student_dim = student_dim
        self.maps: dict[int, np.ndarray] = {}
        for d in sorted(set(teacher_dims)):
            if d != student_dim:
                self.maps[d] = rng.normal(
                    0.0, 1.0 / np.sqrt(student_dim), size=(student_dim, d)
                )

    def forward(self, feats: np.ndarray, teacher_dim: int) -> np.ndarray:
        if teacher_dim == self.student_dim:
            return feats
        return feats @ self.maps[teacher_dim]

    def backward(self, grad: np.ndarray, teacher_dim: int) -> np.ndarray:
        if teacher_dim == self.student_dim:
            return grad
        return grad @ self.maps[teacher_dim].T


def _checked_teachers(teachers: Sequence[Teacher], image_dim: int, n_classes: int) -> list[Teacher]:
    """The teachers with their banks checked against the dataset; the
    training step encodes with them unchecked."""
    out = []
    for j, t in enumerate(teachers):
        cfg = t.image_params.config
        bank = as_matrix(t.bank, f"teachers[{j}].bank")
        if cfg.input_dim != image_dim or bank.shape != (n_classes, cfg.output_dim):
            raise ShapeMismatch(
                f"teacher {j} takes {cfg.input_dim}-dim images to {cfg.output_dim} dims "
                f"with a {bank.shape} bank; the dataset has {image_dim}-dim images "
                f"and {n_classes} classes"
            )
        out.append(replace(t, bank=bank))
    return out


def _blocks(batches: list[np.ndarray]) -> list[list[np.ndarray]]:
    """An epoch's batches in blocks of consecutive batches of the first
    batch's size, at most ``_STACK_ROWS`` rows a block. A shorter tail batch
    is a block of its own, and so is every one-row batch."""
    size = batches[0].size if batches else 0
    per = max(_STACK_ROWS // size, 1) if size > 1 else 1
    n_full = sum(b.size == size for b in batches)
    return [batches[i : min(i + per, n_full)] for i in range(0, n_full, per)] + [
        [b] for b in batches[n_full:]
    ]


@dataclass
class _BatchDraws:
    """One batch's randomness, drawn ahead of its step."""

    rows: np.ndarray                      # positions in train_idx
    batch: AugmentedBatch
    text_masks: list[np.ndarray] | None   # the per-batch text bank's keep-masks
    image_masks: list[np.ndarray] | None


@dataclass
class _TeacherBlock:
    """The frozen teachers' side of each batch of a block of n batches of B
    rows; batch i reads index i of every array. Features and bank rows come
    in one stack per run of roster neighbours of one output dim
    (``_TeacherPass``), the stacks in roster order; the other arrays hold
    all K teachers in roster order."""

    feats: list[np.ndarray]       # per stack, n x K_s x B x d_s features
    bank_rows: list[np.ndarray]   # per stack, n x K_s x B x d_s soft-gathered bank rows
    i2t: np.ndarray               # n x K x B x N
    t2i: np.ndarray               # n x K x N x B
    lsr_scores: np.ndarray | None  # n x K label-similarity scores under lsr


def _gather(stack: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Entries ``stack[k, index[i, b]]`` of a (K, M, ...) stack for (n, B)
    indices, as a C-ordered (n, K, B, ...) array."""
    return stack[np.arange(stack.shape[0])[:, None], index[:, None, :]]


def _roster(parts: list[np.ndarray], axis: int) -> np.ndarray:
    """Per-stack arrays with each stack's teachers on ``axis``, as one array
    with all K teachers on that axis in roster order: the stacks end to end."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=axis)


class _TeacherPass:
    """The frozen teachers' side of distillation, one stacked pass per
    block for all K teachers (see the module docstring). Each run of roster
    neighbours of one output dim forms a stack, with their banks as
    (K_s, N, d_s) stacks, so the stacks laid end to end are the roster;
    teachers of unequal dims share a run only under ``per_teacher`` MSE,
    so a ``weighted_target`` run has one stack. Under ``none`` the
    teachers' values of every training row ``image_raw[train_idx]`` are
    computed once, under ``encoder``'s row policy: their features, their
    image-to-text distributions and, under ``lsr``, their clamped label
    similarities. Each block gathers its rows of them and computes only the text-to-image
    distributions, which normalize over the batch's own rows. Otherwise a
    block's augmented rows go through one eval-mode forward pass per
    teacher, whose widths differ. ``lsr`` asks for the label-similarity
    scores."""

    def __init__(
        self, config: TrainConfig, teachers: list[Teacher], image_raw, labels, train_idx,
        lsr: bool,
    ):
        self.tau = config.tau_teacher
        self.lsr = lsr
        stacks = [
            list(run)
            for _, run in itertools.groupby(teachers, lambda t: t.image_params.config.output_dim)
        ]
        self.params = [[t.image_params for t in run] for run in stacks]
        self.banks = [np.stack([t.bank for t in run]) for run in stacks]
        self.cache = None  # (features per stack, i2t, label similarities or None)
        if config.augmentation.kind == "none" and min(config.batch_size, train_idx.size) > 1:
            x, lab = image_raw[train_idx], labels[train_idx]
            feats = [np.stack([_encode_rows(p, x) for p in ps]) for ps in self.params]
            i2t = []
            for f, bank in zip(feats, self.banks):
                # Chunk by chunk into one array, which holds no whole-array temporaries.
                bank_t = bank.swapaxes(-1, -2)
                i2t.append(np.empty(f.shape[:-1] + bank_t.shape[-1:]))
                (stack, tail), (out, out_tail) = _row_chunks(f), _row_chunks(i2t[-1])
                for c in range(stack.shape[-3]):
                    out[..., c, :, :] = _softmax(stack[..., c, :, :] @ bank_t, self.tau)
                if tail.shape[-2]:
                    out_tail[...] = _softmax(tail @ bank_t, self.tau)
            sims = None
            if lsr:
                sims = _roster(
                    [weighting._label_sims(f, bank[:, lab]) for f, bank in zip(feats, self.banks)], 0
                )
            self.cache = (feats, _roster(i2t, 0), sims)

    def block(self, draws: list[_BatchDraws]) -> _TeacherBlock:
        batches = [d.batch for d in draws]
        labels = np.stack([b.labels_a for b in batches])
        rows = [_gather(bank, labels) for bank in self.banks]
        # Every mixup batch takes the soft formulas; an unmixed one, with
        # b = a and lam = 1, gets the hard labels' bits from them.
        lam = rows_b = None
        if batches[0].mix is not None:
            labels_b = np.stack([b.mix.labels_b for b in batches])
            rows_b = [_gather(bank, labels_b) for bank in self.banks]
            lam = np.stack([b.mix.lam for b in batches])[:, None, :]  # scales (n, K, B) arrays
        scores = None
        if self.cache is not None and labels.shape[1] > 1:
            feats_all, i2t_all, sims = self.cache
            at = np.stack([d.rows for d in draws])
            feats = [_gather(f, at) for f in feats_all]
            i2t = _gather(i2t_all, at)
            if self.lsr:
                scores = np.mean(_gather(sims, at), axis=-1)
        else:
            images = np.stack([b.image_raw for b in batches])
            feats = [
                np.stack([_encode(p, images, None)[0] for p in ps], axis=1) for ps in self.params
            ]
            i2t = _roster(
                [_softmax(f @ bank.swapaxes(-1, -2), self.tau) for f, bank in zip(feats, self.banks)],
                1,
            )
            if self.lsr:
                parts = []
                for s, f in enumerate(feats):
                    sims = weighting._label_sims(f, rows[s])
                    if lam is not None:
                        sims = lam * sims + (1.0 - lam) * weighting._label_sims(f, rows_b[s])
                    parts.append(np.mean(sims, axis=-1))
                scores = _roster(parts, 1)
        t2i = _roster(
            [_softmax(bank @ f.swapaxes(-1, -2), self.tau) for f, bank in zip(feats, self.banks)], 1
        )
        if lam is not None:
            lam_rows = lam[..., None]
            rows = [lam_rows * a + (1.0 - lam_rows) * b for a, b in zip(rows, rows_b)]
        return _TeacherBlock(feats=feats, bank_rows=rows, i2t=i2t, t2i=t2i, lsr_scores=scores)


def _mse_terms(mode: str, proj: _Projection, columns, feats_s, w_s_rows, t_feats, t_rows):
    """The MSE imitation term and its gradients with respect to the
    student's image features and soft-gathered text rows: against the
    alpha-weighted teacher targets, or against each teacher's own, weighted
    by alpha. ``columns`` are alpha's K columns (``_Members.columns``), and
    the student arrays may carry a leading member axis. ``t_feats`` and
    ``t_rows`` are the batch's (K_s, B, d_s) stacks of teacher features and
    bank rows, the stacks in roster order; under ``weighted_target`` there
    is one. Under ``per_teacher`` one ``_mse_align`` runs per stack, and
    the alpha-weighted sums run teacher by teacher in roster order, the
    order that sets their bits."""
    if mode == "weighted_target":
        (u_t,), (w_t,) = t_feats, t_rows
        d_t = u_t.shape[-1]
        u_target = sum(a * u for a, u in zip(columns, u_t))
        w_target = sum(a * w for a, w in zip(columns, w_t))
        m = distill._mse_align(
            u_target, proj.forward(feats_s, d_t), w_target, proj.forward(w_s_rows, d_t)
        )
        return m.value, proj.backward(m.grad_image, d_t), proj.backward(m.grad_text, d_t)
    value = 0.0
    g_u = np.zeros_like(feats_s)
    g_w = np.zeros_like(w_s_rows)
    columns = iter(columns)
    for u_t, w_t in zip(t_feats, t_rows):
        d_t = u_t.shape[-1]
        m = distill._mse_align(
            u_t, distill._per_teacher(proj.forward(feats_s, d_t)),
            w_t, distill._per_teacher(proj.forward(w_s_rows, d_t)),
        )
        for p in range(u_t.shape[0]):
            a, v = next(columns), m.value[..., p]
            value += a.reshape(np.shape(v)) * v
            g_u += a * proj.backward(m.grad_image[..., p, :, :], d_t)
            g_w += a * proj.backward(m.grad_text[..., p, :, :], d_t)
    return value, g_u, g_w


# The fields the runs of one group may differ in; they share all others.
_MEMBER_FIELDS = ("strategy", "loss_ratios")


def _group_key(config: TrainConfig) -> tuple:
    """What the runs of one group share: every field but the member fields."""
    return tuple(
        getattr(config, f.name) for f in fields(config) if f.name not in _MEMBER_FIELDS
    )


def _stacked(params: EncoderParams, members: int) -> EncoderParams:
    """``members`` copies of ``params`` along a leading member axis."""
    return EncoderParams(
        params.config,
        [np.repeat(w[None], members, axis=0) for w in params.weights],
        [np.repeat(b[None], members, axis=0) for b in params.biases],
    )


class _Members:
    """A group's members in the step's order: the distilling ones first, so
    that they are the leading slice ``[:n_dist]`` of the member axis and
    every view of them is a view, not a copy. A one-member call has no
    member axis, since numpy's ops cost more on (1, ...) stacks; this class
    alone decides that. ``lead`` and ``lead_dist`` are the member axes of
    all members and of the distilling ones."""

    def __init__(self, configs: Sequence[TrainConfig]):
        given = list(configs)
        if any(_group_key(c) != _group_key(given[0]) for c in given[1:]):
            raise InvalidConfig("configs", f"must differ only in {' and '.join(_MEMBER_FIELDS)}")
        self.order = sorted(range(len(given)), key=lambda s: given[s].strategy == "base")
        self.configs = [given[s] for s in self.order]
        self.n, self.n_dist = len(given), sum(c.strategy != "base" for c in given)
        self.lead = () if self.n == 1 else (self.n,)
        self.lead_dist = self.lead if self.n_dist == self.n else (self.n_dist,)
        # Each strategy's members, whose rows of the weights it fills.
        self.rows = {
            name: [s for s in range(self.n_dist) if self.configs[s].strategy == name]
            for name in STRATEGIES
        }
        k = given[0].num_teachers
        self.uniform = np.full(k, 1.0 / k) if k else np.zeros(0)
        ratios = np.array([c.loss_ratios for c in self.configs])  # (n, 3)
        self.r_clip = ratios[:, 0]
        self.r_clip_grad = self.r_clip.reshape(self.lead + (1, 1))
        self.ratios_dist = ratios[: self.n_dist].reshape(self.lead_dist + (3,))
        self.r_kl, self.r_mse = self.ratios_dist[..., 1], self.ratios_dist[..., 2, None, None]

    def at(self, s):
        """The index of member ``s``, or of a list of members, on a member axis."""
        return ... if self.n == 1 else s

    def dist(self, a):
        """The distilling members of ``a``, which has the member axis."""
        return a if self.n_dist == self.n else a[: self.n_dist]

    def columns(self, weights: np.ndarray) -> list:
        """The K columns of (lead_dist, K) weights, each shaped to scale
        (lead_dist, B, d) arrays: K scalars, or K (n_dist, 1, 1) arrays."""
        return list(weights.T[..., None, None]) if self.lead_dist else list(weights)

    def stacked(self, *params: EncoderParams) -> list[EncoderParams]:
        return [p if self.n == 1 else _stacked(p, self.n) for p in params]

    def views(self, params: EncoderParams) -> list[EncoderParams]:
        """Each member's parameters, as views."""
        return [_member_params(params, self.at(s)) for s in range(self.n)]

    def in_given_order(self, items: list) -> list:
        return [items[self.order.index(s)] for s in range(self.n)]


def _kl_grad_matrix(k: int, opt: _FlatAdam) -> tuple:
    """The K x P matrix of a dsw member's per-teacher KL gradients, in the
    columns of the encoder pair ``opt``, image encoder's first, and each
    encoder's views into it; laid out once per call and used by the dsw
    members in turn."""
    grads = np.empty((k, opt.p.shape[-1]))
    views = (EncoderGrads(*lay.views(grads[:, c])) for lay, c in zip(opt.layouts, opt.columns))
    return grads, *views


def _teacher_weights(members: _Members, t_block, i, kl_grad_u, kl_grad_w, tapes, dsw_grads):
    """The distilling members' (lead_dist, K) teacher weights for batch
    ``i`` of ``t_block``, and per dsw member its (s, Frank-Wolfe iterations,
    converged, certified): ``avg`` rows are uniform, ``lsr`` rows come from
    the batch's label-similarity scores, and each ``dsw`` member runs its KL
    cotangents through one stacked reverse pass per tape into
    ``dsw_grads`` and forms their Gram matrix once, for Frank-Wolfe and,
    once that converged, the certificate. A batch whose Frank-Wolfe did
    not converge is not certified."""
    alpha = np.empty(members.lead_dist + (members.uniform.size,))
    if members.rows["avg"]:
        alpha[members.at(members.rows["avg"])] = members.uniform
    if members.rows["lsr"]:
        scores = t_block.lsr_scores[i]
        alpha[members.at(members.rows["lsr"])] = weighting.lsr_weights(scores).weights
    stats = []
    for s in members.rows["dsw"]:
        grads, kl_img, kl_txt = dsw_grads
        _backward(_member_tape(tapes[0], s), kl_grad_u[members.at(s)], kl_img)
        _backward(_member_tape(tapes[1], s), kl_grad_w[members.at(s)], kl_txt)
        gram = grads @ grads.T
        fw = weighting.frank_wolfe_min_norm(
            gram, max_iter=weighting.DSW_MAX_ITER, tol=weighting.DSW_TOL
        )
        alpha[members.at(s)] = fw.weights
        certified = fw.converged and weighting.certify_pareto_stationarity(
            gram, fw.weights, tol=weighting.DSW_CERT_TOL
        ).passed
        stats.append((s, fw.iterations, fw.converged, certified))
    return alpha, stats


def _distill_terms(members, proj, t_block, i, batch, student, tapes, dsw_grads, out):
    """The distilling members' KL and MSE terms for batch ``i`` of
    ``t_block``, weighted by :func:`_teacher_weights`. ``student`` is the
    step's (features, class bank, distributions); ``out`` is its (clip
    losses, feature gradients, bank gradients, totals), where the
    distilling members' totals are set and their gradients added to, in
    place. Returns (kl, mse, alpha, stats) for the epoch's sums."""
    config = members.configs[0]
    feats_s, bank_s, dists = student
    l_clip, g_u, g_w, total = out
    feats, bank = members.dist(feats_s), members.dist(bank_s)
    kl_i2t, kl_t2i, kl_grad_u, kl_grad_w = distill._kl_stack(
        t_block.i2t[i], t_block.t2i[i], feats, bank, config.tau_distill,
        tuple(map(members.dist, dists)) if config.tau_distill == config.tau_student
        else _pair_log_softmax(feats, bank, config.tau_distill),
    )
    alpha, stats = _teacher_weights(members, t_block, i, kl_grad_u, kl_grad_w, tapes, dsw_grads)

    # MSE block: imitate the (weighted) teacher features.
    mse, g_mse_u, g_mse_w_rows = _mse_terms(
        config.mse_mode, proj, members.columns(alpha), feats,
        _soft_gather(bank, batch.labels_a, batch.mix),
        [f[i] for f in t_block.feats], [r[i] for r in t_block.bank_rows],
    )
    g_mse_w = _soft_scatter(g_mse_w_rows, batch.labels_a, batch.mix, bank.shape[-2])
    kl, total[: members.n_dist] = distill._total_losses(
        members.dist(l_clip), kl_i2t, kl_t2i, mse, members.ratios_dist, alpha
    )
    # Views: the distilling members' terms add into g_u, g_w.
    g_u, g_w = members.dist(g_u), members.dist(g_w)
    g_u += members.r_mse * g_mse_u
    g_w += members.r_mse * g_mse_w
    for j, r_kl_alpha in enumerate(members.columns(members.r_kl[..., None] * alpha)):
        g_u += r_kl_alpha * kl_grad_u[..., j, :, :]
        g_w += r_kl_alpha * kl_grad_w[..., j, :, :]
    return kl, mse, alpha, stats


class _EpochSums:
    """Per member, the sums over an epoch's batches that its EpochRecord
    averages, whether every certificate passed, and the count of batches
    whose Frank-Wolfe did not converge."""

    def __init__(self, members: _Members):
        self.n_dist, self.uniform = members.n_dist, members.uniform
        self.sums = np.zeros((5, members.n))
        self.l_clip, self.l_kl, self.l_mse, self.total, self.fw = self.sums
        self.l_kl_dist, self.l_mse_dist = self.l_kl[: self.n_dist], self.l_mse[: self.n_dist]
        self.alphas = np.zeros((members.n_dist, members.uniform.size))
        self.certified = np.ones(members.n, dtype=bool)
        self.unconverged = np.zeros(members.n, dtype=np.int64)
        self.batches = 0

    def add(self, l_clip, total, terms) -> None:
        """A batch's clip losses and totals, and ``_distill_terms``' result or None."""
        if terms is not None:
            kl, mse, alpha, stats = terms
            for s, iterations, converged, certified in stats:
                self.fw[s] += float(iterations)
                self.certified[s] &= certified
                self.unconverged[s] += not converged
            self.alphas += alpha
            self.l_kl_dist += kl
            self.l_mse_dist += mse
        self.l_clip += l_clip
        self.total += total
        self.batches += 1

    def record(self, s: int, epoch: int, accuracy: float, recall5: float, lr: float):
        nb = max(self.batches, 1)
        l_clip, l_kl, l_mse, total, fw = (float(v) for v in self.sums[:, s] / nb)
        return EpochRecord(
            epoch=epoch, l_clip=l_clip, l_kl=l_kl, l_mse=l_mse, total=total,
            accuracy=accuracy, recall5=recall5,
            alphas=self.alphas[s] / nb if s < self.n_dist else self.uniform.copy(),
            fw_iterations=fw, lr=lr, pareto_certified=bool(self.certified[s]),
        )


def distill_student(
    config: TrainConfig,
    teachers: Sequence[Teacher],
    dataset: PairedDataset,
    train_idx,
    eval_idx,
) -> tuple[StudentModel, RunMetrics]:
    """Distill a student against frozen teachers: :func:`distill_students`
    with one member."""
    return distill_students([config], teachers, dataset, train_idx, eval_idx)[0]


def distill_students(
    configs: Sequence[TrainConfig],
    teachers: Sequence[Teacher],
    dataset: PairedDataset,
    train_idx,
    eval_idx,
) -> list[tuple[StudentModel, RunMetrics]]:
    """Distill one student per config against the same frozen teachers, in
    lockstep, and return each one's (student, metrics). The configs form a
    group: they differ only in ``strategy`` and ``loss_ratios``. See the
    module docstring for the strategy semantics, the text-bank caching
    contract, the blocks of batches, the training step and the groups.
    A ``base`` member ignores the teachers. Any member's failure stops the
    whole call."""
    members = _Members(configs)
    config = members.configs[0]
    k = config.num_teachers
    if members.n_dist:
        if not teachers:
            raise StrategyTeacherMismatch(
                f"strategy {config.strategy!r} requires at least one teacher"
            )
        if len(teachers) != k:
            raise ShapeMismatch(f"config.num_teachers={k} but {len(teachers)} teachers supplied")

    rng_init = seeded_rng(config.seed, _TAG_STUDENT_INIT)
    rng_loop = seeded_rng(config.seed, _TAG_TRAIN_LOOP)
    rng_proj = seeded_rng(config.seed, _TAG_PROJECTION)

    img_params, txt_params = _init_encoder_pair(config.student, dataset, rng_init)
    opt = _FlatAdam(members.stacked(img_params, txt_params))
    (img, txt), (img_grads, txt_grads) = opt.params, opt.grads
    image_raw, anchors, labels = _checked_inputs(img_params, txt_params, dataset)
    n_classes = anchors.shape[0]
    teachers = _checked_teachers(teachers[:k], image_raw.shape[1], n_classes)

    teacher_dims = [t.image_params.config.output_dim for t in teachers]
    proj = _Projection(config.student.output_dim, teacher_dims, rng_proj)
    if members.n_dist and config.mse_mode == "weighted_target" and len(set(teacher_dims)) > 1:
        raise ShapeMismatch(
            "weighted_target mse requires equal teacher output dims; use mse_mode='per_teacher'"
        )

    train_idx = np.asarray(train_idx, dtype=np.int64)
    total_steps = config.epochs * ((train_idx.size + config.batch_size - 1) // config.batch_size)
    per_batch_bank = config.text_bank_refresh == "batch"
    dsw_grads = _kl_grad_matrix(k, opt) if members.rows["dsw"] else None
    teacher_pass = None
    if members.n_dist:
        teacher_pass = _TeacherPass(
            config, teachers, image_raw, labels, train_idx, lsr=bool(members.rows["lsr"])
        )
    img_views, txt_views = members.views(img), members.views(txt)

    runs = [RunMetrics(strategy=c.strategy, num_teachers=k) for c in members.configs]
    step = 0
    for epoch in range(config.epochs):
        # Cached student class banks for the epoch (see module docstring).
        if not per_batch_bank:
            bank_s, tape_text = _encode(
                txt, anchors, _dropout_masks(txt_params.config, n_classes, rng_loop)
            )
            text_grad_acc = np.zeros_like(bank_s)
        sums = _EpochSums(members)

        for block in _blocks(_batches(train_idx.size, config.batch_size, rng_loop)):
            # The block's randomness, in the order each step used to draw it.
            draws = []
            for rows in block:
                idx = train_idx[rows]
                batch = augment(image_raw[idx], labels[idx], config.augmentation, rng_loop)
                text_masks = None
                if per_batch_bank:
                    text_masks = _dropout_masks(txt_params.config, n_classes, rng_loop)
                image_masks = _dropout_masks(img_params.config, rows.size, rng_loop)
                draws.append(_BatchDraws(rows, batch, text_masks, image_masks))
            t_block = teacher_pass.block(draws) if members.n_dist else None

            for i, d in enumerate(draws):
                lr_now = config.lr_schedule.at(config.lr, step, total_steps)
                batch = d.batch
                if per_batch_bank:
                    bank_s, tape_text = _encode(txt, anchors, d.text_masks)
                feats_s, tape_img = _encode(img, batch.image_raw, d.image_masks)

                # The students' distributions, shared by the contrastive loss
                # and, at the same temperature, by every teacher's KL.
                dists = _pair_log_softmax(feats_s, bank_s, config.tau_student)
                # Every mixup batch takes the soft formulas, as the teachers' side does.
                loss_c = _clip_loss(
                    feats_s, bank_s, config.tau_student, dists, batch.labels_a, batch.mix
                )
                # base: clip-only, distillation terms removed
                g_u = members.r_clip_grad * loss_c.grad_image
                g_w = members.r_clip_grad * loss_c.grad_text
                total = members.r_clip * loss_c.value
                terms = None
                if members.n_dist:
                    terms = _distill_terms(
                        members, proj, t_block, i, batch, (feats_s, bank_s, dists),
                        (tape_img, tape_text), dsw_grads, (loss_c.value, g_u, g_w, total),
                    )
                _check_loss(total.tolist(), epoch)

                _backward(tape_img, g_u, img_grads)
                # Freed now, the tape's (members x B x width) arrays do not
                # stay alive through the next batch's forward pass.
                del tape_img
                if per_batch_bank:
                    _backward(tape_text, g_w, txt_grads)
                    opt.step(lr_now)
                else:
                    opt.step(lr_now, 0)
                    text_grad_acc += g_w
                sums.add(loss_c.value, total, terms)
                step += 1
            # Freed before the next block is computed, not after.
            del t_block

        lr_epoch = config.lr_schedule.at(config.lr, step - 1, total_steps)
        if not per_batch_bank:
            # One accumulated text step per epoch; Adam normalizes gradient
            # scale away, so the batch count multiplies the learning rate to
            # keep the text pathway's total step budget comparable to the
            # per-batch image pathway.
            _backward(tape_text, text_grad_acc, txt_grads)
            opt.step(lr_epoch * sums.batches, 1)
        # Every member evaluated at once.
        scores = evaluate(img, txt, dataset, eval_idx, config.tau_student)
        for s, (run, (acc, r5)) in enumerate(zip(runs, scores)):
            run.epochs.append(sums.record(s, epoch, acc, r5, lr_epoch))
            run.fw_unconverged += int(sums.unconverged[s])

    return members.in_given_order(
        [(StudentModel(i.copy(), t.copy()), run) for i, t, run in zip(img_views, txt_views, runs)]
    )


@dataclass
class RunResult:
    metrics: RunMetrics
    student: StudentModel
    teachers: list[Teacher]
    teacher_accuracies: list[float]


def run_single(
    dataset: PairedDataset,
    pretrain_cfg: PretrainConfig,
    roster: Sequence[TeacherSpec],
    config: TrainConfig,
    seed: int | None = None,
    teachers: Sequence[Teacher] | None = None,
) -> RunResult:
    """Distill the student against the first ``num_teachers`` roster
    entries, frozen. ``teachers`` are those entries already pretrained for
    this run's seed; without them they are pretrained here. ``seed``
    overrides ``config.seed`` when given."""
    if seed is not None:
        config = replace(config, seed=seed)
    train_idx, eval_idx = dataset_split(dataset, config.train_fraction)
    if teachers is None:
        k = config.teachers_used
        if k > len(roster):
            raise StrategyTeacherMismatch(f"num_teachers={k} exceeds roster size {len(roster)}")
        teachers = [
            pretrain_teacher(
                pretrain_cfg, dataset, train_idx, eval_idx, roster[j], config.seed, j
            )
            for j in range(k)
        ]
    student, metrics = distill_student(config, teachers, dataset, train_idx, eval_idx)
    return RunResult(
        metrics=metrics,
        student=student,
        teachers=list(teachers),
        teacher_accuracies=[t.accuracy for t in teachers],
    )
