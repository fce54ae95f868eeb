"""Two-step training orchestration: pretrain teachers with the contrastive
loss against their class banks, freeze them, then distill the student under
a chosen teacher-weighting strategy.

Strategies:
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

Frozen-teacher cache: with ``augmentation.kind == "none"`` a batch's
image rows are plain training rows, so each ``distill_student`` call
encodes every teacher's training rows once, in eval mode and in blocks of
``batch_size`` rows, and keeps their features and image-to-text rows.
Each batch gathers its rows from the cache and recomputes only the
text-to-image distribution, which depends on the batch's rows. The cache
lives for one call and nothing is kept between calls. An eval-mode row's
bits do not depend on the rows encoded beside it, as long as there are at
least two: BLAS computes a one-row product with its matrix-vector kernel,
which rounds differently. So a one-row tail block is folded into the block
before it, and a one-row batch is encoded on its own as before; the cached
run computes the same bits as encoding every batch. ``jitter`` and
``mixup`` produce new rows every batch and encode them per batch.

Single-threaded runs are bit-deterministic in (config, seed): every random
draw comes from named PCG64 streams derived from the run seed.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import distill, weighting
from .contrastive import ContrastiveBatch, MixedLabels, clip_loss, rank_of_label
from .data import LABEL_SHUFFLE, PairedDataset, WeightNoise, build_class_bank, corrupt_teacher
from .encoder import (
    EncoderConfig,
    EncoderParams,
    adam_step,
    encode,
    init_adam,
    init_params,
    param_fingerprint,
    vjp,
    with_lr,
)
from .errors import InvalidConfig, PretrainBelowGate, ShapeMismatch, StrategyTeacherMismatch
from .numerics import pairwise_logits, seeded_rng, softmax_rows

STRATEGIES = ("base", "avg", "lsr", "dsw")

# Stream tags for per-run rng derivation.
_TAG_TEACHER = 1
_TAG_STUDENT_INIT = 2
_TAG_TRAIN_LOOP = 3
_TAG_PROJECTION = 4
_TAG_SPLIT = 5


@dataclass(frozen=True)
class LrSchedule:
    kind: str = "fixed"          # fixed | cosine
    eta_min: float | None = None  # cosine floor; defaults to lr / 100

    def __post_init__(self):
        if self.kind not in ("fixed", "cosine"):
            raise ValueError(f"unknown lr schedule {self.kind!r}")


@dataclass(frozen=True)
class Augmentation:
    kind: str = "none"           # none | jitter | mixup
    sigma: float = 0.0           # jitter noise scale
    beta: float = 0.4            # mixup Beta(beta, beta) parameter

    def __post_init__(self):
        if self.kind not in ("none", "jitter", "mixup"):
            raise ValueError(f"unknown augmentation {self.kind!r}")


@dataclass(frozen=True)
class StudentConfig:
    hidden_widths: tuple[int, ...] = (48, 48)
    output_dim: int = 8
    activation: str = "relu"
    dropout_p: float = 0.5


@dataclass(frozen=True)
class TeacherSpec:
    hidden_widths: tuple[int, ...] = (96,)
    output_dim: int = 8
    activation: str = "relu"
    dropout_p: float = 0.0
    corruption: WeightNoise | str | None = None  # WeightNoise | "label_shuffle" | None


@dataclass(frozen=True)
class PretrainConfig:
    epochs: int = 30
    batch_size: int = 64
    lr: float = 1e-3
    tau: float = 4.0
    accuracy_gate: float = 0.95


@dataclass(frozen=True)
class TrainConfig:
    """Distillation-run configuration.

    The three temperatures map as: ``tau_teacher`` for the frozen teacher
    distributions, ``tau_student`` for the student's own contrastive loss,
    ``tau_distill`` for the student distributions inside the KL terms.
    ``loss_ratios`` orders (clip, kl, mse).
    """

    epochs: int = 60
    batch_size: int = 64
    lr: float = 1e-4
    lr_schedule: LrSchedule = LrSchedule()
    tau_teacher: float = 4.0
    tau_student: float = 4.0
    tau_distill: float = 4.0
    loss_ratios: tuple[float, float, float] = (1.0, 1.0, 1.0)
    strategy: str = "avg"
    num_teachers: int = 2
    augmentation: Augmentation = Augmentation()
    student: StudentConfig = StudentConfig()
    seed: int = 0
    text_bank_refresh: str = "epoch"   # epoch | batch
    eval_bank: str = "student"         # student | teacher:<k>
    mse_mode: str = "weighted_target"  # weighted_target | per_teacher
    kl_weight_mode: str = "per_teacher"  # per_teacher only
    train_fraction: float = 0.8

    def __post_init__(self):
        """Reject every value the trainer cannot run, naming the field."""
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise InvalidConfig(name, "must be >= 1")
        for name in ("tau_teacher", "tau_student", "tau_distill"):
            if getattr(self, name) <= 0:
                raise InvalidConfig(name, "must be > 0")
        if min(self.loss_ratios) <= 0:
            raise InvalidConfig("loss_ratios", "must be > 0")
        if self.strategy not in STRATEGIES:
            raise InvalidConfig("strategy", f"must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.text_bank_refresh not in ("epoch", "batch"):
            raise InvalidConfig("text_bank_refresh", "must be 'epoch' or 'batch'")
        if self.mse_mode not in ("weighted_target", "per_teacher"):
            raise InvalidConfig("mse_mode", "must be 'weighted_target' or 'per_teacher'")
        if self.kl_weight_mode != "per_teacher":
            # Every strategy produces per-teacher weights.
            raise InvalidConfig(
                "kl_weight_mode", f"must be 'per_teacher', got {self.kl_weight_mode!r}"
            )
        if self.eval_bank != "student" and not self._valid_teacher_bank():
            raise InvalidConfig(
                "eval_bank",
                f"must be 'student' or 'teacher:<j>' with 0 <= j < num_teachers="
                f"{self.num_teachers} under a distilling strategy, got {self.eval_bank!r}",
            )

    def _valid_teacher_bank(self) -> bool:
        prefix, _, j = self.eval_bank.partition(":")
        return (
            prefix == "teacher"
            and j.isdecimal()
            and int(j) < self.num_teachers
            and self.strategy != "base"
        )


@dataclass
class Teacher:
    """Frozen encoder pair with its cached class text bank."""

    image_params: EncoderParams
    text_params: EncoderParams
    bank: np.ndarray
    accuracy: float
    spec: TeacherSpec

    def fingerprints(self) -> tuple[str, str]:
        return param_fingerprint(self.image_params), param_fingerprint(self.text_params)


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
    recall1: float
    recall5: float
    alphas: np.ndarray    # mean strategy weights over the epoch's batches
    fw_iterations: float
    lr: float
    wall_ms: float
    pareto_certified: bool


@dataclass
class RunMetrics:
    strategy: str
    num_teachers: int
    epochs: list[EpochRecord] = field(default_factory=list)

    @property
    def final(self) -> EpochRecord:
        return self.epochs[-1]


@dataclass
class AugmentedBatch:
    image_raw: np.ndarray
    text_raw: np.ndarray
    labels_a: np.ndarray
    labels_b: np.ndarray
    lam: np.ndarray  # per-sample weight on labels_a

    @property
    def is_mixed(self) -> bool:
        return not (
            np.array_equal(self.labels_a, self.labels_b) and np.all(self.lam == 1.0)
        )

    def mix(self) -> MixedLabels | None:
        return MixedLabels(self.labels_b, self.lam) if self.is_mixed else None


def lr_at(schedule: LrSchedule, lr: float, t: int, total: int) -> float:
    """Learning rate at step t of total: constant, or half-cosine decay from
    lr down to eta_min."""
    if schedule.kind == "fixed":
        return lr
    eta_min = schedule.eta_min if schedule.eta_min is not None else lr / 100.0
    frac = 0.0 if total <= 0 else min(max(t / total, 0.0), 1.0)
    return eta_min + 0.5 * (lr - eta_min) * (1.0 + np.cos(np.pi * frac))


def split_indices(labels, train_fraction: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint stratified split; exact per class when counts divide."""
    labels = np.asarray(labels, dtype=np.int64)
    train_parts, eval_parts = [], []
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        idx = idx[rng.permutation(idx.size)]
        cut = int(round(idx.size * train_fraction))
        train_parts.append(idx[:cut])
        eval_parts.append(idx[cut:])
    return np.sort(np.concatenate(train_parts)), np.sort(np.concatenate(eval_parts))


def dataset_split(dataset: PairedDataset, train_fraction: float = 0.8):
    """Canonical split for a dataset, derived from the dataset seed so every
    strategy and run seed sees the same partition."""
    rng = seeded_rng(dataset.spec.seed, _TAG_SPLIT)
    return split_indices(dataset.labels, train_fraction, rng)


def augment(image_raw, text_raw, labels, mode: Augmentation, rng) -> AugmentedBatch:
    """Vector-space batch augmentation.

    jitter adds Gaussian noise to both raw modalities; mixup convexly
    combines each sample with a random in-batch partner using per-sample
    Beta(beta, beta) coefficients, applied to raw vectors and tracked as a
    soft label pair.
    """
    img = np.asarray(image_raw, dtype=np.float64)
    txt = np.asarray(text_raw, dtype=np.float64)
    lab = np.asarray(labels, dtype=np.int64)
    b_sz = img.shape[0]
    if mode.kind == "none":
        return AugmentedBatch(img, txt, lab, lab, np.ones(b_sz))
    if mode.kind == "jitter":
        img = img + mode.sigma * rng.standard_normal(img.shape)
        txt = txt + mode.sigma * rng.standard_normal(txt.shape)
        return AugmentedBatch(img, txt, lab, lab, np.ones(b_sz))
    # mixup
    partner = rng.permutation(b_sz)
    lam = rng.beta(mode.beta, mode.beta, size=b_sz)
    img = lam[:, None] * img + (1.0 - lam)[:, None] * img[partner]
    txt = lam[:, None] * txt + (1.0 - lam)[:, None] * txt[partner]
    return AugmentedBatch(img, txt, lab, lab[partner], lam)


def evaluate(
    image_params: EncoderParams,
    text_params: EncoderParams,
    dataset: PairedDataset,
    idx,
    tau: float,
    bank: np.ndarray | None = None,
) -> tuple[float, float, float]:
    """(accuracy, recall@1, recall@5) of classification over the class
    ranking; the bank defaults to the model's own encoded class anchors."""
    if bank is None:
        bank = build_class_bank(text_params, dataset)
    idx = np.asarray(idx, dtype=np.int64)
    feats, _ = encode(image_params, dataset.image_raw[idx], train_mode=False)
    ranks = rank_of_label(feats, bank, dataset.labels[idx], tau)
    acc = float(np.mean(ranks < 1))
    r5 = float(np.mean(ranks < min(5, bank.shape[0])))
    return acc, acc, r5


def _batches(n: int, batch_size: int, rng) -> list[np.ndarray]:
    order = rng.permutation(n)
    return [order[i : i + batch_size] for i in range(0, n, batch_size)]


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

    img_cfg = EncoderConfig(
        dataset.spec.image_dim, spec.hidden_widths, spec.output_dim,
        spec.activation, spec.dropout_p,
    )
    txt_cfg = EncoderConfig(
        dataset.spec.text_dim, spec.hidden_widths, spec.output_dim,
        spec.activation, spec.dropout_p,
    )
    img_params = init_params(img_cfg, rng_init)
    txt_params = init_params(txt_cfg, rng_init)
    img_adam = init_adam(img_params, cfg.lr)
    txt_adam = init_adam(txt_params, cfg.lr)

    train_idx = np.asarray(train_idx, dtype=np.int64)
    labels = dataset.labels.copy()
    if spec.corruption == LABEL_SHUFFLE:
        shuffled = labels[train_idx]
        labels[train_idx] = shuffled[rng_corrupt.permutation(shuffled.size)]

    for _ in range(cfg.epochs):
        for batch in _batches(train_idx.size, cfg.batch_size, rng_loop):
            idx = train_idx[batch]
            feats, tape_i = encode(
                img_params, dataset.image_raw[idx], train_mode=True, rng=rng_loop
            )
            bank, tape_t = encode(
                txt_params, dataset.text_anchors, train_mode=True, rng=rng_loop
            )
            loss = clip_loss(
                ContrastiveBatch(feats, bank, cfg.tau), labels[idx]
            )
            g_img, _ = vjp(tape_i, loss.grad_image)
            g_txt, _ = vjp(tape_t, loss.grad_text)
            img_params, img_adam = adam_step(img_params, g_img, img_adam)
            txt_params, txt_adam = adam_step(txt_params, g_txt, txt_adam)

    acc, _, _ = evaluate(img_params, txt_params, dataset, eval_idx, cfg.tau)
    if spec.corruption != LABEL_SHUFFLE and acc < cfg.accuracy_gate:
        warnings.warn(
            f"teacher {teacher_index} reached eval accuracy {acc:.3f}, below the "
            f"{cfg.accuracy_gate} gate",
            PretrainBelowGate,
        )

    if isinstance(spec.corruption, WeightNoise):
        img_params = corrupt_teacher(img_params, spec.corruption, rng_corrupt)
        txt_params = corrupt_teacher(txt_params, spec.corruption, rng_corrupt)

    bank = build_class_bank(txt_params, dataset)
    return Teacher(
        image_params=img_params,
        text_params=txt_params,
        bank=bank,
        accuracy=acc,
        spec=spec,
    )


def _soft_gather(bank: np.ndarray, batch: AugmentedBatch) -> np.ndarray:
    """Per-sample text rows under soft labels: lam * bank[a] + (1-lam) * bank[b]."""
    return (
        batch.lam[:, None] * bank[batch.labels_a]
        + (1.0 - batch.lam)[:, None] * bank[batch.labels_b]
    )


def _soft_scatter(grad_rows: np.ndarray, batch: AugmentedBatch, n_rows: int) -> np.ndarray:
    """Adjoint of :func:`_soft_gather`: scatter row gradients back to the bank."""
    out = np.zeros((n_rows, grad_rows.shape[1]))
    np.add.at(out, batch.labels_a, batch.lam[:, None] * grad_rows)
    np.add.at(out, batch.labels_b, (1.0 - batch.lam)[:, None] * grad_rows)
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


def _teacher_outputs(teacher: Teacher, image_rows, tau: float) -> distill.TeacherOutputs:
    """A frozen teacher's eval-mode view of ``image_rows``."""
    feats, _ = encode(teacher.image_params, image_rows, train_mode=False)
    return distill.TeacherOutputs.from_features(feats, teacher.bank, tau)


class _FrozenTeacherCache:
    """One frozen teacher's eval-mode features and image-to-text rows for
    the training rows ``image_raw[train_idx]``, indexed by position in
    ``train_idx``. Built in blocks of ``block`` rows, so building needs no
    more memory than a batch (see the module docstring)."""

    def __init__(self, teacher: Teacher, image_raw, train_idx, block: int, tau: float):
        n = train_idx.size
        starts = list(range(0, n, block))
        if len(starts) > 1 and n - starts[-1] == 1:
            starts.pop()  # no one-row block
        feats, i2t = [], []
        for start, stop in zip(starts, starts[1:] + [n]):
            out = _teacher_outputs(teacher, image_raw[train_idx[start:stop]], tau)
            feats.append(out.image_features)
            i2t.append(out.i2t_probs)
        self.features = np.concatenate(feats)
        self.i2t_probs = np.concatenate(i2t)
        self.bank = teacher.bank
        self.tau = tau

    def outputs(self, rows: np.ndarray) -> distill.TeacherOutputs:
        """The teacher's view of the batch at ``rows``; t2i is recomputed
        because it normalizes over the batch."""
        u = self.features[rows]
        return distill.TeacherOutputs(
            image_features=u,
            text_features=self.bank,
            i2t_probs=self.i2t_probs[rows],
            t2i_probs=softmax_rows(pairwise_logits(self.bank, u), self.tau),
            tau=self.tau,
        )


def distill_student(
    config: TrainConfig,
    teachers: Sequence[Teacher],
    dataset: PairedDataset,
    train_idx,
    eval_idx,
) -> tuple[StudentModel, RunMetrics]:
    """Distill a student against frozen teachers; see the module docstring
    for the strategy semantics and the text-bank caching contract."""
    k = config.num_teachers
    if config.strategy != "base":
        if k == 0 or not teachers:
            raise StrategyTeacherMismatch(
                f"strategy {config.strategy!r} requires at least one teacher"
            )
        if len(teachers) != k:
            raise ShapeMismatch(
                f"config.num_teachers={k} but {len(teachers)} teachers supplied"
            )
    teachers = list(teachers[:k])
    use_teachers = config.strategy != "base"

    rng_init = seeded_rng(config.seed, _TAG_STUDENT_INIT)
    rng_loop = seeded_rng(config.seed, _TAG_TRAIN_LOOP)
    rng_proj = seeded_rng(config.seed, _TAG_PROJECTION)

    img_cfg = EncoderConfig(
        dataset.spec.image_dim, config.student.hidden_widths,
        config.student.output_dim, config.student.activation,
        config.student.dropout_p,
    )
    txt_cfg = EncoderConfig(
        dataset.spec.text_dim, config.student.hidden_widths,
        config.student.output_dim, config.student.activation,
        config.student.dropout_p,
    )
    img_params = init_params(img_cfg, rng_init)
    txt_params = init_params(txt_cfg, rng_init)
    img_adam = init_adam(img_params, config.lr)
    txt_adam = init_adam(txt_params, config.lr)

    teacher_dims = [t.spec.output_dim for t in teachers]
    proj = _Projection(config.student.output_dim, teacher_dims, rng_proj)
    if use_teachers and config.mse_mode == "weighted_target" and len(set(teacher_dims)) > 1:
        raise ShapeMismatch(
            "weighted_target mse requires equal teacher output dims; "
            "use mse_mode='per_teacher'"
        )

    train_idx = np.asarray(train_idx, dtype=np.int64)
    n_train = train_idx.size
    batches_per_epoch = (n_train + config.batch_size - 1) // config.batch_size
    total_steps = config.epochs * batches_per_epoch
    r_clip, r_kl, r_mse = config.loss_ratios
    uniform = np.full(k, 1.0 / k) if k else np.zeros(0)
    cache = None
    if use_teachers and config.augmentation.kind == "none" and min(config.batch_size, n_train) > 1:
        cache = [
            _FrozenTeacherCache(
                t, dataset.image_raw, train_idx, config.batch_size, config.tau_teacher
            )
            for t in teachers
        ]

    metrics = RunMetrics(strategy=config.strategy, num_teachers=k)
    step = 0
    for epoch in range(config.epochs):
        t_start = time.perf_counter()
        # Cached student class bank for the epoch (see module docstring).
        per_batch_bank = config.text_bank_refresh == "batch"
        if not per_batch_bank:
            bank_s, tape_text = encode(
                txt_params, dataset.text_anchors, train_mode=True, rng=rng_loop
            )
            text_grad_acc = np.zeros_like(bank_s)

        sums = {"clip": 0.0, "kl": 0.0, "mse": 0.0, "total": 0.0, "fw": 0.0}
        alpha_sum = np.zeros(k)
        certified = True
        n_batches = 0

        for batch_pos in _batches(n_train, config.batch_size, rng_loop):
            lr_now = lr_at(config.lr_schedule, config.lr, step, total_steps)
            idx = train_idx[batch_pos]
            batch = augment(
                dataset.image_raw[idx],
                dataset.text_raw[idx],
                dataset.labels[idx],
                config.augmentation,
                rng_loop,
            )
            if per_batch_bank:
                bank_s, tape_text = encode(
                    txt_params, dataset.text_anchors, train_mode=True, rng=rng_loop
                )
            feats_s, tape_img = encode(
                img_params, batch.image_raw, train_mode=True, rng=rng_loop
            )

            loss_c = clip_loss(
                ContrastiveBatch(feats_s, bank_s, config.tau_student),
                batch.labels_a,
                batch.mix(),
            )

            if use_teachers:
                if cache is not None and batch_pos.size > 1:
                    t_outs = [c.outputs(batch_pos) for c in cache]
                else:
                    t_outs = [
                        _teacher_outputs(t, batch.image_raw, config.tau_teacher)
                        for t in teachers
                    ]
                t_feats = [o.image_features for o in t_outs]
                kl_parts = [
                    distill.kl_pair_loss(o, feats_s, bank_s, config.tau_distill)
                    for o in t_outs
                ]

                fw_iters = 0.0
                if config.strategy == "avg":
                    alpha = uniform
                elif config.strategy == "lsr":
                    alpha = weighting.lsr_weights(
                        np.array(
                            [
                                weighting.teacher_label_similarity(
                                    t_feats[j],
                                    batch.labels_a,
                                    teachers[j].bank,
                                    batch.labels_b if batch.is_mixed else None,
                                    batch.lam if batch.is_mixed else None,
                                )
                                for j in range(k)
                            ]
                        )
                    ).weights
                else:  # dsw: one stacked reverse pass per tape
                    pg_img, _ = vjp(tape_img, np.stack([kp.grad_image for kp in kl_parts]))
                    pg_txt, _ = vjp(tape_text, np.stack([kp.grad_text for kp in kl_parts]))
                    gset = weighting.TeacherGradientSet.from_rows(
                        np.concatenate([pg_img.flatten(), pg_txt.flatten()], axis=1),
                        [kp.l_i2t + kp.l_t2i for kp in kl_parts],
                    )
                    fw = weighting.frank_wolfe_min_norm(
                        gset, max_iter=weighting.DSW_MAX_ITER, tol=weighting.DSW_TOL
                    )
                    alpha = fw.weights
                    fw_iters = float(fw.iterations)
                    if fw.converged:
                        cert = weighting.certify_pareto_stationarity(
                            fw.direction, gset, tol=1e-6
                        )
                        certified = certified and cert.passed

                # MSE block: imitate the (weighted) teacher features.
                w_s_rows = _soft_gather(bank_s, batch)
                if config.mse_mode == "weighted_target":
                    d_t = teacher_dims[0]
                    u_target = sum(
                        alpha[j] * t_feats[j] for j in range(k)
                    )
                    w_target = sum(
                        alpha[j] * _soft_gather(teachers[j].bank, batch)
                        for j in range(k)
                    )
                    u_s_eff = proj.forward(feats_s, d_t)
                    w_s_eff = proj.forward(w_s_rows, d_t)
                    mse = distill.mse_align(u_target, u_s_eff, w_target, w_s_eff)
                    mse_val = mse.value
                    g_mse_u = proj.backward(mse.grad_image, d_t)
                    g_mse_w_rows = proj.backward(mse.grad_text, d_t)
                else:
                    mse_val = 0.0
                    g_mse_u = np.zeros_like(feats_s)
                    g_mse_w_rows = np.zeros_like(w_s_rows)
                    for j, t in enumerate(teachers):
                        d_t = teacher_dims[j]
                        m = distill.mse_align(
                            t_feats[j],
                            proj.forward(feats_s, d_t),
                            _soft_gather(t.bank, batch),
                            proj.forward(w_s_rows, d_t),
                        )
                        mse_val += alpha[j] * m.value
                        g_mse_u += alpha[j] * proj.backward(m.grad_image, d_t)
                        g_mse_w_rows += alpha[j] * proj.backward(m.grad_text, d_t)
                g_mse_w = _soft_scatter(g_mse_w_rows, batch, bank_s.shape[0])

                breakdown = distill.total_loss(
                    loss_c.value,
                    [(kp.l_i2t, kp.l_t2i) for kp in kl_parts],
                    mse_val,
                    config.loss_ratios,
                    alpha,
                    weight_mode=config.kl_weight_mode,
                )
                g_u = r_clip * loss_c.grad_image + r_mse * g_mse_u
                g_w = r_clip * loss_c.grad_text + r_mse * g_mse_w
                for j, kp in enumerate(kl_parts):
                    g_u += r_kl * alpha[j] * kp.grad_image
                    g_w += r_kl * alpha[j] * kp.grad_text

                alpha_sum += alpha
                sums["fw"] += fw_iters
                sums["kl"] += breakdown.l_kl_weighted
                sums["mse"] += breakdown.l_mse
                total_val = breakdown.total
            else:
                # base: clip-only, distillation terms removed
                g_u = r_clip * loss_c.grad_image
                g_w = r_clip * loss_c.grad_text
                total_val = r_clip * loss_c.value

            g_img_params, _ = vjp(tape_img, g_u)
            img_params, img_adam = adam_step(
                img_params, g_img_params, with_lr(img_adam, lr_now)
            )
            if per_batch_bank:
                g_txt_params, _ = vjp(tape_text, g_w)
                txt_params, txt_adam = adam_step(
                    txt_params, g_txt_params, with_lr(txt_adam, lr_now)
                )
            else:
                text_grad_acc += g_w

            sums["clip"] += loss_c.value
            sums["total"] += total_val
            n_batches += 1
            step += 1

        if not per_batch_bank:
            # One accumulated text step per epoch; Adam normalizes gradient
            # scale away, so the batch count multiplies the learning rate to
            # keep the text pathway's total step budget comparable to the
            # per-batch image pathway.
            g_txt_params, _ = vjp(tape_text, text_grad_acc)
            lr_now = lr_at(config.lr_schedule, config.lr, step - 1, total_steps)
            txt_params, txt_adam = adam_step(
                txt_params, g_txt_params, with_lr(txt_adam, lr_now * n_batches)
            )

        bank_eval = _eval_bank(config, teachers)
        acc, r1, r5 = evaluate(
            img_params, txt_params, dataset, eval_idx, config.tau_student, bank_eval
        )
        nb = max(n_batches, 1)
        metrics.epochs.append(
            EpochRecord(
                epoch=epoch,
                l_clip=sums["clip"] / nb,
                l_kl=sums["kl"] / nb,
                l_mse=sums["mse"] / nb,
                total=sums["total"] / nb,
                accuracy=acc,
                recall1=r1,
                recall5=r5,
                alphas=(alpha_sum / nb) if use_teachers else uniform.copy(),
                fw_iterations=sums["fw"] / nb,
                lr=lr_at(config.lr_schedule, config.lr, step - 1, total_steps),
                wall_ms=(time.perf_counter() - t_start) * 1000.0,
                pareto_certified=certified,
            )
        )

    return StudentModel(img_params, txt_params), metrics


def _eval_bank(config: TrainConfig, teachers):
    """The bank evaluation ranks against; TrainConfig validated the name."""
    if config.eval_bank == "student":
        return None  # evaluate() builds it from the student text encoder
    return teachers[int(config.eval_bank.split(":", 1)[1])].bank


DEFAULT_TEACHER_ROSTER: tuple[TeacherSpec, ...] = (
    TeacherSpec(hidden_widths=(96,)),
    TeacherSpec(hidden_widths=(80,)),
    TeacherSpec(hidden_widths=(64,)),
    TeacherSpec(hidden_widths=(112,)),
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
) -> RunResult:
    """Pretrain the first ``num_teachers`` roster entries, freeze them, and
    distill the student. ``seed`` overrides ``config.seed`` when given."""
    if seed is not None:
        config = replace(config, seed=seed)
    train_idx, eval_idx = dataset_split(dataset, config.train_fraction)
    teachers: list[Teacher] = []
    if config.strategy != "base":
        if config.num_teachers > len(roster):
            raise StrategyTeacherMismatch(
                f"num_teachers={config.num_teachers} exceeds roster size {len(roster)}"
            )
        for j in range(config.num_teachers):
            teachers.append(
                pretrain_teacher(
                    pretrain_cfg, dataset, train_idx, eval_idx, roster[j],
                    config.seed, j,
                )
            )
    student, metrics = distill_student(config, teachers, dataset, train_idx, eval_idx)
    return RunResult(
        metrics=metrics,
        student=student,
        teachers=teachers,
        teacher_accuracies=[t.accuracy for t in teachers],
    )
