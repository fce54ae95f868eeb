"""The gradient one distillation step hands to Adam, checked against central
differences of the documented objective (``oracles.distill_objective``),
written in plain numpy apart from the trainer's blocks, member axis, flat
buffers, in-place kernels and teacher cache.

One epoch of a single batch, without augmentation or student dropout and
with the per-batch text bank, makes one step: the gradient handed to the
first ``_FlatAdam.step`` is the objective's gradient at the initial
parameters, with alpha held fixed as the min-norm method holds it. For
``dsw`` alpha is the epoch's logged ``alphas``, which for one batch are
that batch's weights. The teachers share the student's output dim, so no
projection enters.

Tolerances: central differences at step 1e-5 on an objective of order 1
carry a truncation error of order 1e-10 and a rounding error of order
1e-11 per coordinate; judged against a floor of 1e-3 (``REL_FLOOR``), a
correct gradient agrees to about 1e-7 at worst, and the test allows 1e-6.
A dropped or misweighted term moves coordinates by far more than that.
The values the epoch logs are the objective's own terms, computed in
another order, so they agree to rounding (rtol 1e-10). ``dsw``'s logged
weights are also checked against the closed-form two-teacher min-norm
point of the teachers' KL gradients, each taken by central differences
over every parameter: they agree to 1e-8 (measured 3e-11), and weights
computed from one encoder's gradients alone move by 0.07.
"""

import numpy as np
import pytest

from kdlab import config, data, encoder, trainer
from kdlab.numerics import seeded_rng
from oracles import (
    central_diff_grad, distill_objective, lsr_alpha, min_norm_2, mlp_features, rel_errors,
    unflatten,
)

SPEC = data.SyntheticSpec(
    num_classes=4, image_dim=6, text_dim=5, samples_per_class=10, noise_sigma=0.3, seed=21
)
TEACHER_WIDTHS = ((7,), (5,))
COORDINATES = 20  # per encoder
TOL = 1e-6

CASES = [
    ("base", "weighted_target", "relu", 4.0),
    ("avg", "weighted_target", "relu", 4.0),
    ("avg", "per_teacher", "tanh", 2.0),
    ("lsr", "weighted_target", "relu", 4.0),
    ("lsr", "per_teacher", "tanh", 2.0),
    ("dsw", "weighted_target", "relu", 4.0),
    ("dsw", "per_teacher", "tanh", 2.0),
]


def _teachers(ds, activation):
    teachers = []
    for j, widths in enumerate(TEACHER_WIDTHS):
        pair = [
            encoder.init_params(
                encoder.EncoderConfig(dim, widths, 4, activation), seeded_rng(9, j, e)
            )
            for e, dim in enumerate((SPEC.image_dim, SPEC.text_dim))
        ]
        teachers.append(trainer.Teacher(*pair, data.build_class_bank(pair[1], ds), 1.0))
    return teachers


def _arrays(params):
    return params.weights, params.biases


@pytest.mark.parametrize("strategy, mse_mode, activation, tau_distill", CASES)
def test_first_step_gradient_is_the_objectives(
    monkeypatch, strategy, mse_mode, activation, tau_distill
):
    ds = data.generate(SPEC)
    train_idx, eval_idx = trainer.dataset_split(ds)
    teachers = _teachers(ds, activation)
    cfg = config.TrainConfig(
        epochs=1, batch_size=64, lr=1e-3, tau_teacher=3.0, tau_student=4.0,
        tau_distill=tau_distill, loss_ratios=(1.0, 0.7, 1.3), strategy=strategy,
        num_teachers=len(teachers), text_bank_refresh="batch", mse_mode=mse_mode,
        student=config.StudentConfig((9,), 4, activation, 0.0), seed=3,
    )
    assert train_idx.size <= cfg.batch_size  # one batch, one step

    steps = []
    real_step = encoder._FlatAdam.step

    def spy(self, lr, enc=None):
        steps.append((self.p.copy(), self.grad.copy()))
        return real_step(self, lr, enc)

    monkeypatch.setattr(encoder._FlatAdam, "step", spy)
    [(_, metrics)] = trainer.distill_students([cfg], teachers, ds, train_idx, eval_idx)
    assert len(steps) == 1
    theta, grad = steps[0]
    record = metrics.final

    x, labels, anchors = ds.image_raw[train_idx], ds.labels[train_idx], ds.text_anchors
    feats = [mlp_features(*_arrays(t.image_params), activation, x) for t in teachers]
    banks = [mlp_features(*_arrays(t.text_params), activation, anchors) for t in teachers]
    alpha = np.full(len(teachers), 1.0 / len(teachers))
    if strategy == "lsr":
        alpha = lsr_alpha(feats, banks, labels)
    elif strategy == "dsw":
        alpha = record.alphas
    np.testing.assert_allclose(record.alphas, alpha, rtol=1e-12)

    widths = (*cfg.student.hidden_widths, cfg.student.output_dim)
    dims = [(SPEC.image_dim, *widths), (SPEC.text_dim, *widths)]

    def objective(t):
        return distill_objective(t, cfg, dims, x, anchors, labels, feats, banks, alpha)

    total, clip, kl, mse = objective(theta)
    np.testing.assert_allclose(
        [record.total, record.l_clip, record.l_kl, record.l_mse], [total, clip, kl, mse],
        rtol=1e-10, atol=1e-14,
    )

    if strategy == "dsw":
        # The logged weights are the min-norm point of the teachers' KL
        # gradients over every student parameter.
        kl_grads = [
            central_diff_grad(
                lambda t: distill_objective(t, cfg, dims, x, anchors, labels, feats, banks, e)[2],
                theta,
            )
            for e in np.eye(len(teachers))
        ]
        gamma, _ = min_norm_2(*kl_grads)
        np.testing.assert_allclose(record.alphas, [gamma, 1.0 - gamma], rtol=0, atol=1e-8)

    n_img = unflatten(theta, dims[0])[2]
    rng = seeded_rng(17)
    picks = np.concatenate([
        rng.choice(n_img, COORDINATES, replace=False),
        n_img + rng.choice(theta.size - n_img, COORDINATES, replace=False),
    ])

    def at_picks(values):
        moved = theta.copy()
        moved[picks] = values
        return objective(moved)[0]

    numeric = central_diff_grad(at_picks, theta[picks])
    assert rel_errors(grad[picks], numeric).max() <= TOL


def test_epoch_text_step_takes_the_epochs_batches(monkeypatch):
    # The epoch text bank steps the text encoder once per epoch, at the
    # rate times the epoch's batch count; the image encoder steps at the
    # rate each batch.
    ds = data.generate(SPEC)
    train_idx, eval_idx = trainer.dataset_split(ds)
    cfg = config.TrainConfig(
        epochs=2, batch_size=12, lr=1e-3, strategy="base", num_teachers=0,
        student=config.StudentConfig((9,), 4, "relu", 0.0),
    )
    steps = []
    real_step = encoder._FlatAdam.step

    def spy(self, lr, enc=None):
        steps.append((lr, enc))
        return real_step(self, lr, enc)

    monkeypatch.setattr(encoder._FlatAdam, "step", spy)
    trainer.distill_students([cfg], [], ds, train_idx, eval_idx)
    batches = -(-train_idx.size // cfg.batch_size)
    assert batches > 1
    assert steps == 2 * ([(cfg.lr, 0)] * batches + [(cfg.lr * batches, 1)])
