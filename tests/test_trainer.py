import dataclasses
import inspect
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from kdlab import cli, config, contrastive, data, distill, encoder, numerics, trainer, weighting
from kdlab.errors import (
    DimensionMismatch,
    InvalidConfig,
    KdlabError,
    NonFiniteInput,
    StrategyTeacherMismatch,
)
from kdlab.numerics import seeded_rng
from oracles import (
    adam_per_array,
    init_adam,
    mixed_clip_loss_add_at,
    param_fingerprint,
    soft_scatter_add_at,
)
from test_cli import TINY_TRAIN, write_manifest

TINY_SPEC = data.SyntheticSpec(
    num_classes=4, image_dim=10, text_dim=8, samples_per_class=40,
    noise_sigma=0.2, anchor_scale=1.0, seed=77,
)
TINY_STUDENT = trainer.StudentConfig(hidden_widths=(16,), output_dim=6, dropout_p=0.2)
TINY_TEACHER = trainer.TeacherSpec(hidden_widths=(24,), output_dim=6)
# The roster the tiny fixture's teachers are pretrained from, at seed 0.
TINY_ROSTER = (TINY_TEACHER, trainer.TeacherSpec(hidden_widths=(20,), output_dim=6))
TINY_PRETRAIN = trainer.PretrainConfig(epochs=8, batch_size=32, lr=3e-3, tau=4.0)


@pytest.fixture(scope="module")
def tiny():
    ds = data.generate(TINY_SPEC)
    train_idx, eval_idx = trainer.dataset_split(ds)
    teachers = [
        trainer.pretrain_teacher(TINY_PRETRAIN, ds, train_idx, eval_idx, spec, 0, j)
        for j, spec in enumerate(TINY_ROSTER)
    ]
    return ds, train_idx, eval_idx, teachers


@pytest.fixture(scope="module")
def three_teachers(tiny):
    """The two tiny teachers and a third of another output dim, 6, 6, 5."""
    ds, train_idx, eval_idx, teachers = tiny
    third = trainer.pretrain_teacher(
        TINY_PRETRAIN, ds, train_idx, eval_idx,
        trainer.TeacherSpec(hidden_widths=(12,), output_dim=5), 0, 2,
    )
    return teachers + [third]


def tiny_config(**kw):
    base = dict(
        epochs=3, batch_size=32, strategy="avg", num_teachers=2,
        student=TINY_STUDENT, seed=0,
    )
    base.update(kw)
    return trainer.TrainConfig(**base)


class TestTrainConfig:
    @pytest.mark.parametrize("corruption", ["label-shuffle", 3.5, "none", config.Corruption])
    def test_teacher_spec_rejects_unknown_corruption(self, corruption):
        # A corruption pretrain_teacher cannot apply would train an
        # uncorrupted teacher without a word.
        with pytest.raises(InvalidConfig) as info:
            trainer.TeacherSpec(corruption=corruption)
        assert info.value.field == "corruption"
        for ok in (config.Corruption("weight_noise", 0.5), config.Corruption("label_shuffle")):
            assert trainer.TeacherSpec(corruption=ok).corruption == ok
        assert trainer.TeacherSpec(corruption=None).corruption == config.Corruption()

    def test_corruption_sigma_is_weight_noise_only(self):
        assert config.Corruption("weight_noise").sigma == 1.0
        assert config.Corruption("weight_noise", 0.0).sigma == 0.0
        for kind in ("none", "label_shuffle"):
            assert config.Corruption(kind).sigma is None
            with pytest.raises(InvalidConfig) as info:
                config.Corruption(kind, 1.0)
            assert info.value.field == "sigma"

    @pytest.mark.parametrize("mode", ["per_direction", "per-teacher", ""])
    def test_kl_weight_mode_only_per_teacher(self, mode):
        with pytest.raises(InvalidConfig) as info:
            tiny_config(kl_weight_mode=mode)
        assert info.value.field == "kl_weight_mode"
        assert tiny_config(kl_weight_mode="per_teacher").kl_weight_mode == "per_teacher"

    @pytest.mark.parametrize(
        "bank, strategy",
        [
            ("teacher:2", "avg"),
            ("teacher:9", "dsw"),
            ("teacher:-1", "avg"),
            ("teacher:", "avg"),
            ("teacher:x", "avg"),
            ("teacher", "avg"),
            ("Student", "avg"),
            ("teacher:0", "base"),
            ("teacher:0", "avg"),
            ("teacher:1", "avg"),
        ],
    )
    def test_eval_bank_rejected(self, bank, strategy):
        with pytest.raises(InvalidConfig) as info:
            tiny_config(eval_bank=bank, strategy=strategy)
        assert info.value.field == "eval_bank"

    @pytest.mark.parametrize("bank", ["student"])
    def test_eval_bank_accepted(self, bank):
        assert tiny_config(eval_bank=bank).eval_bank == bank

    def test_errors_stay_value_errors(self):
        with pytest.raises(ValueError):
            tiny_config(epochs=0)

    def test_errors_survive_pickling(self):
        # A run's error comes back from a worker process pickled.
        e = pickle.loads(pickle.dumps(InvalidConfig("epochs", "must be >= 1")))
        assert (type(e), e.field, e.why) == (InvalidConfig, "epochs", "must be >= 1")
        assert str(e) == "epochs must be >= 1"

    # The training step divides by temperatures without checking them, so
    # an infinite one would train to completion on uniform distributions.
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize(
        "field, kw",
        [
            ("tau_distill", {}),
            ("tau_teacher", dict(augmentation=trainer.Augmentation("mixup", beta=0.4))),
            ("tau_student", {}),
            ("lr", {}),
        ],
    )
    def test_non_finite_rejected(self, field, kw, value):
        with pytest.raises(InvalidConfig) as info:
            tiny_config(**{field: value}, **kw)
        assert info.value.field == field

    @pytest.mark.parametrize("field", ["tau", "lr"])
    def test_pretrain_non_finite_rejected(self, field):
        with pytest.raises(InvalidConfig) as info:
            dataclasses.replace(TINY_PRETRAIN, **{field: math.inf})
        assert info.value.field == field


class TestLrAt:
    def test_cosine_endpoints(self):
        sched = config.LrSchedule("cosine", eta_min=1e-6)
        assert sched.at(1e-4, 0, 100) == pytest.approx(1e-4)
        assert sched.at(1e-4, 100, 100) == pytest.approx(1e-6)

    def test_cosine_midpoint(self):
        sched = config.LrSchedule("cosine", eta_min=0.0)
        assert sched.at(2.0, 50, 100) == pytest.approx(1.0)

    def test_fixed(self):
        sched = config.LrSchedule("fixed")
        for t in (0, 5, 10):
            assert sched.at(3e-4, t, 10) == 3e-4

    def test_default_eta_min_is_hundredth(self):
        sched = config.LrSchedule("cosine")
        assert sched.at(1e-2, 10, 10) == pytest.approx(1e-4)


class TestSplit:
    def test_disjoint_and_stratified(self):
        ds = data.generate(TINY_SPEC)
        train_idx, eval_idx = trainer.dataset_split(ds)
        assert len(np.intersect1d(train_idx, eval_idx)) == 0
        assert train_idx.size + eval_idx.size == ds.labels.size
        # 40 per class at 80/20: exactly 32 train / 8 eval per class
        for c in range(TINY_SPEC.num_classes):
            assert np.sum(ds.labels[train_idx] == c) == 32
            assert np.sum(ds.labels[eval_idx] == c) == 8

    def test_same_split_for_all_callers(self):
        ds = data.generate(TINY_SPEC)
        a = trainer.dataset_split(ds)
        b = trainer.dataset_split(ds)
        np.testing.assert_array_equal(a[0], b[0])

    def test_one_default_fraction(self):
        # A run's config and a bare dataset_split call take config's fraction.
        default = inspect.signature(trainer.dataset_split).parameters["train_fraction"].default
        assert default is config.TRAIN_FRACTION is trainer.TrainConfig().train_fraction


class TestAugment:
    def test_none_is_identity(self, rng):
        img = rng.normal(size=(6, 4))
        labels = np.arange(6) % 3
        out = trainer.augment(img, labels, trainer.Augmentation("none"), seeded_rng(0))
        np.testing.assert_array_equal(out.image_raw, img)
        np.testing.assert_array_equal(out.labels_a, labels)
        assert out.mix is None

    def test_zero_jitter_is_identity(self, rng):
        img = rng.normal(size=(5, 4))
        drawn = seeded_rng(0)
        out = trainer.augment(
            img, np.zeros(5, dtype=int), trainer.Augmentation("jitter", sigma=0.0), drawn
        )
        np.testing.assert_array_equal(out.image_raw, img)
        assert out.mix is None
        # Jitter draws the image rows' noise and nothing more.
        ref = seeded_rng(0)
        ref.standard_normal(img.shape)
        assert drawn.bit_generator.state == ref.bit_generator.state

    def test_mixup_endpoint_keeps_first_element(self, rng):
        img = rng.normal(size=(4, 3))
        labels = np.array([0, 1, 2, 3])

        class OnesBeta:
            """Forwards permutation draws; forces the mixing coefficient to 1."""

            def __init__(self):
                self._gen = seeded_rng(0)

            def permutation(self, n):
                return self._gen.permutation(n)

            def beta(self, a, b, size=None):
                return np.ones(size)

        out = trainer.augment(img, labels, trainer.Augmentation("mixup", beta=0.4), OnesBeta())
        np.testing.assert_allclose(out.image_raw, img)
        np.testing.assert_array_equal(out.labels_a, labels)
        np.testing.assert_allclose(out.mix.lam, 1.0)

    def test_mixup_convex_combination(self, rng):
        img = rng.normal(size=(8, 3))
        labels = np.arange(8) % 4
        drawn = seeded_rng(3)
        out = trainer.augment(img, labels, trainer.Augmentation("mixup", beta=0.4), drawn)
        assert np.all((out.mix.lam > 0.0) & (out.mix.lam < 1.0))
        # The partners and coefficients are the stream's next draws, and
        # each row is its coefficient's mix of itself and its partner row,
        # whose label is its partner label.
        ref = seeded_rng(3)
        partner = ref.permutation(8)
        lam = ref.beta(0.4, 0.4, size=8)
        np.testing.assert_array_equal(out.mix.lam, lam)
        np.testing.assert_array_equal(out.mix.labels_b, labels[partner])
        np.testing.assert_array_equal(
            out.image_raw, lam[:, None] * img + (1.0 - lam)[:, None] * img[partner]
        )


class TestPretrain:
    def test_zero_noise_linear_teacher_perfect(self):
        spec = data.SyntheticSpec(
            num_classes=3, image_dim=6, text_dim=5, samples_per_class=30,
            noise_sigma=0.0, seed=5,
        )
        ds = data.generate(spec)
        train_idx, eval_idx = trainer.dataset_split(ds)
        teacher = trainer.pretrain_teacher(
            trainer.PretrainConfig(epochs=5, batch_size=16, lr=3e-3),
            ds, train_idx, eval_idx,
            trainer.TeacherSpec(hidden_widths=(), output_dim=4), 0, 0,
        )
        assert teacher.accuracy == 1.0

    def test_deterministic(self, tiny):
        ds, train_idx, eval_idx, _ = tiny
        a = trainer.pretrain_teacher(TINY_PRETRAIN, ds, train_idx, eval_idx, TINY_TEACHER, 9, 0)
        b = trainer.pretrain_teacher(TINY_PRETRAIN, ds, train_idx, eval_idx, TINY_TEACHER, 9, 0)
        assert param_fingerprint(a.image_params) == param_fingerprint(b.image_params)
        np.testing.assert_array_equal(a.bank, b.bank)

    def test_below_gate_warns(self, tiny):
        ds, train_idx, eval_idx, _ = tiny
        cfg = dataclasses.replace(TINY_PRETRAIN, epochs=1, lr=1e-6, accuracy_gate=0.99)
        with pytest.warns(trainer.PretrainBelowGate):
            trainer.pretrain_teacher(cfg, ds, train_idx, eval_idx, TINY_TEACHER, 1, 0)

    def test_weight_noise_corruption_destroys_accuracy(self, tiny):
        ds, train_idx, eval_idx, _ = tiny
        noise = config.Corruption("weight_noise", 10.0)
        spec = dataclasses.replace(TINY_TEACHER, corruption=noise)
        teacher = trainer.pretrain_teacher(
            TINY_PRETRAIN, ds, train_idx, eval_idx, spec, 0, 0
        )
        # gate accuracy recorded pre-corruption
        assert teacher.accuracy > 0.9
        [(acc, _)] = trainer.evaluate(teacher.image_params, teacher.text_params, ds, eval_idx, 4.0)
        assert acc <= 2.0 / TINY_SPEC.num_classes

    def test_label_shuffle_produces_weak_teacher(self, tiny):
        ds, train_idx, eval_idx, _ = tiny
        spec = dataclasses.replace(TINY_TEACHER, corruption=config.Corruption("label_shuffle"))
        teacher = trainer.pretrain_teacher(
            TINY_PRETRAIN, ds, train_idx, eval_idx, spec, 0, 0
        )
        assert teacher.accuracy <= 2.0 / TINY_SPEC.num_classes + 0.3


class TestEvaluate:
    def test_recall_at_n_is_one(self, tiny):
        ds, train_idx, eval_idx, teachers = tiny
        t = teachers[0]
        [(_, r5)] = trainer.evaluate(t.image_params, t.text_params, ds, eval_idx, 4.0)
        assert r5 >= 0.99  # N=4 classes, recall@min(5,N) is full ranking

    def test_member_stack_scores_each_member(self):
        # Member-stacked parameters give one pair per member, each the pair
        # that member's own parameters give, bit for bit; 80 eval rows
        # take a full 64-row chunk and a tail.
        ds = data.generate(replace(TINY_SPEC, samples_per_class=100))
        _, eval_idx = trainer.dataset_split(ds)
        pairs = [
            [
                encoder.init_params(encoder.EncoderConfig(d, (16,), 6), seeded_rng(s, d))
                for d in (10, 8)
            ]
            for s in range(3)
        ]

        def stack(params):
            return encoder.EncoderParams(
                params[0].config,
                [np.stack(ws) for ws in zip(*(p.weights for p in params))],
                [np.stack(bs) for bs in zip(*(p.biases for p in params))],
            )

        got = trainer.evaluate(*map(stack, zip(*pairs)), ds, eval_idx, 4.0)
        want = [trainer.evaluate(img, txt, ds, eval_idx, 4.0)[0] for img, txt in pairs]
        assert got == want and len(set(want)) > 1

    def test_random_student_near_chance_eight_classes(self):
        ds = data.generate(data.SyntheticSpec())  # default 8-class spec
        _, eval_idx = trainer.dataset_split(ds)
        scores = []
        for seed in range(5):
            cfg = trainer.EncoderConfig(ds.spec.image_dim, (48, 48), 8)
            tcfg = trainer.EncoderConfig(ds.spec.text_dim, (48, 48), 8)
            img = trainer.init_params(cfg, seeded_rng(seed, 1))
            txt = trainer.init_params(tcfg, seeded_rng(seed, 2))
            scores += trainer.evaluate(img, txt, ds, eval_idx, 4.0)
        acc, r5 = np.mean(scores, axis=0)
        assert abs(acc - 1 / 8) < 0.05
        assert abs(r5 - 5 / 8) < 0.1  # chance for the top 5 of 8 classes

    def test_eval_mode_passes_stay_within_a_batch(self, monkeypatch):
        # Every eval-mode pass of pretraining and distillation, the
        # evaluations included, encodes at most batch_size + 1 rows at once:
        # a larger product can cross OpenBLAS's threading threshold. The
        # passes over many rows, the evaluations and the teachers' cache,
        # hold at most 65 rows whatever the batch: a none run at batch
        # 200 builds its cache in 64-row chunks.
        ds = data.generate(replace(TINY_SPEC, samples_per_class=100))
        train_idx, eval_idx = trainer.dataset_split(ds)
        assert eval_idx.size > 64
        rows = []
        real = encoder._encode

        def recording(params, x, masks):
            if masks is None:
                rows.append(np.shape(x)[-2])
            return real(params, x, masks)

        for module in (encoder, trainer):
            monkeypatch.setattr(module, "_encode", recording)
        pretrain = replace(TINY_PRETRAIN, epochs=1, batch_size=64, accuracy_gate=0.0)
        teachers = [
            trainer.pretrain_teacher(pretrain, ds, train_idx, eval_idx, TINY_TEACHER, 0, j)
            for j in range(2)
        ]
        for kind in ("none", "mixup"):
            configs = [
                tiny_config(epochs=1, batch_size=64, strategy=s,
                            augmentation=trainer.Augmentation(kind, beta=0.4))
                for s in ("avg", "lsr")
            ]
            trainer.distill_students(configs, teachers, ds, train_idx, eval_idx)
        assert rows and max(rows) <= 64 + 1
        rows.clear()
        config = tiny_config(epochs=1, batch_size=200, strategy="lsr")
        trainer.distill_student(config, teachers, ds, train_idx, eval_idx)
        assert rows and max(rows) <= 64 + 1


class TestDistill:
    def test_strategy_teacher_mismatch(self, tiny):
        ds, train_idx, eval_idx, _ = tiny
        with pytest.raises(StrategyTeacherMismatch):
            trainer.distill_student(tiny_config(strategy="avg"), [], ds, train_idx, eval_idx)

    def test_base_ignores_teachers(self, tiny):
        ds, train_idx, eval_idx, teachers = tiny
        cfg = tiny_config(strategy="base", num_teachers=0)
        _, with_none = trainer.distill_student(cfg, [], ds, train_idx, eval_idx)
        cfg2 = tiny_config(strategy="base", num_teachers=2)
        _, with_two = trainer.distill_student(cfg2, teachers, ds, train_idx, eval_idx)
        for a, b in zip(with_none.epochs, with_two.epochs):
            assert a.total == b.total
            assert a.accuracy == b.accuracy

    def test_base_records_only_clip(self, tiny):
        ds, train_idx, eval_idx, _ = tiny
        _, m = trainer.distill_student(
            tiny_config(strategy="base", num_teachers=0), [], ds, train_idx, eval_idx
        )
        for rec in m.epochs:
            assert rec.l_kl == 0.0 and rec.l_mse == 0.0
            assert rec.total == pytest.approx(rec.l_clip, abs=1e-12)

    def test_identical_teachers_duplication_invariance(self, tiny):
        ds, train_idx, eval_idx, teachers = tiny
        t = teachers[0]
        _, single = trainer.distill_student(
            tiny_config(num_teachers=1), [t], ds, train_idx, eval_idx
        )
        _, double = trainer.distill_student(
            tiny_config(num_teachers=2), [t, t], ds, train_idx, eval_idx
        )
        for a, b in zip(single.epochs, double.epochs):
            assert a.total == pytest.approx(b.total, abs=1e-9)
            assert a.accuracy == b.accuracy

    def test_run_metrics_deterministic(self, tiny):
        ds, train_idx, eval_idx, teachers = tiny
        runs = []
        for _ in range(2):
            _, m = trainer.distill_student(tiny_config(), teachers, ds, train_idx, eval_idx)
            runs.append(m)
        for a, b in zip(runs[0].epochs, runs[1].epochs):
            assert a.total == b.total
            assert a.accuracy == b.accuracy
            np.testing.assert_array_equal(a.alphas, b.alphas)

    def test_teachers_frozen_through_distillation(self, tiny):
        # kdlab run hands the same Teacher objects to every grid point.
        ds, train_idx, eval_idx, teachers = tiny

        def state():
            return [
                (param_fingerprint(t.image_params), param_fingerprint(t.text_params),
                 t.bank.tobytes(), t.accuracy)
                for t in teachers
            ]

        before = state()
        for strategy, augmentation in (
            ("avg", "none"), ("lsr", "none"), ("dsw", "none"), ("dsw", "jitter"), ("lsr", "mixup"),
        ):
            config = tiny_config(
                strategy=strategy, augmentation=trainer.Augmentation(augmentation, sigma=0.1)
            )
            trainer.distill_student(config, teachers, ds, train_idx, eval_idx)
            assert state() == before, (strategy, augmentation)

    def test_total_recomputable_from_parts(self, tiny):
        ds, train_idx, eval_idx, teachers = tiny
        for strategy in ("avg", "lsr"):
            _, m = trainer.distill_student(
                tiny_config(strategy=strategy), teachers, ds, train_idx, eval_idx
            )
            r_clip, r_kl, r_mse = (1.0, 1.0, 1.0)
            for rec in m.epochs:
                recomputed = r_clip * rec.l_clip + r_kl * rec.l_kl + r_mse * rec.l_mse
                assert rec.total == pytest.approx(recomputed, abs=1e-9)

    def test_dsw_records_valid_certified_weights(self, tiny):
        ds, train_idx, eval_idx, teachers = tiny
        _, m = trainer.distill_student(
            tiny_config(strategy="dsw"), teachers, ds, train_idx, eval_idx
        )
        for rec in m.epochs:
            assert rec.pareto_certified
            assert abs(rec.alphas.sum() - 1.0) < 1e-9
            assert np.all(rec.alphas >= -1e-9)

    def test_lsr_weights_are_simplex(self, tiny):
        ds, train_idx, eval_idx, teachers = tiny
        _, m = trainer.distill_student(
            tiny_config(strategy="lsr"), teachers, ds, train_idx, eval_idx
        )
        for rec in m.epochs:
            assert abs(rec.alphas.sum() - 1.0) < 1e-9

    def test_batch_refresh_mode_runs(self, tiny):
        ds, train_idx, eval_idx, teachers = tiny
        _, m = trainer.distill_student(
            tiny_config(text_bank_refresh="batch"), teachers, ds, train_idx, eval_idx
        )
        assert len(m.epochs) == 3

    def test_augmented_modes_run(self, tiny):
        ds, train_idx, eval_idx, teachers = tiny
        for aug in (
            trainer.Augmentation("jitter", sigma=0.1),
            trainer.Augmentation("mixup", beta=0.4),
        ):
            _, m = trainer.distill_student(
                tiny_config(augmentation=aug), teachers, ds, train_idx, eval_idx
            )
            assert np.isfinite(m.final.total)

    def test_cosine_schedule_decays(self, tiny):
        ds, train_idx, eval_idx, teachers = tiny
        cfg = tiny_config(lr_schedule=trainer.LrSchedule("cosine"), epochs=4)
        _, m = trainer.distill_student(cfg, teachers, ds, train_idx, eval_idx)
        lrs = [rec.lr for rec in m.epochs]
        assert lrs[-1] < lrs[0]

    def test_projection_handles_dim_mismatch(self, tiny):
        ds, train_idx, eval_idx, teachers = tiny
        cfg = tiny_config(
            student=trainer.StudentConfig(hidden_widths=(16,), output_dim=4, dropout_p=0.2)
        )
        _, m = trainer.distill_student(cfg, teachers, ds, train_idx, eval_idx)
        assert np.isfinite(m.final.total)


class TestFrozenTeacherCache:
    @staticmethod
    def teacher_encode_sizes(monkeypatch, tiny, **kw):
        """Input shapes, less the feature axis, of every teacher forward
        pass in one distill run. The teachers go through ``_encode`` only,
        in eval mode: under ``none`` once per chunk of the cache (through
        ``encoder._encode_rows``), otherwise once per block, on an
        (n batches, B rows) stack."""
        ds, train_idx, eval_idx, teachers = tiny
        teacher_params = [t.image_params for t in teachers]
        sizes = []

        def counting(real, name):
            def wrapper(params, x, *args, **kwargs):
                if any(params is p for p in teacher_params):
                    assert name == "_encode" and args[0] is None
                    sizes.append(np.shape(x)[:-1])
                return real(params, x, *args, **kwargs)

            return wrapper

        with monkeypatch.context() as m:
            for module, name in ((trainer, "encode"), (trainer, "_encode"), (encoder, "_encode")):
                m.setattr(module, name, counting(getattr(module, name), name))
            trainer.distill_student(tiny_config(**kw), teachers, ds, train_idx, eval_idx)
        return sizes

    def test_no_augmentation_encodes_each_block_once(self, monkeypatch, tiny):
        # The cache is built once per teacher, in 64-row chunks whatever
        # the batch: the full chunks as one stack, and no empty tail.
        n_train = tiny[1].size
        assert n_train == 128
        for batch_size in (30, 100):
            sizes = self.teacher_encode_sizes(
                monkeypatch, tiny, batch_size=batch_size, strategy="dsw"
            )
            assert sizes == [(2, 64)] * 2

    def test_mixup_encodes_each_block_once(self, monkeypatch, tiny):
        # 128 rows in batches of 30: blocks of two 30-row batches under a
        # 64-row cap, then the 8-row tail on its own, in each of 3 epochs.
        assert tiny[1].size == 128
        monkeypatch.setattr(trainer, "_STACK_ROWS", 64)
        sizes = self.teacher_encode_sizes(
            monkeypatch, tiny, batch_size=30, strategy="lsr",
            augmentation=trainer.Augmentation("mixup", beta=0.4),
        )
        assert sizes == [(2, 30), (2, 30), (2, 30), (2, 30), (1, 8), (1, 8)] * 3

    def test_one_row_batches_skip_the_cache(self, monkeypatch, tiny):
        # n_train % batch_size == 1: the cache is built in its 64-row
        # chunks, and each epoch's one-row batch is encoded on its own.
        n_train = tiny[1].size
        sizes = self.teacher_encode_sizes(monkeypatch, tiny, batch_size=n_train - 1)
        assert sizes == [(2, 64), (2, 64)] + [(1, 1), (1, 1)] * 3

    def test_blocks_cap_rows_and_split_the_tail(self):
        order = np.arange(130)
        sizes = lambda bs: [
            [b.size for b in blk]
            for blk in trainer._blocks([order[i : i + bs] for i in range(0, order.size, bs)])
        ]
        assert sizes(48) == [[48, 48], [34]]
        assert sizes(64) == [[64, 64], [2]]
        assert sizes(129) == [[129], [1]]
        assert sizes(1) == [[1]] * 130
        assert sizes(500) == [[130]]
        big = np.arange(2000)
        blocks = trainer._blocks([big[i : i + 64] for i in range(0, 2000, 64)])
        assert [len(b) for b in blocks] == [8, 8, 8, 7, 1]

    @pytest.mark.parametrize("kind", ["none", "jitter", "mixup"])
    def test_block_outputs_match_per_batch_outputs(self, tiny, three_teachers, kind):
        # Every array of a block equals what the public functions, and the
        # distributions' kernel, give for each teacher and each of its
        # batches alone, in roster order: a stack is a run of roster
        # neighbours of one output dim. Two teachers of one dim make one
        # stack, dims 6, 6, 5 two, and dims 6, 5, 6 three.
        ds, train_idx, _, _ = tiny
        t0, t1, t2 = three_teachers
        for teachers, sizes in (([t0, t1], [2]), ([t0, t1, t2], [2, 1]), ([t0, t2, t1], [1, 1, 1])):
            self.check_block_outputs(ds, train_idx, teachers, sizes, kind)

    @staticmethod
    def check_block_outputs(ds, train_idx, teachers, sizes, kind):
        cfg = tiny_config(
            strategy="lsr", augmentation=trainer.Augmentation(kind, sigma=0.1, beta=0.4),
            num_teachers=len(teachers),
        )
        rows_raw = ds.image_raw[train_idx]
        teacher_pass = trainer._TeacherPass(
            cfg, teachers, ds.image_raw, ds.labels, train_idx, lsr=True
        )
        rng = seeded_rng(0)
        for size, n in ((1, 1), (2, 3), (5, 3), (30, 4)):
            positions = rng.permutation(train_idx.size)[: n * size].reshape(n, size)
            draws = [
                trainer._BatchDraws(
                    p,
                    trainer.augment(rows_raw[p], ds.labels[train_idx[p]], cfg.augmentation, rng),
                    None,
                    None,
                )
                for p in positions
            ]
            block = teacher_pass.block(draws)
            assert [f.shape[1] for f in block.feats] == sizes
            # Each teacher's (stack, place in it), in roster order.
            where = [(s, p) for s, size in enumerate(sizes) for p in range(size)]
            for i, d in enumerate(draws):
                mix = d.batch.mix
                assert (mix is not None) == (kind == "mixup")
                soft = () if mix is None else (mix.labels_b, mix.lam)
                scores = []
                for j, t in enumerate(teachers):
                    s, p = where[j]
                    at = (i, p)
                    feats, _ = trainer.encode(t.image_params, d.batch.image_raw)
                    i2t, t2i = distill._teacher_dists(feats, t.bank, cfg.tau_teacher)
                    np.testing.assert_array_equal(block.feats[s][at], feats)
                    np.testing.assert_array_equal(block.i2t[i, j], i2t)
                    np.testing.assert_array_equal(block.t2i[i, j], t2i)
                    np.testing.assert_array_equal(
                        block.bank_rows[s][at], trainer._soft_gather(t.bank, d.batch.labels_a, mix)
                    )
                    scores.append(
                        weighting.teacher_label_similarity(feats, d.batch.labels_a, t.bank, *soft)
                    )
                np.testing.assert_array_equal(block.lsr_scores[i], scores)

    def test_dsw_uses_two_stacked_vjps_per_batch(self, monkeypatch, tiny):
        ds, train_idx, eval_idx, teachers = tiny
        real = trainer._backward
        shapes = []

        def counting(tape, grad, out):
            shapes.append(np.shape(grad))
            return real(tape, grad, out)

        monkeypatch.setattr(trainer, "_backward", counting)
        trainer.distill_student(
            tiny_config(strategy="dsw", epochs=1), teachers, ds, train_idx, eval_idx
        )
        batches = math.ceil(train_idx.size / 32)
        stacked = [s for s in shapes if len(s) == 3]
        assert len(stacked) == 2 * batches and all(s[0] == 2 for s in stacked)
        assert len(shapes) == 3 * batches + 1  # plus the image step and one text step


def assert_same_run(got, want):
    """Two (student, metrics) results agree bit for bit: every field of
    every epoch record, and every parameter."""
    (student_a, metrics_a), (student_b, metrics_b) = got, want
    assert metrics_a.strategy == metrics_b.strategy
    assert metrics_a.num_teachers == metrics_b.num_teachers
    assert len(metrics_a.epochs) == len(metrics_b.epochs)
    for a, b in zip(metrics_a.epochs, metrics_b.epochs):
        for f in dataclasses.fields(a):
            x, y = getattr(a, f.name), getattr(b, f.name)
            assert type(x) is type(y), f.name
            np.testing.assert_array_equal(x, y, err_msg=f.name)
    for pa, pb in ((student_a.image_params, student_b.image_params),
                   (student_a.text_params, student_b.text_params)):
        assert param_fingerprint(pa) == param_fingerprint(pb)


# Group members in an order that puts base between distilling members, with
# two dsw members sharing the K x P gradient matrix in turn.
GROUP = (
    ("avg", (0.5, 1.0, 1.0)),
    ("base", (1.0, 1.0, 1.0)),
    ("dsw", (1.0, 0.5, 1.0)),
    ("lsr", (1.0, 1.0, 0.5)),
    ("dsw", (1.0, 1.0, 1.0)),
)
# A loss_ratio suite under base: several members, none of them distilling.
ALL_BASE = tuple(("base", r) for _, r in cli.LOSS_RATIO_GRID)


class TestGroups:
    """``distill_students`` trains a group in lockstep; every member gets
    the bits of its own ``distill_student`` run."""

    @pytest.mark.parametrize(
        "members, variant",
        [
            (GROUP, {}),
            (GROUP, {
                "augmentation": trainer.Augmentation("jitter", sigma=0.1),
                "text_bank_refresh": "batch",
            }),
            (GROUP, {"augmentation": trainer.Augmentation("mixup", beta=0.4)}),
            (GROUP, {
                "augmentation": trainer.Augmentation("mixup", beta=0.4),
                "text_bank_refresh": "batch",
            }),
            (GROUP, {"lr_schedule": trainer.LrSchedule("cosine"), "tau_distill": 2.5}),
            (GROUP, {"batch_size": 127}),  # 128 training rows: a one-row tail batch
            (GROUP, {"mse_mode": "per_teacher", "num_teachers": 3}),  # unequal dims: projections
            (ALL_BASE, {}),
        ],
        ids=["none-epoch", "jitter-batch", "mixup-epoch", "mixup-batch", "cosine-tau", "tail",
             "per-teacher", "all-base"],
    )
    def test_members_match_solo_runs(self, tiny, three_teachers, members, variant):
        ds, train_idx, eval_idx, _ = tiny
        configs = [
            tiny_config(epochs=2, lr=3e-3, strategy=s, loss_ratios=r, **variant)
            for s, r in members
        ]
        teachers = three_teachers[: configs[0].num_teachers]
        group = trainer.distill_students(configs, teachers, ds, train_idx, eval_idx)
        assert len(group) == len(configs)
        for cfg, got in zip(configs, group):
            alone = [] if cfg.strategy == "base" else teachers
            assert_same_run(got, trainer.distill_student(cfg, alone, ds, train_idx, eval_idx))

    def test_configs_must_differ_only_in_member_fields(self, tiny):
        ds, train_idx, eval_idx, teachers = tiny
        with pytest.raises(InvalidConfig, match="configs"):
            trainer.distill_students(
                [tiny_config(), tiny_config(batch_size=16)], teachers, ds, train_idx, eval_idx
            )

    def test_a_failing_member_stops_the_group(self, tiny, monkeypatch):
        ds, train_idx, eval_idx, teachers = tiny

        def failing(*args, **kwargs):
            raise NonFiniteInput("synthetic Frank-Wolfe failure")

        monkeypatch.setattr(weighting, "frank_wolfe_min_norm", failing)
        configs = [tiny_config(strategy=s) for s in ("avg", "dsw")]
        with pytest.raises(NonFiniteInput, match="synthetic"):
            trainer.distill_students(configs, teachers, ds, train_idx, eval_idx)


class TestRunSingle:
    def test_end_to_end(self, tiny):
        ds, *_ = tiny
        result = trainer.run_single(
            ds, TINY_PRETRAIN, TINY_ROSTER, tiny_config(), seed=3
        )
        assert len(result.metrics.epochs) == 3
        assert len(result.teachers) == 2

    def test_given_teachers_are_not_pretrained_again(self, monkeypatch, tiny):
        ds, train_idx, eval_idx, teachers = tiny
        pretrained = trainer.run_single(ds, TINY_PRETRAIN, TINY_ROSTER, tiny_config(), seed=0)

        def no_pretrain(*args, **kwargs):
            raise AssertionError("pretrain_teacher called although teachers were given")

        monkeypatch.setattr(trainer, "pretrain_teacher", no_pretrain)
        given = trainer.run_single(
            ds, TINY_PRETRAIN, TINY_ROSTER, tiny_config(), seed=0, teachers=teachers
        )
        assert given.teachers == teachers
        for a, b in zip(pretrained.metrics.epochs, given.metrics.epochs):
            assert (a.total, a.accuracy) == (b.total, b.accuracy)

    def test_base_skips_pretraining(self, tiny):
        ds, *_ = tiny
        result = trainer.run_single(
            ds, TINY_PRETRAIN, [], tiny_config(strategy="base", num_teachers=0), seed=3
        )
        assert result.teachers == []


class TestDivergence:
    """A run whose parameters blow up stops with a kdlab error instead of
    finishing on garbage. At lr 1e150 the raw features are finite but their
    row norms overflow; at 1e300 the parameters themselves overflow."""

    CASES = {
        "base": dict(strategy="base", num_teachers=0),
        "avg": dict(strategy="avg"),
        "lsr": dict(strategy="lsr"),
        "dsw": dict(strategy="dsw"),
        "lsr-mixup": dict(strategy="lsr", augmentation=trainer.Augmentation("mixup", beta=0.4)),
    }

    @pytest.mark.parametrize("lr", [1e300, 1e150])
    @pytest.mark.parametrize("case", list(CASES))
    def test_distill_raises(self, tiny, case, lr):
        ds, train_idx, eval_idx, teachers = tiny
        cfg = tiny_config(lr=lr, **self.CASES[case])
        with pytest.raises(KdlabError):
            trainer.distill_student(cfg, teachers[: cfg.num_teachers], ds, train_idx, eval_idx)

    @pytest.mark.parametrize("lr", [1e300, 1e150])
    def test_pretrain_raises(self, tiny, lr):
        ds, train_idx, eval_idx, _ = tiny
        cfg = dataclasses.replace(TINY_PRETRAIN, lr=lr)
        with pytest.raises(KdlabError):
            trainer.pretrain_teacher(cfg, ds, train_idx, eval_idx, TINY_TEACHER, 0, 0)

    @pytest.mark.parametrize("lr", [1e300, 1e150])
    def test_kdlab_run_exits_4(self, tmp_path, capsys, lr):
        p = tmp_path / "m.json"
        write_manifest(p, suite="strategy", train={**TINY_TRAIN, "lr": lr})
        assert cli.main(["run", str(p), "--output-dir", str(tmp_path / "o")]) == 4
        assert "error" in capsys.readouterr().err


class TestStepKernels:
    """The training step calls unchecked kernels; each public function is
    its checks plus the same kernel, so both give the same bits."""

    @staticmethod
    def student(activation="relu", dropout_p=0.2):
        cfg = encoder.EncoderConfig(10, (24, 16), 6, activation, dropout_p)
        params = encoder.init_params(cfg, seeded_rng(5))
        rng = seeded_rng(6)
        x = rng.normal(size=(9, 10))
        feats, tape = encoder._encode(params, x, encoder._dropout_masks(cfg, 9, rng))
        return params, feats, tape, rng

    @pytest.mark.parametrize("lead", [(), (1,), (2,), (3,)])
    def test_vjp(self, lead):
        # The kernel overwrites every entry of its destination: two calls
        # into the same views, laid out once as the trainer lays them out
        # (a column slice of a wider matrix, first filled with NaN), give
        # the second call's bits, for each activation, with and without
        # dropout.
        for activation in config.ACTIVATIONS:
            for dropout_p in (0.2, 0.0):
                params, feats, tape, rng = self.student(activation, dropout_p)
                first = rng.normal(size=lead + feats.shape)
                cot = rng.normal(size=lead + feats.shape)
                grads, grad_x = encoder.vjp(tape, cot)
                layout = encoder._Layout(params.config)
                buffer = np.full(lead + (layout.size + 3,), np.nan)
                out = encoder.EncoderGrads(*layout.views(buffer[..., : layout.size]))
                encoder._backward(tape, first, out)
                g = encoder._backward(tape, cot, out)
                np.testing.assert_array_equal(grads.flatten(), buffer[..., : layout.size])
                assert np.isnan(buffer[..., layout.size :]).all()
                np.testing.assert_array_equal(grad_x, g @ params.weights[0].T)
        with pytest.raises(ValueError):  # a reshape of this buffer would copy
            layout.views(np.zeros(lead + (layout.size, 2))[..., 0])

    def test_adam_step(self):
        # The public step, the trainer's flat step with its scratch buffers
        # and a per-array update give the same bits, over four steps at two
        # base rates.
        for lr0 in (1e-2, 1e-4):
            params, _, _, rng = self.student()
            state = init_adam(params, lr0)
            flat = encoder._FlatAdam([params])
            ref = list(params.weights + params.biases)
            ref_m = [np.zeros_like(a) for a in ref]
            ref_v = [np.zeros_like(a) for a in ref]
            n = len(params.weights)
            for t, lr in enumerate((lr0, lr0 / 3, lr0 / 10, lr0), start=1):
                grads = encoder.EncoderGrads(
                    [rng.normal(size=w.shape) for w in params.weights],
                    [rng.normal(size=b.shape) for b in params.biases],
                )
                params, state = encoder.adam_step(params, grads, replace(state, lr=lr))
                flat.grad[:] = grads.flatten()
                flat.step(lr)
                ref, ref_m, ref_v = adam_per_array(
                    ref[:n], ref[n:], grads.weights, grads.biases, ref_m, ref_v, t, lr
                )
            (got,) = flat.result()
            for a, b, c in zip(params.weights + params.biases, got.weights + got.biases, ref):
                np.testing.assert_array_equal(a, c)
                np.testing.assert_array_equal(b, c)
            np.testing.assert_array_equal(state.m.flatten(), flat.m)
            np.testing.assert_array_equal(state.v.flatten(), flat.v)
            np.testing.assert_array_equal(flat.m, np.concatenate([a.ravel() for a in ref_m]))
            np.testing.assert_array_equal(flat.v, np.concatenate([a.ravel() for a in ref_v]))
            # The views laid out once still alias their buffers.
            grads_views = flat.grads[0].weights + flat.grads[0].biases
            assert all(np.shares_memory(a, flat.grad) for a in grads_views)
            param_views = flat.params[0].weights + flat.params[0].biases
            assert all(np.shares_memory(a, flat.p) for a in param_views)

    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_pair_step(self, lead):
        # An (image, text) pair in one buffer: the pair step, and the epoch
        # text bank's separate image and text steps with their own step
        # counts, give each encoder the bits of adam_per_array on its own,
        # with and without a member axis.
        rng = seeded_rng(14)
        pair = []
        for cfg in (encoder.EncoderConfig(10, (24, 16), 6), encoder.EncoderConfig(8, (12,), 6)):
            p = encoder.init_params(cfg, rng)
            pair.append(trainer._stacked(p, lead[0]) if lead else p)
        opt = encoder._FlatAdam(pair)
        ref = [
            [list(p.weights + p.biases), *([np.zeros_like(a) for a in p.weights + p.biases],) * 2]
            for p in pair
        ]
        t = [0, 0]
        # Two pair steps, then three image steps and one text step.
        for lr, stepped in ((1e-2, None), (3e-3, None), (1e-3, 0), (2e-3, 0), (1e-3, 0), (9e-3, 1)):
            for e in (0, 1) if stepped is None else (stepped,):
                g = [rng.normal(size=a.shape) for a in ref[e][0]]
                grads = opt.grads[e]
                for view, a in zip(grads.weights + grads.biases, g):
                    view[:] = a
                t[e] += 1
                n = len(pair[e].weights)
                ref[e] = adam_per_array(
                    ref[e][0][:n], ref[e][0][n:], g[:n], g[n:], ref[e][1], ref[e][2], t[e], lr
                )
            opt.step(lr, stepped)
        assert opt.t == t == [5, 3]
        for e, got in enumerate(opt.result()):
            np.testing.assert_array_equal(
                np.concatenate([a.reshape(*lead, -1) for a in got.weights + got.biases], axis=-1),
                np.concatenate([a.reshape(*lead, -1) for a in ref[e][0]], axis=-1),
            )
            for flat, want in zip((opt.m, opt.v), ref[e][1:]):
                np.testing.assert_array_equal(
                    flat[..., opt.columns[e]],
                    np.concatenate([a.reshape(*lead, -1) for a in want], axis=-1),
                )

    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_per_teacher_mse_terms(self, lead):
        # The stacked per-teacher MSE, one _mse_align per stack of roster
        # neighbours of one output dim, equals the alpha-weighted sum of the
        # public mse_align per teacher and member, bit for bit: output dims
        # 6, 6, 5, 4 against a 6-dim student, with and without a member axis.
        rng = seeded_rng(15)
        dims, stacks = (6, 6, 5, 4), [[0, 1], [2], [3]]
        proj = trainer._Projection(6, dims, rng)
        feats, rows = rng.normal(size=lead + (9, 6)), rng.normal(size=lead + (9, 6))
        t_feats = [rng.normal(size=(len(idx), 9, dims[idx[0]])) for idx in stacks]
        t_rows = [rng.normal(size=(len(idx), 9, dims[idx[0]])) for idx in stacks]
        alpha = rng.dirichlet(np.ones(4), lead[0] if lead else None)
        columns = list(alpha.T[..., None, None]) if lead else list(alpha)
        value, g_u, g_w = trainer._mse_terms(
            "per_teacher", proj, columns, feats, rows, t_feats, t_rows
        )
        for s in range(lead[0]) if lead else (...,):
            want_value, want_u, want_w = 0.0, np.zeros((9, 6)), np.zeros((9, 6))
            for j, d in enumerate(dims):
                k = next(k for k, idx in enumerate(stacks) if j in idx)
                p = stacks[k].index(j)
                m = distill.mse_align(
                    t_feats[k][p], proj.forward(feats[s], d), t_rows[k][p], proj.forward(rows[s], d)
                )
                a = alpha[s, j] if lead else alpha[j]
                want_value += a * m.value
                want_u += a * proj.backward(m.grad_image, d)
                want_w += a * proj.backward(m.grad_text, d)
            assert value[s] == want_value
            np.testing.assert_array_equal(g_u[s], want_u)
            np.testing.assert_array_equal(g_w[s], want_w)

    def test_unmixed_mixup_batch_takes_the_hard_bits(self):
        # Under mixup every batch takes the soft formulas; one whose b
        # labels are its a labels at lam = 1 gets the hard path's bits
        # from _clip_loss, _soft_gather and _soft_scatter, for a member
        # stack and for each member alone.
        rng = seeded_rng(16)
        u = np.stack([self.unit_rows(rng, 9, 6) for _ in range(3)])
        w = np.stack([self.unit_rows(rng, 4, 6) for _ in range(3)])
        labels = rng.integers(0, 4, 9)
        same = contrastive.MixedLabels(labels, np.ones(9))
        grad_rows = rng.normal(size=(3, 9, 6))
        for at in (slice(None), 0, 1, 2):
            dists = numerics._pair_log_softmax(u[at], w[at], 2.0)
            hard = contrastive._clip_loss(u[at], w[at], 2.0, dists, labels, None)
            soft = contrastive._clip_loss(u[at], w[at], 2.0, dists, labels, same)
            np.testing.assert_array_equal(soft.value, hard.value)
            np.testing.assert_array_equal(soft.grad_image, hard.grad_image)
            np.testing.assert_array_equal(soft.grad_text, hard.grad_text)
            np.testing.assert_array_equal(
                trainer._soft_gather(w[at], labels, same), trainer._soft_gather(w[at], labels, None)
            )
            np.testing.assert_array_equal(
                trainer._soft_scatter(grad_rows[at], labels, same, 4),
                trainer._soft_scatter(grad_rows[at], labels, None, 4),
            )

    def test_member_stack(self):
        # Forward, reverse pass, a member's tape slice and Adam on
        # member-stacked parameters give each member its bits alone. Only
        # member 1 keeps zero biases, so only its rows whose hidden units
        # dropout all drops are passed again: its keep-masks become its own.
        cfg = encoder.EncoderConfig(10, (3, 5), 4, "tanh", 0.5)
        rng = seeded_rng(13)
        members = [encoder.init_params(cfg, seeded_rng(s)) for s in range(3)]
        for s in (0, 2):
            members[s] = encoder.EncoderParams(
                cfg, members[s].weights, [rng.normal(size=b.shape) for b in members[s].biases]
            )
        stacked = trainer._stacked(members[0], 3)
        for i, arrays in enumerate(zip(*[m.weights for m in members])):
            stacked.weights[i][:] = np.stack(arrays)
        for i, arrays in enumerate(zip(*[m.biases for m in members])):
            stacked.biases[i][:] = np.stack(arrays)
        x = rng.normal(size=(16, 10))
        masks = encoder._dropout_masks(cfg, 16, rng)
        masks[0][:2] = False  # rows 0 and 1 drop every unit of the first layer
        feats, tape = encoder._encode(stacked, x, masks)
        assert tape.masks[0].shape == (3, 16, 3)  # member 1's retry
        layout = encoder._Layout(cfg)
        cot = rng.normal(size=feats.shape)
        out = encoder.EncoderGrads(*layout.views(np.empty((3, layout.size))))
        encoder._backward(tape, cot, out)
        kl_cot = rng.normal(size=(2,) + feats.shape[1:])
        for s, params in enumerate(members):
            alone, tape_s = encoder._encode(params, x, masks)
            np.testing.assert_array_equal(feats[s], alone)
            grads = encoder.EncoderGrads(*layout.views(np.empty(layout.size)))
            encoder._backward(tape_s, cot[s], grads)
            np.testing.assert_array_equal(out.flatten()[s], grads.flatten())
            # A stacked (K, B, d) cotangent through the member's tape slice.
            want, got = (
                encoder.EncoderGrads(*layout.views(np.empty((2, layout.size)))) for _ in "ab"
            )
            encoder._backward(tape_s, kl_cot, want)
            encoder._backward(encoder._member_tape(tape, s), kl_cot, got)
            np.testing.assert_array_equal(got.flatten(), want.flatten())
        # member 1 alone retries rows 0 and 1; the others keep the masks.
        retried = [not np.array_equal(encoder._encode(m, x, masks)[1].masks[0], masks[0] / 0.5)
                   for m in members]
        assert retried == [False, True, False]
        opt = encoder._FlatAdam([stacked])
        alone = [encoder._FlatAdam([m]) for m in members]
        for lr in (1e-2, 3e-3):
            g = rng.normal(size=opt.grad.shape)
            opt.grad[:] = g
            opt.step(lr)
            for s, a in enumerate(alone):
                a.grad[:] = g[s]
                a.step(lr)
                np.testing.assert_array_equal(opt.p[s], a.p)

    def test_total_loss(self):
        # total_loss is its checks plus the kernel, whose stacked weighted
        # KL has np.dot's bits for every member.
        rng = seeded_rng(12)
        for k in (1, 2, 3, 4):
            l_clip, l_mse = rng.random(5), rng.random(5)
            i2t, t2i = rng.random((5, k)), rng.random((5, k))
            ratios = rng.uniform(0.1, 2.0, (5, 3))
            alpha = rng.dirichlet(np.ones(k), 5)
            kl, total = distill._total_losses(l_clip, i2t, t2i, l_mse, ratios, alpha)
            for m in range(5):
                want_kl = float(np.dot(alpha[m], i2t[m] + t2i[m]))
                r_clip, r_kl, r_mse = (float(r) for r in ratios[m])
                want_total = r_clip * float(l_clip[m]) + r_kl * want_kl + r_mse * float(l_mse[m])
                assert (kl[m], total[m]) == (want_kl, want_total)
                public = distill.total_loss(
                    l_clip[m], list(zip(i2t[m], t2i[m])), l_mse[m], tuple(ratios[m]), alpha[m]
                )
                assert (public.l_kl_weighted, public.total) == (want_kl, want_total)

    @staticmethod
    def unit_rows(rng, n, d):
        m = rng.normal(size=(n, d))
        return m / np.linalg.norm(m, axis=1, keepdims=True)

    @pytest.mark.parametrize("mixed", [False, True])
    def test_clip_loss(self, mixed):
        rng = seeded_rng(7)
        u, w = self.unit_rows(rng, 9, 6), self.unit_rows(rng, 4, 6)
        labels = rng.integers(0, 4, 9)
        mix = contrastive.MixedLabels(rng.integers(0, 4, 9), rng.uniform(size=9)) if mixed else None
        public = contrastive.clip_loss(contrastive.ContrastiveBatch(u, w, 2.0), labels, mix)
        kernel = contrastive._clip_loss(
            u, w, 2.0, numerics._pair_log_softmax(u, w, 2.0), labels, mix
        )
        assert public.value == kernel.value
        np.testing.assert_array_equal(public.grad_image, kernel.grad_image)
        np.testing.assert_array_equal(public.grad_text, kernel.grad_text)
        if not mixed:
            # The one-hot targets equal the soft ones at lam = 1, bit for bit.
            soft = contrastive._clip_loss(
                u, w, 2.0, numerics._pair_log_softmax(u, w, 2.0), labels,
                contrastive.MixedLabels(labels, np.ones(9)),
            )
            assert soft.value == kernel.value
            np.testing.assert_array_equal(soft.grad_image, kernel.grad_image)
            np.testing.assert_array_equal(soft.grad_text, kernel.grad_text)

    @pytest.mark.parametrize("lam_kind", ["zero", "one", "beta", "some_each"])
    def test_mixed_kernels_match_add_at(self, lam_kind):
        # The soft-label contrastive loss and bank scatter give the bits of
        # the add.at formulas written out on their own: with repeated
        # labels, rows whose b label is their a label, and lam at 0, at 1
        # and drawn from Beta.
        rng = seeded_rng(11)
        u, w = self.unit_rows(rng, 12, 6), self.unit_rows(rng, 4, 6)
        labels_a = rng.integers(0, 4, 12)
        labels_b = np.where(np.arange(12) % 3 == 0, labels_a, rng.integers(0, 4, 12))
        beta = rng.beta(0.4, 0.4, 12)
        lam = {
            "zero": np.zeros(12),
            "one": np.ones(12),
            "beta": beta,
            "some_each": np.choose(np.arange(12) % 3, [beta, np.zeros(12), np.ones(12)]),
        }[lam_kind]
        mix = contrastive.MixedLabels(labels_b, lam)
        got = contrastive._clip_loss(
            u, w, 2.0, numerics._pair_log_softmax(u, w, 2.0), labels_a, mix
        )
        value, grad_u, grad_w = mixed_clip_loss_add_at(u, w, 2.0, labels_a, labels_b, lam)
        assert got.value == value
        np.testing.assert_array_equal(got.grad_image, grad_u)
        np.testing.assert_array_equal(got.grad_text, grad_w)
        rows = rng.normal(size=(12, 6))
        np.testing.assert_array_equal(
            trainer._soft_scatter(rows, labels_a, mix, 4),
            soft_scatter_add_at(rows, labels_a, labels_b, lam, 4),
        )

    def test_teacher_outputs(self):
        # The block pass's kernel on a stack of batches gives each batch the
        # bits it gets alone, which are the public functions' bits.
        rng = seeded_rng(9)
        u, w = self.unit_rows(rng, 9, 6), self.unit_rows(rng, 4, 6)
        i2t, t2i = distill._teacher_dists(u, w, 4.0)
        out = distill.TeacherOutputs.from_features(u, w, 4.0)
        np.testing.assert_array_equal(out.i2t_probs, i2t)
        np.testing.assert_array_equal(out.t2i_probs, t2i)
        block_i2t, block_t2i = distill._teacher_dists(np.stack([u, u[::-1]]), w, 4.0)
        for b, rows in enumerate((u, u[::-1])):
            want_i2t, want_t2i = distill._teacher_dists(rows, w, 4.0)
            np.testing.assert_array_equal(block_i2t[b], want_i2t)
            np.testing.assert_array_equal(block_t2i[b], want_t2i)
        np.testing.assert_array_equal(i2t, numerics.softmax_rows(numerics.pairwise_logits(u, w), 4.0))
        np.testing.assert_array_equal(t2i, numerics.softmax_rows(numerics.pairwise_logits(w, u), 4.0))
        empty = distill.TeacherOutputs.from_features(u[:0], w, 4.0)
        assert (empty.i2t_probs.shape, empty.t2i_probs.shape) == ((0, 4), (4, 0))
        with pytest.raises(DimensionMismatch):
            distill.TeacherOutputs.from_features(np.stack([u, u]), w, 4.0)

    def test_mse_align(self):
        rng = seeded_rng(10)
        ut, us, wt, ws = (rng.normal(size=s) for s in ((9, 6), (9, 6), (4, 6), (4, 6)))
        public, kernel = distill.mse_align(ut, us, wt, ws), distill._mse_align(ut, us, wt, ws)
        assert public.value == kernel.value
        np.testing.assert_array_equal(public.grad_image, kernel.grad_image)
        np.testing.assert_array_equal(public.grad_text, kernel.grad_text)

    def test_kl_pair_loss(self):
        rng = seeded_rng(8)
        u, w = self.unit_rows(rng, 9, 6), self.unit_rows(rng, 4, 6)
        teachers = [
            distill.TeacherOutputs.from_features(self.unit_rows(rng, 9, 5), self.unit_rows(rng, 4, 5), 4.0)
            for _ in range(3)
        ]
        l_i2t, l_t2i, grad_u, grad_w = distill._kl_stack(
            np.stack([t.i2t_probs for t in teachers]),
            np.stack([t.t2i_probs for t in teachers]),
            u, w, 2.0, numerics._pair_log_softmax(u, w, 2.0),
        )
        for j, t in enumerate(teachers):
            public = distill.kl_pair_loss(t, u, w, 2.0)
            assert (public.l_i2t, public.l_t2i) == (l_i2t[j], l_t2i[j])
            np.testing.assert_array_equal(public.grad_image, grad_u[j])
            np.testing.assert_array_equal(public.grad_text, grad_w[j])
