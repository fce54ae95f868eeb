import dataclasses
import math

import numpy as np
import pytest

from kdlab import data, distill, trainer
from kdlab.encoder import param_fingerprint
from kdlab.errors import InvalidConfig, StrategyTeacherMismatch
from kdlab.numerics import seeded_rng

TINY_SPEC = data.SyntheticSpec(
    num_classes=4, image_dim=10, text_dim=8, samples_per_class=40,
    noise_sigma=0.2, anchor_scale=1.0, seed=77,
)
TINY_STUDENT = trainer.StudentConfig(hidden_widths=(16,), output_dim=6, dropout_p=0.2)
TINY_TEACHER = trainer.TeacherSpec(hidden_widths=(24,), output_dim=6)
TINY_PRETRAIN = trainer.PretrainConfig(epochs=8, batch_size=32, lr=3e-3, tau=4.0)


@pytest.fixture(scope="module")
def tiny():
    ds = data.generate(TINY_SPEC)
    train_idx, eval_idx = trainer.dataset_split(ds)
    teachers = [
        trainer.pretrain_teacher(TINY_PRETRAIN, ds, train_idx, eval_idx, TINY_TEACHER, 0, 0),
        trainer.pretrain_teacher(
            TINY_PRETRAIN, ds, train_idx, eval_idx,
            trainer.TeacherSpec(hidden_widths=(20,), output_dim=6), 0, 1,
        ),
    ]
    return ds, train_idx, eval_idx, teachers


def tiny_config(**kw):
    base = dict(
        epochs=3, batch_size=32, strategy="avg", num_teachers=2,
        student=TINY_STUDENT, seed=0,
    )
    base.update(kw)
    return trainer.TrainConfig(**base)


class TestTrainConfig:
    @pytest.mark.parametrize("mode", ["per_direction", "per-teacher", ""])
    def test_kl_weight_mode_only_per_teacher(self, mode):
        with pytest.raises(InvalidConfig) as info:
            tiny_config(kl_weight_mode=mode)
        assert info.value.field == "kl_weight_mode"
        assert tiny_config(kl_weight_mode="per_teacher").kl_weight_mode == "per_teacher"

    @pytest.mark.parametrize(
        "bank, strategy",
        [
            ("teacher:2", "avg"),    # only teachers 0 and 1 exist
            ("teacher:9", "dsw"),
            ("teacher:-1", "avg"),
            ("teacher:", "avg"),
            ("teacher:x", "avg"),
            ("teacher", "avg"),
            ("Student", "avg"),
            ("teacher:0", "base"),   # base has no teachers
        ],
    )
    def test_eval_bank_rejected(self, bank, strategy):
        with pytest.raises(InvalidConfig) as info:
            tiny_config(eval_bank=bank, strategy=strategy)
        assert info.value.field == "eval_bank"

    @pytest.mark.parametrize("bank", ["student", "teacher:0", "teacher:1"])
    def test_eval_bank_accepted(self, bank):
        assert tiny_config(eval_bank=bank).eval_bank == bank

    def test_errors_stay_value_errors(self):
        with pytest.raises(ValueError):
            tiny_config(epochs=0)


class TestLrAt:
    def test_cosine_endpoints(self):
        sched = trainer.LrSchedule("cosine", eta_min=1e-6)
        assert trainer.lr_at(sched, 1e-4, 0, 100) == pytest.approx(1e-4)
        assert trainer.lr_at(sched, 1e-4, 100, 100) == pytest.approx(1e-6)

    def test_cosine_midpoint(self):
        sched = trainer.LrSchedule("cosine", eta_min=0.0)
        assert trainer.lr_at(sched, 2.0, 50, 100) == pytest.approx(1.0)

    def test_fixed(self):
        sched = trainer.LrSchedule("fixed")
        for t in (0, 5, 10):
            assert trainer.lr_at(sched, 3e-4, t, 10) == 3e-4

    def test_default_eta_min_is_hundredth(self):
        sched = trainer.LrSchedule("cosine")
        assert trainer.lr_at(sched, 1e-2, 10, 10) == pytest.approx(1e-4)


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


class TestAugment:
    def test_none_is_identity(self, rng):
        img, txt = rng.normal(size=(6, 4)), rng.normal(size=(6, 3))
        labels = np.arange(6) % 3
        out = trainer.augment(img, txt, labels, trainer.Augmentation("none"), seeded_rng(0))
        np.testing.assert_array_equal(out.image_raw, img)
        np.testing.assert_array_equal(out.labels_a, labels)
        assert not out.is_mixed

    def test_zero_jitter_is_identity(self, rng):
        img, txt = rng.normal(size=(5, 4)), rng.normal(size=(5, 3))
        out = trainer.augment(
            img, txt, np.zeros(5, dtype=int),
            trainer.Augmentation("jitter", sigma=0.0), seeded_rng(0),
        )
        np.testing.assert_array_equal(out.image_raw, img)
        np.testing.assert_array_equal(out.text_raw, txt)

    def test_mixup_endpoint_keeps_first_element(self, rng):
        img, txt = rng.normal(size=(4, 3)), rng.normal(size=(4, 2))
        labels = np.array([0, 1, 2, 3])

        class OnesBeta:
            """Forwards permutation draws; forces the mixing coefficient to 1."""

            def __init__(self):
                self._gen = seeded_rng(0)

            def permutation(self, n):
                return self._gen.permutation(n)

            def beta(self, a, b, size=None):
                return np.ones(size)

        out = trainer.augment(
            img, txt, labels, trainer.Augmentation("mixup", beta=0.4), OnesBeta()
        )
        np.testing.assert_allclose(out.image_raw, img)
        np.testing.assert_array_equal(out.labels_a, labels)
        np.testing.assert_allclose(out.lam, 1.0)

    def test_mixup_convex_combination(self, rng):
        img, txt = rng.normal(size=(8, 3)), rng.normal(size=(8, 2))
        labels = np.arange(8) % 4
        out = trainer.augment(
            img, txt, labels, trainer.Augmentation("mixup", beta=0.4), seeded_rng(3)
        )
        assert out.is_mixed
        lo = np.minimum(img.min(axis=0), img.min(axis=0))
        assert np.all(out.image_raw.min(axis=0) >= lo - 1e-9)


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
        spec = dataclasses.replace(TINY_TEACHER, corruption=data.WeightNoise(10.0))
        teacher = trainer.pretrain_teacher(
            TINY_PRETRAIN, ds, train_idx, eval_idx, spec, 0, 0
        )
        # gate accuracy recorded pre-corruption
        assert teacher.accuracy > 0.9
        acc, _, _ = trainer.evaluate(
            teacher.image_params, teacher.text_params, ds, eval_idx, 4.0, teacher.bank
        )
        assert acc <= 2.0 / TINY_SPEC.num_classes

    def test_label_shuffle_produces_weak_teacher(self, tiny):
        ds, train_idx, eval_idx, _ = tiny
        spec = dataclasses.replace(TINY_TEACHER, corruption=data.LABEL_SHUFFLE)
        teacher = trainer.pretrain_teacher(
            TINY_PRETRAIN, ds, train_idx, eval_idx, spec, 0, 0
        )
        assert teacher.accuracy <= 2.0 / TINY_SPEC.num_classes + 0.3


class TestEvaluate:
    def test_recall_at_n_is_one(self, tiny):
        ds, train_idx, eval_idx, teachers = tiny
        t = teachers[0]
        _, _, r5 = trainer.evaluate(t.image_params, t.text_params, ds, eval_idx, 4.0)
        assert r5 >= 0.99  # N=4 classes, recall@min(5,N) is full ranking

    def test_random_student_near_chance_eight_classes(self):
        ds = data.generate(data.SyntheticSpec())  # default 8-class spec
        _, eval_idx = trainer.dataset_split(ds)
        accs = []
        for seed in range(5):
            cfg = trainer.EncoderConfig(ds.spec.image_dim, (48, 48), 8)
            tcfg = trainer.EncoderConfig(ds.spec.text_dim, (48, 48), 8)
            img = trainer.init_params(cfg, seeded_rng(seed, 1))
            txt = trainer.init_params(tcfg, seeded_rng(seed, 2))
            acc, _, _ = trainer.evaluate(img, txt, ds, eval_idx, 4.0)
            accs.append(acc)
        assert abs(np.mean(accs) - 0.125) < 0.05


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
        ds, train_idx, eval_idx, teachers = tiny
        before = [t.fingerprints() for t in teachers]
        trainer.distill_student(tiny_config(strategy="dsw"), teachers, ds, train_idx, eval_idx)
        after = [t.fingerprints() for t in teachers]
        assert before == after

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
        """Row counts of every teacher encode in one distill run."""
        ds, train_idx, eval_idx, teachers = tiny
        teacher_params = [t.image_params for t in teachers]
        real = trainer.encode
        sizes = []

        def counting(params, x, train_mode=False, rng=None):
            if any(params is p for p in teacher_params):
                assert not train_mode
                sizes.append(np.shape(x)[0])
            return real(params, x, train_mode=train_mode, rng=rng)

        monkeypatch.setattr(trainer, "encode", counting)
        trainer.distill_student(tiny_config(**kw), teachers, ds, train_idx, eval_idx)
        return sizes

    def test_no_augmentation_encodes_each_block_once(self, monkeypatch, tiny):
        n_train = tiny[1].size
        sizes = self.teacher_encode_sizes(monkeypatch, tiny, batch_size=30, strategy="dsw")
        assert len(sizes) == 2 * math.ceil(n_train / 30)
        assert sum(sizes) == 2 * n_train

    def test_mixup_encodes_every_batch(self, monkeypatch, tiny):
        n_train = tiny[1].size
        sizes = self.teacher_encode_sizes(
            monkeypatch, tiny, batch_size=30, strategy="lsr",
            augmentation=trainer.Augmentation("mixup", beta=0.4),
        )
        assert len(sizes) == 3 * 2 * math.ceil(n_train / 30)

    def test_one_row_batches_skip_the_cache(self, monkeypatch, tiny):
        # n_train % batch_size == 1: the one-row tail joins the last block,
        # and each epoch's one-row batch is encoded on its own.
        n_train = tiny[1].size
        sizes = self.teacher_encode_sizes(monkeypatch, tiny, batch_size=n_train - 1)
        assert sizes == [n_train, n_train] + [1, 1] * 3

    def test_cached_outputs_match_per_batch_outputs(self, tiny):
        ds, train_idx, _, teachers = tiny
        rows_raw = ds.image_raw[train_idx]
        rng = np.random.default_rng(0)
        for t in teachers:
            cache = trainer._FrozenTeacherCache(t, ds.image_raw, train_idx, 30, 4.0)
            for size in (2, 5, 30, 31, train_idx.size):
                rows = rng.permutation(train_idx.size)[:size]
                got = cache.outputs(rows)
                feats, _ = trainer.encode(t.image_params, rows_raw[rows], train_mode=False)
                want = distill.TeacherOutputs.from_features(feats, t.bank, 4.0)
                for name in ("image_features", "text_features", "i2t_probs", "t2i_probs"):
                    np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    def test_dsw_uses_two_stacked_vjps_per_batch(self, monkeypatch, tiny):
        ds, train_idx, eval_idx, teachers = tiny
        real = trainer.vjp
        shapes = []

        def counting(tape, grad):
            shapes.append(np.shape(grad))
            return real(tape, grad)

        monkeypatch.setattr(trainer, "vjp", counting)
        trainer.distill_student(
            tiny_config(strategy="dsw", epochs=1), teachers, ds, train_idx, eval_idx
        )
        batches = math.ceil(train_idx.size / 32)
        stacked = [s for s in shapes if len(s) == 3]
        assert len(stacked) == 2 * batches and all(s[0] == 2 for s in stacked)
        assert len(shapes) == 3 * batches + 1  # plus the image step and one text step


class TestRunSingle:
    def test_end_to_end(self, tiny):
        ds, *_ = tiny
        roster = [TINY_TEACHER, trainer.TeacherSpec(hidden_widths=(20,), output_dim=6)]
        result = trainer.run_single(
            ds, TINY_PRETRAIN, roster, tiny_config(), seed=3
        )
        assert len(result.metrics.epochs) == 3
        assert len(result.teachers) == 2

    def test_base_skips_pretraining(self, tiny):
        ds, *_ = tiny
        result = trainer.run_single(
            ds, TINY_PRETRAIN, [], tiny_config(strategy="base", num_teachers=0), seed=3
        )
        assert result.teachers == []
