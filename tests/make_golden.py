"""Golden digests of kdlab's outputs, for the bit-identity test.

    PYTHONPATH=src python tests/make_golden.py

rewrites ``tests/golden.json``. Run it only for a change that means to move
output bits, and name the moved digests and the reason in ``CHANGES.md``.

The digests cover two kinds of output:

- the sha256 of every ``metrics.csv`` and ``summary.csv`` that ``kdlab run``
  writes for the five suites on ``test_cli``'s tiny manifest, for a
  ``strategy`` suite under mixup with the per-batch text bank, per-teacher
  MSE and teachers of unequal output dims (a group whose distilling
  members share a member-stacked per-teacher MSE and step both encoders
  every batch), and for the determinism manifest of acceptance 11;
- a digest of every ``EpochRecord`` field and the student's parameters of
  2-epoch ``distill_student`` runs, over the strategies, augmentations,
  teacher counts, text-bank refresh modes, MSE modes and learning-rate
  schedules, a distillation temperature that differs from the student's,
  and batch sizes that leave a one-row tail; plus the teachers' parameters,
  banks and accuracies;
- the same for short runs at the default dataset and student shapes: a
  ``dsw`` run, the benchmark's mixup ``lsr`` K=3 run, a ``jitter`` ``avg``
  run, and a batch size of 48, whose epoch spans several blocks of batches
  plus a 16-row tail.

The bits hold only on the platform they were recorded on, which is stored
with them as perfbench's ``run.platform_key()``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from kdlab import cli, data, trainer  # noqa: E402
from test_acceptance import ACCEPTANCE_11_MANIFEST  # noqa: E402
from test_cli import TINY_DATASET, TINY_PRETRAIN, TINY_TEACHERS, TINY_TRAIN  # noqa: E402

SUITES = ("single", "loss_ratio", "strategy", "teacher_count", "student_size")

SPEC = data.SyntheticSpec(
    num_classes=4, image_dim=10, text_dim=8, samples_per_class=30,
    noise_sigma=0.25, anchor_scale=1.0, seed=9,
)
PRETRAIN = trainer.PretrainConfig(epochs=6, batch_size=32, lr=3e-3, tau=4.0, accuracy_gate=0.0)
ROSTER = (
    trainer.TeacherSpec(hidden_widths=(20,), output_dim=6),
    trainer.TeacherSpec(hidden_widths=(18,), output_dim=6, activation="tanh"),
    trainer.TeacherSpec(hidden_widths=(16,), output_dim=5, dropout_p=0.1),
)
STUDENT = trainer.StudentConfig(hidden_widths=(20,), output_dim=6, dropout_p=0.2)
JITTER = trainer.Augmentation("jitter", sigma=0.1)
MIXUP = trainer.Augmentation("mixup", beta=0.4)

# name -> TrainConfig overrides; the 96 training rows leave a one-row tail
# at batch sizes 95 and 19.
DISTILL_RUNS = {
    "base": dict(strategy="base", num_teachers=0),
    "avg-k2-none": dict(strategy="avg"),
    "lsr-k2-jitter": dict(strategy="lsr", augmentation=JITTER),
    "dsw-k2-none": dict(strategy="dsw"),
    "dsw-k2-mixup": dict(strategy="dsw", augmentation=MIXUP),
    "avg-k2-mixup-batchbank": dict(strategy="avg", augmentation=MIXUP, text_bank_refresh="batch"),
    "lsr-k3-mixup-batchbank-perteacher": dict(
        strategy="lsr", num_teachers=3, augmentation=MIXUP,
        text_bank_refresh="batch", mse_mode="per_teacher",
    ),
    "dsw-k3-jitter-perteacher": dict(
        strategy="dsw", num_teachers=3, augmentation=JITTER, mse_mode="per_teacher",
    ),
    # The teacher cache with teachers of unequal output dims.
    "lsr-k3-none-perteacher": dict(strategy="lsr", num_teachers=3, mse_mode="per_teacher"),
    "avg-k2-taudistill-cosine": dict(
        strategy="avg", tau_distill=2.0, lr_schedule=trainer.LrSchedule("cosine"),
    ),
    "dsw-k2-tail95": dict(strategy="dsw", batch_size=95),
    "lsr-k2-tail19": dict(strategy="lsr", batch_size=19),
    "dsw-k2-mixup-tail19-batchbank": dict(
        strategy="dsw", batch_size=19, augmentation=MIXUP, text_bank_refresh="batch",
    ),
    "base-tail95": dict(strategy="base", num_teachers=0, batch_size=95),
}


def _platform_key() -> dict:
    """perfbench's platform key, loaded by path as the tracer is."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.platform_key()


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(repr((a.dtype.str, a.shape)).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _params(p) -> list[np.ndarray]:
    return list(p.weights) + list(p.biases)


def _run_sha(student, metrics, *more) -> str:
    """Digest of a run: every field of every ``EpochRecord``, the
    student's parameters, then ``more``."""
    fields = [
        np.asarray(getattr(rec, f.name))
        for rec in metrics.epochs
        for f in dataclasses.fields(rec)
    ]
    return _sha(*fields, *_params(student.image_params), *_params(student.text_params), *more)


def suite_digests(workdir: Path) -> dict[str, str]:
    """sha256 of every metrics.csv and summary.csv, keyed by path."""
    manifests = {
        suite: {
            "schema_version": 1, "suite": suite, "seeds": [0], "dataset": TINY_DATASET,
            "train": dict(TINY_TRAIN), "teachers": TINY_TEACHERS,
            "pretrain": dict(TINY_PRETRAIN), "output_dir": "unused",
        }
        for suite in SUITES
    }
    manifests["strategy-mixup-batchbank-perteacher"] = {
        **manifests["strategy"],
        "train": {
            **TINY_TRAIN, "num_teachers": 3, "augmentation": {"kind": "mixup", "beta": 0.4},
            "text_bank_refresh": "batch", "mse_mode": "per_teacher",
        },
        # Output dims 5, 4, 5: the 5-dim teachers are not neighbours in the roster.
        "teachers": [
            {"hidden_widths": [16], "output_dim": 5},
            {"hidden_widths": [14], "output_dim": 4},
            {"hidden_widths": [12], "output_dim": 5},
        ],
    }
    manifests["acceptance11"] = {**ACCEPTANCE_11_MANIFEST, "output_dir": "unused"}
    out = {}
    for name, manifest in manifests.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(manifest))
        run_dir = workdir / name
        if cli.main(["run", str(path), "--output-dir", str(run_dir)]) != 0:
            raise RuntimeError(f"kdlab run failed on the {name} manifest")
        for f in sorted(run_dir.rglob("*.csv")):
            out[f"{name}/{f.relative_to(run_dir).as_posix()}"] = hashlib.sha256(
                f.read_bytes()
            ).hexdigest()
    return out


def distill_digests() -> dict[str, str]:
    """Digests of the teachers and of every DISTILL_RUNS run."""
    ds = data.generate(SPEC)
    train_idx, eval_idx = trainer.dataset_split(ds)
    teachers = [
        trainer.pretrain_teacher(PRETRAIN, ds, train_idx, eval_idx, spec, 0, j)
        for j, spec in enumerate(ROSTER)
    ]
    # A pretraining batch size that leaves a one-row tail.
    tail = trainer.pretrain_teacher(
        dataclasses.replace(PRETRAIN, batch_size=19), ds, train_idx, eval_idx, ROSTER[0], 0, 0
    )
    out = {
        f"teacher{j}": _sha(
            *_params(t.image_params), *_params(t.text_params), t.bank, t.accuracy
        )
        for j, t in enumerate(teachers + [tail])
    }
    out.update(default_shape_digests())
    for name, overrides in DISTILL_RUNS.items():
        cfg = trainer.TrainConfig(
            **{"epochs": 2, "batch_size": 32, "student": STUDENT, "seed": 1, **overrides}
        )
        student, metrics = trainer.distill_student(
            cfg, teachers[: cfg.num_teachers], ds, train_idx, eval_idx
        )
        out[name] = _run_sha(student, metrics)
    return out


def default_shape_digests() -> dict[str, str]:
    """Short runs at the default dataset and student shapes, with the
    benchmark's teachers: 64-row batches through 96-, 80-, 64- and 48-wide
    layers, where BLAS may pick other kernels than at the tiny shapes above.
    ``default-shapes-dsw`` also digests its two teachers."""
    ds = data.generate(data.SyntheticSpec())
    train_idx, eval_idx = trainer.dataset_split(ds)
    pretrain = trainer.PretrainConfig(epochs=2, accuracy_gate=0.0)
    teachers = [
        trainer.pretrain_teacher(pretrain, ds, train_idx, eval_idx, trainer.TeacherSpec(hidden_widths=(w,)), 0, j)
        for j, w in enumerate((96, 80, 64))
    ]
    runs = {
        "default-shapes-dsw": dict(strategy="dsw"),
        "default-shapes-lsr-k3-mixup-batchbank-perteacher": dict(
            strategy="lsr", num_teachers=3, augmentation=MIXUP,
            text_bank_refresh="batch", mse_mode="per_teacher",
        ),
        "default-shapes-avg-k2-jitter": dict(strategy="avg", augmentation=JITTER),
        # 1600 training rows: 33 batches of 48 and a 16-row tail.
        "default-shapes-lsr-k2-mixup-batch48": dict(
            strategy="lsr", augmentation=MIXUP, batch_size=48,
        ),
    }
    out = {}
    for name, overrides in runs.items():
        cfg = trainer.TrainConfig(**{"epochs": 2, **overrides})
        used = teachers[: cfg.num_teachers]
        student, metrics = trainer.distill_student(cfg, used, ds, train_idx, eval_idx)
        frozen = (
            (a for t in used for a in _params(t.image_params) + [t.bank])
            if name == "default-shapes-dsw" else ()
        )
        out[name] = _run_sha(student, metrics, *frozen)
    return out


def compute() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        return {**suite_digests(Path(tmp)), **distill_digests()}


def main() -> int:
    golden = {"platform": _platform_key(), "digests": compute()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}: {len(golden['digests'])} digests")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
