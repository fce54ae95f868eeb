"""The manifest's schema: every config dataclass a manifest reaches, with
its defaults, enums and checks, and the reader and the echo that walk them.
It owns the schedule (``LrSchedule.at``), the split fraction, the activation
enum and the reader of a dataset file's spec too (``data.load_dataset``).
A field a manifest does not set has the key ``RUN_ONLY`` in its metadata:
``_readers`` leaves it out, so ``_build`` rejects it as an unknown key and
``_echo`` omits it. ``_build`` reads a manifest object, naming the field at
fault on failure, and ``_echo`` writes a config back as the object that
``_build`` reads to an equal one.
"""

from __future__ import annotations

import functools
import json
import math
import typing
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigParseError, InvalidConfig, InvalidSpec

SCHEMA_VERSION = 1
SUITES = ("single", "loss_ratio", "strategy", "teacher_count", "student_size")
STRATEGIES = ("base", "avg", "lsr", "dsw")
# The most teachers a run may use: metrics.csv has one alpha column each.
MAX_TEACHERS = 4
# The metadata key of a field that a manifest does not set.
RUN_ONLY = "run_only"
# The share of each class's rows a run trains on; the rest are evaluated.
TRAIN_FRACTION = 0.8
ACTIVATIONS = ("relu", "tanh", "identity")


@dataclass(frozen=True)
class LrSchedule:
    kind: str = "fixed"          # fixed | cosine
    eta_min: float | None = None  # cosine floor; defaults to lr / 100

    def __post_init__(self):
        if self.kind not in ("fixed", "cosine"):
            raise InvalidConfig("kind", f"must be 'fixed' or 'cosine', got {self.kind!r}")
        if self.eta_min is not None and not (math.isfinite(self.eta_min) and self.eta_min >= 0):
            raise InvalidConfig("eta_min", "must be finite and >= 0")

    def at(self, lr: float, t: int, total: int) -> float:
        """The learning rate at step ``t`` of ``total``: ``lr`` under fixed,
        else half-cosine decay from ``lr`` down to ``eta_min``."""
        if self.kind == "fixed":
            return lr
        eta_min = self.eta_min if self.eta_min is not None else lr / 100.0
        frac = 0.0 if total <= 0 else min(max(t / total, 0.0), 1.0)
        return eta_min + 0.5 * (lr - eta_min) * (1.0 + np.cos(np.pi * frac))


@dataclass(frozen=True)
class Augmentation:
    kind: str = "none"           # none | jitter | mixup
    sigma: float = 0.0           # jitter noise scale
    beta: float = 0.4            # mixup Beta(beta, beta) parameter

    def __post_init__(self):
        if self.kind not in ("none", "jitter", "mixup"):
            raise InvalidConfig(
                "kind", f"must be 'none', 'jitter' or 'mixup', got {self.kind!r}"
            )
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise InvalidConfig("sigma", "must be finite and >= 0")
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise InvalidConfig("beta", "must be finite and > 0")


@dataclass(frozen=True)
class Corruption:
    """How a teacher deviates: ``weight_noise`` adds Gaussian noise of scale
    ``sigma`` to its weight matrices once it is pretrained, and
    ``label_shuffle`` pretrains it against permuted labels."""

    kind: str = "none"           # none | weight_noise | label_shuffle
    sigma: float | None = None   # weight_noise scale; 1.0 when not given

    def __post_init__(self):
        if self.kind not in ("none", "weight_noise", "label_shuffle"):
            raise InvalidConfig(
                "kind", f"must be 'none', 'weight_noise' or 'label_shuffle', got {self.kind!r}"
            )
        if self.kind != "weight_noise":
            if self.sigma is not None:
                raise InvalidConfig("sigma", f"applies to weight_noise only, not {self.kind!r}")
        elif self.sigma is None:
            object.__setattr__(self, "sigma", 1.0)
        elif not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise InvalidConfig("sigma", "must be finite and >= 0")


def architecture_problem(arch) -> tuple[str, str] | None:
    """The first field of ``arch`` no encoder can be built with, as
    (field, why), or None. ``arch`` is an ``encoder.EncoderConfig`` or any
    config with its ``hidden_widths``, ``output_dim``, ``activation`` and
    ``dropout_p``; this is the one rule for all of them."""
    if any(w < 1 for w in arch.hidden_widths):
        return "hidden_widths", f"must all be >= 1, got {tuple(arch.hidden_widths)}"
    if arch.output_dim < 1:
        return "output_dim", f"must be >= 1, got {arch.output_dim}"
    if arch.activation not in ACTIVATIONS:
        return "activation", f"must be one of {ACTIVATIONS}, got {arch.activation!r}"
    if not 0.0 <= arch.dropout_p < 1.0:
        return "dropout_p", f"must lie in [0, 1), got {arch.dropout_p}"
    return None


def _check_architecture(spec) -> None:
    problem = architecture_problem(spec)
    if problem:
        raise InvalidConfig(*problem)


@dataclass(frozen=True)
class StudentConfig:
    hidden_widths: tuple[int, ...] = (48, 48)
    output_dim: int = 8
    activation: str = "relu"
    dropout_p: float = 0.5

    __post_init__ = _check_architecture


@dataclass(frozen=True)
class TeacherSpec:
    hidden_widths: tuple[int, ...] = (96,)
    output_dim: int = 8
    activation: str = "relu"
    dropout_p: float = 0.0
    corruption: Corruption | None = Corruption()  # None means Corruption()

    def __post_init__(self):
        _check_architecture(self)
        if self.corruption is None:
            object.__setattr__(self, "corruption", Corruption())
        elif not isinstance(self.corruption, Corruption):
            raise InvalidConfig(
                "corruption", f"must be a Corruption or None, got {self.corruption!r}"
            )


DEFAULT_TEACHER_ROSTER: tuple[TeacherSpec, ...] = (
    TeacherSpec(hidden_widths=(96,)),
    TeacherSpec(hidden_widths=(80,)),
    TeacherSpec(hidden_widths=(64,)),
    TeacherSpec(hidden_widths=(112,)),
)


def _check_positive(config, name: str) -> None:
    """A learning rate or temperature must be finite and > 0: the training
    step divides by temperatures unchecked, and JSON admits Infinity/NaN."""
    value = getattr(config, name)
    if not (math.isfinite(value) and value > 0):
        raise InvalidConfig(name, "must be finite and > 0")


@dataclass(frozen=True)
class PretrainConfig:
    epochs: int = 30
    batch_size: int = 64
    lr: float = 1e-3
    tau: float = 4.0
    accuracy_gate: float = 0.95

    def __post_init__(self):
        if self.epochs < 0:
            raise InvalidConfig("epochs", "must be >= 0")
        if self.batch_size < 1:
            raise InvalidConfig("batch_size", "must be >= 1")
        for name in ("lr", "tau"):
            _check_positive(self, name)
        if not 0.0 <= self.accuracy_gate <= 1.0:
            raise InvalidConfig("accuracy_gate", "must lie in [0, 1]")


@dataclass(frozen=True)
class TrainConfig:
    """Distillation-run configuration.

    The three temperatures map as: ``tau_teacher`` for the frozen teacher
    distributions, ``tau_student`` for the student's own contrastive loss,
    ``tau_distill`` for the student distributions inside the KL terms.
    ``loss_ratios`` orders (clip, kl, mse). A manifest does not set the
    run-only fields: a run's seed comes from ``seeds``, and the CLI
    evaluates on the student bank and the default split.
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
    seed: int = field(default=0, metadata={RUN_ONLY: True})
    text_bank_refresh: str = "epoch"   # epoch | batch
    eval_bank: str = field(default="student", metadata={RUN_ONLY: True})  # student only
    mse_mode: str = "weighted_target"  # weighted_target | per_teacher
    kl_weight_mode: str = "per_teacher"  # per_teacher only
    train_fraction: float = field(default=TRAIN_FRACTION, metadata={RUN_ONLY: True})

    def __post_init__(self):
        """Reject every value the trainer cannot run, naming the field."""
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise InvalidConfig(name, "must be >= 1")
        for name in ("lr", "tau_teacher", "tau_student", "tau_distill"):
            _check_positive(self, name)
        ratios = self.loss_ratios
        if len(ratios) != 3 or not all(map(math.isfinite, ratios)) or min(ratios) <= 0:
            raise InvalidConfig(
                "loss_ratios", "must be three numbers (clip, kl, mse), each finite and > 0"
            )
        if self.strategy not in STRATEGIES:
            raise InvalidConfig("strategy", f"must be one of {STRATEGIES}, got {self.strategy!r}")
        least = 0 if self.strategy == "base" else 1
        if self.num_teachers < least:
            raise InvalidConfig(
                "num_teachers", f"must be >= {least} under strategy {self.strategy!r}"
            )
        if self.text_bank_refresh not in ("epoch", "batch"):
            raise InvalidConfig("text_bank_refresh", "must be 'epoch' or 'batch'")
        if self.mse_mode not in ("weighted_target", "per_teacher"):
            raise InvalidConfig("mse_mode", "must be 'weighted_target' or 'per_teacher'")
        if self.kl_weight_mode != "per_teacher":
            # Every strategy produces per-teacher weights.
            raise InvalidConfig(
                "kl_weight_mode", f"must be 'per_teacher', got {self.kl_weight_mode!r}"
            )
        if self.eval_bank != "student":
            # Runs evaluate on the student's own class bank.
            raise InvalidConfig("eval_bank", f"must be 'student', got {self.eval_bank!r}")
        eta_min = self.lr_schedule.eta_min
        if self.lr_schedule.kind == "cosine" and eta_min is not None and eta_min > self.lr:
            # The schedule would rise from lr to eta_min instead of decaying.
            raise InvalidConfig(
                "lr_schedule.eta_min", f"must be <= lr ({self.lr}) under cosine, got {eta_min}"
            )

    @property
    def teachers_used(self) -> int:
        """How many teachers the run distills from: the first ``num_teachers``
        of the roster, none under ``base``."""
        return 0 if self.strategy == "base" else self.num_teachers


@dataclass(frozen=True)
class SyntheticSpec:
    """Everything that determines a dataset, byte for byte."""

    num_classes: int = 8
    image_dim: int = 32
    text_dim: int = 24
    samples_per_class: int = 250
    noise_sigma: float = 0.35
    anchor_scale: float = 1.0
    seed: int = 7

    def __post_init__(self):
        if self.num_classes < 2:
            raise InvalidSpec("must be >= 2", "num_classes")
        for name in ("image_dim", "text_dim"):
            if getattr(self, name) < 2:
                raise InvalidSpec("must be >= 2", name)
        if self.samples_per_class < 1:
            raise InvalidSpec("must be >= 1", "samples_per_class")
        # JSON admits NaN and Infinity, which a bound check alone lets through.
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0.0):
            raise InvalidSpec("must be finite and >= 0", "noise_sigma")
        if not (math.isfinite(self.anchor_scale) and self.anchor_scale > 0.0):
            raise InvalidSpec("must be finite and > 0", "anchor_scale")

    @property
    def num_samples(self) -> int:
        return self.num_classes * self.samples_per_class


def split_sizes(count: int, train_fraction: float) -> tuple[int, int]:
    """The (train, eval) rows ``trainer.split_indices`` makes of a class of
    ``count`` rows. A run needs both: at 0.8, a class needs at least 3 rows."""
    cut = int(round(count * train_fraction))
    return cut, count - cut


def _split_problem(spec: SyntheticSpec, train: TrainConfig) -> str | None:
    """Why the split leaves a class of ``spec`` without a train or an eval
    row, or None: a run needs both."""
    n_train, n_eval = split_sizes(spec.samples_per_class, train.train_fraction)
    if n_train and n_eval:
        return None
    return (
        f"{spec.samples_per_class} samples per class split into {n_train} train "
        f"and {n_eval} eval rows; each side needs at least one"
    )


@dataclass(frozen=True)
class DatasetSource:
    """A run's dataset: generated from ``spec``, or read from the file
    ``path``; the default spec when neither is given."""

    spec: SyntheticSpec | None = None
    path: str | None = None

    def __post_init__(self):
        if self.path is None:
            if self.spec is None:
                object.__setattr__(self, "spec", SyntheticSpec())
        elif self.spec is not None:
            raise InvalidConfig("path", "give spec or path, not both")


@dataclass(frozen=True)
class Manifest:
    """A manifest: each field is one of its top-level keys."""

    schema_version: int | None = None  # required
    suite: str = "single"
    seeds: tuple[int, ...] = (0,)
    dataset: DatasetSource = DatasetSource()
    train: TrainConfig = TrainConfig()
    pretrain: PretrainConfig = PretrainConfig()
    teachers: tuple[TeacherSpec, ...] = DEFAULT_TEACHER_ROSTER
    output_dir: str = "runs"

    def __post_init__(self):
        if self.schema_version != SCHEMA_VERSION:
            raise InvalidConfig(
                "schema_version",
                "missing" if self.schema_version is None
                else f"expected {SCHEMA_VERSION}, got {self.schema_version}",
            )
        if self.suite not in SUITES:
            raise InvalidConfig("suite", f"must be one of {SUITES}, got {self.suite!r}")
        if not self.seeds or min(self.seeds) < 0 or len(set(self.seeds)) < len(self.seeds):
            raise InvalidConfig("seeds", "must be a non-empty list of distinct integers >= 0")
        if self.train.num_teachers > MAX_TEACHERS:
            raise InvalidConfig(
                "train.num_teachers",
                f"must be at most {MAX_TEACHERS}, got {self.train.num_teachers}",
            )
        if self.dataset.spec is not None:
            problem = _split_problem(self.dataset.spec, self.train)
            if problem:
                raise InvalidConfig("dataset.spec.samples_per_class", problem)


def _fail(where: str, why: str):
    raise ConfigParseError(f"{where or 'manifest'!r}: {why}")


def _path(where: str, key) -> str:
    if type(key) is int:
        return f"{where}[{key}]"
    return f"{where}.{key}" if where else key


def _object(obj, where: str, known) -> dict:
    """``obj`` as a manifest object each of whose keys is in ``known`` (a
    set or a dict's keys)."""
    if type(obj) is not dict:
        _fail(where, f"expected an object, got {type(obj).__name__}")
    if not obj.keys() <= known:
        _fail(_path(where, next(k for k in obj if k not in known)), "unknown field")
    return obj


# A field's reader is its scalar type (int, float or str), or a function
# ``read(v, where, key)`` for anything else. Paths are formatted only on
# failure.
def _read(read, v, where: str, key):
    if type(v) is read:  # bool is no int here
        return v
    if read is float and type(v) is int:
        return float(v)
    if type(read) is type:
        _fail(_path(where, key), f"expected {read.__name__}, got {type(v).__name__}")
    return read(v, where, key)


def _sequence(item):
    def read(v, where, key):
        if type(v) is not list:
            _fail(_path(where, key), f"expected a list, got {type(v).__name__}")
        return tuple(
            x if type(x) is item else _read(item, x, _path(where, key), i)
            for i, x in enumerate(v)
        )

    return read


def _reader(tp):
    if is_dataclass(tp):
        return lambda v, where, key: _build(tp, v, _path(where, key))
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple:
        return _sequence(_reader(args[0]))
    if type(None) in args:
        inner = _reader(next(a for a in args if a is not type(None)))
        return lambda v, where, key: None if v is None else _read(inner, v, where, key)
    return tp


@functools.cache
def _readers(cls) -> dict:
    """Field name -> reader for each manifest field of ``cls`` (each field
    not marked ``RUN_ONLY``), built on first use (resolving the type hints
    is the costly part)."""
    hints = typing.get_type_hints(cls)
    return {f.name: _reader(hints[f.name]) for f in fields(cls) if RUN_ONLY not in f.metadata}


def _build(cls, obj, where: str):
    """The config dataclass ``cls`` built from the manifest object ``obj``
    found at ``where``. A missing key takes the field's default; an
    unknown key, a wrong type, or a value ``cls`` rejects fails naming
    the field."""
    readers = _readers(cls)
    kwargs = {
        key: v if type(v) is readers[key] else _read(readers[key], v, where, key)
        for key, v in _object(obj, where, readers.keys()).items()
    }
    try:
        return cls(**kwargs)
    except InvalidConfig as e:
        _fail(_path(where, e.field), e.why)
    except InvalidSpec as e:
        if e.field is None:
            _fail(where, str(e))
        _fail(_path(where, e.field), e.why)


def _echo(value):
    """``value``, a config dataclass, as the manifest object that ``_build``
    reads back to an equal one: its manifest fields (``_readers``), each
    echoed in turn."""
    if is_dataclass(value):
        return {name: _echo(getattr(value, name)) for name in _readers(type(value))}
    if type(value) is tuple:
        return [_echo(x) for x in value]
    return value


def _read_json(path, what: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as e:
        raise ConfigParseError(f"cannot read {what} {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise ConfigParseError(f"{what} {path} is not UTF-8 text: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigParseError(f"{what} {path} is not valid JSON: {e}") from e
