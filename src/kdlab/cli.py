"""Command-line experiment runner.

Verbs:
  run <manifest>        execute all (grid point x seed) runs of a suite
  validate <manifest>   schema/invariant check plus resolved-config echo
  report <dir>          aggregate completed runs into a ranked table
  gen-data <spec> <out> materialize a synthetic dataset file

A manifest is a single JSON file with an explicit ``schema_version``; the
four ablation suites (loss_ratio, strategy, teacher_count, student_size)
expand into fixed grids over the base training config. Each run writes
``metrics.csv`` (one row per epoch, deterministic byte-for-byte for a
given manifest and seed) and a ``run.json`` echo; the suite writes
``summary.csv`` and ``manifest.json`` with config echo, library version,
and wall-clock. Exit codes: 0 ok, 2 config error, 3 data error,
4 numeric error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .data import PairedDataset, SyntheticSpec, generate, load_dataset, save_dataset
from .errors import (
    ChecksumMismatch,
    ConfigParseError,
    DataError,
    FormatVersionMismatch,
    InvalidConfig,
    InvalidSpec,
    KdlabError,
    NoRunsFound,
    NumericError,
)
from .trainer import (
    DEFAULT_TEACHER_ROSTER,
    Augmentation,
    LrSchedule,
    PretrainConfig,
    RunMetrics,
    StudentConfig,
    TeacherSpec,
    TrainConfig,
    run_single,
)
from .data import WeightNoise

SCHEMA_VERSION = 1
SUITES = ("single", "loss_ratio", "strategy", "teacher_count", "student_size")

LOSS_RATIO_GRID = (
    ("0.5:1:1", (0.5, 1.0, 1.0)),
    ("1:0.5:1", (1.0, 0.5, 1.0)),
    ("1:1:0.5", (1.0, 1.0, 0.5)),
    ("1:1:1", (1.0, 1.0, 1.0)),
)
STRATEGY_GRID = ("base", "avg", "lsr", "dsw")
TEACHER_COUNT_GRID = (1, 2, 3, 4)
STUDENT_SIZE_GRID = (
    ("2x48-d4", StudentConfig(hidden_widths=(48, 48), output_dim=4)),
    ("3x48-d4", StudentConfig(hidden_widths=(48, 48, 48), output_dim=4)),
    ("2x48-d8", StudentConfig(hidden_widths=(48, 48), output_dim=8)),
)

METRIC_COLUMNS = (
    "suite", "grid_point", "seed", "epoch",
    "l_clip", "l_kl", "l_mse", "total",
    "acc", "recall1", "recall5",
    "alpha_0", "alpha_1", "alpha_2", "alpha_3",
    "fw_iters", "lr",
)


@dataclasses.dataclass
class Manifest:
    suite: str
    seeds: list[int]
    dataset_spec: SyntheticSpec | None
    dataset_path: str | None
    train: TrainConfig
    pretrain: PretrainConfig
    roster: list[TeacherSpec]
    output_dir: str
    raw: dict


def _fail(field: str, why: str):
    raise ConfigParseError(f"manifest field {field!r}: {why}")


def _expect(d: dict, field: str, typ, default=None, required=False):
    if field not in d:
        if required:
            _fail(field, "missing")
        return default
    v = d[field]
    if typ is float and isinstance(v, int):
        v = float(v)
    if not isinstance(v, typ):
        _fail(field, f"expected {getattr(typ, '__name__', typ)}, got {type(v).__name__}")
    return v


def _parse_schedule(d: dict) -> LrSchedule:
    kind = _expect(d, "kind", str, required=True)
    if kind not in ("fixed", "cosine"):
        _fail("train.lr_schedule.kind", f"must be fixed|cosine, got {kind!r}")
    eta_min = d.get("eta_min")
    return LrSchedule(kind=kind, eta_min=float(eta_min) if eta_min is not None else None)


def _parse_augmentation(d: dict) -> Augmentation:
    kind = _expect(d, "kind", str, required=True)
    if kind not in ("none", "jitter", "mixup"):
        _fail("train.augmentation.kind", f"must be none|jitter|mixup, got {kind!r}")
    return Augmentation(
        kind=kind,
        sigma=float(d.get("sigma", 0.0)),
        beta=float(d.get("beta", 0.4)),
    )


def _parse_student(d: dict) -> StudentConfig:
    return StudentConfig(
        hidden_widths=tuple(int(w) for w in d.get("hidden_widths", (32,))),
        output_dim=int(d.get("output_dim", 16)),
        activation=str(d.get("activation", "relu")),
        dropout_p=float(d.get("dropout_p", 0.5)),
    )


def _parse_corruption(d: dict | None):
    if d is None:
        return None
    kind = _expect(d, "kind", str, required=True)
    if kind == "none":
        return None
    if kind == "weight_noise":
        return WeightNoise(sigma=float(d.get("sigma", 1.0)))
    if kind == "label_shuffle":
        return "label_shuffle"
    _fail("teachers[].corruption.kind", f"unknown kind {kind!r}")


def _parse_teacher(d: dict) -> TeacherSpec:
    return TeacherSpec(
        hidden_widths=tuple(int(w) for w in d.get("hidden_widths", (96,))),
        output_dim=int(d.get("output_dim", 16)),
        activation=str(d.get("activation", "relu")),
        dropout_p=float(d.get("dropout_p", 0.0)),
        corruption=_parse_corruption(d.get("corruption")),
    )


def _parse_train(d: dict) -> TrainConfig:
    ratios = d.get("loss_ratios", [1.0, 1.0, 1.0])
    if not isinstance(ratios, (list, tuple)) or len(ratios) != 3:
        _fail("train.loss_ratios", "expected three numbers (clip, kl, mse)")
    ratios = tuple(float(r) for r in ratios)
    for i, r in enumerate(ratios):
        if r <= 0:
            _fail(f"train.loss_ratios[{i}]", f"must be > 0, got {r}")
    strategy = str(d.get("strategy", "avg"))
    if strategy not in ("base", "avg", "lsr", "dsw"):
        _fail("train.strategy", f"must be base|avg|lsr|dsw, got {strategy!r}")
    taus = {
        name: float(d.get(name, 4.0))
        for name in ("tau_teacher", "tau_student", "tau_distill")
    }
    for name, tau in taus.items():
        if tau <= 0:
            _fail(f"train.{name}", f"must be > 0, got {tau}")
    epochs = int(d.get("epochs", 40))
    batch_size = int(d.get("batch_size", 64))
    if epochs < 1:
        _fail("train.epochs", "must be >= 1")
    if batch_size < 1:
        _fail("train.batch_size", "must be >= 1")
    try:
        return TrainConfig(
            epochs=epochs,
            batch_size=batch_size,
            lr=float(d.get("lr", 1e-4)),
            lr_schedule=_parse_schedule(d.get("lr_schedule", {"kind": "fixed"})),
            **taus,
            loss_ratios=ratios,
            strategy=strategy,
            num_teachers=int(d.get("num_teachers", 2)),
            augmentation=_parse_augmentation(d.get("augmentation", {"kind": "none"})),
            student=_parse_student(d.get("student", {})),
            seed=0,
            text_bank_refresh=str(d.get("text_bank_refresh", "epoch")),
            mse_mode=str(d.get("mse_mode", "weighted_target")),
            kl_weight_mode=str(d.get("kl_weight_mode", "per_teacher")),
        )
    except InvalidConfig as e:
        _fail(f"train.{e.field}", e.why)
    except (ValueError, TypeError) as e:
        raise ConfigParseError(f"train config invalid: {e}") from e


def load_manifest(path) -> Manifest:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as e:
        raise ConfigParseError(f"cannot read manifest {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigParseError(f"manifest {path} is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigParseError("manifest must be a JSON object")

    version = _expect(raw, "schema_version", int, required=True)
    if version != SCHEMA_VERSION:
        _fail("schema_version", f"expected {SCHEMA_VERSION}, got {version}")
    suite = _expect(raw, "suite", str, default="single")
    if suite not in SUITES:
        _fail("suite", f"must be one of {SUITES}, got {suite!r}")
    seeds = _expect(raw, "seeds", list, default=[0])
    if not seeds or not all(isinstance(s, int) for s in seeds):
        _fail("seeds", "must be a non-empty list of integers")

    dataset = _expect(raw, "dataset", dict, default={"spec": {}})
    spec = None
    dpath = None
    if "path" in dataset:
        dpath = str(dataset["path"])
    else:
        try:
            spec = SyntheticSpec.from_dict({**SyntheticSpec().to_dict(), **dataset.get("spec", {})})
        except InvalidSpec as e:
            raise ConfigParseError(f"dataset.spec invalid: {e}") from e

    train = _parse_train(_expect(raw, "train", dict, default={}))
    pre_d = _expect(raw, "pretrain", dict, default={})
    pretrain = PretrainConfig(
        epochs=int(pre_d.get("epochs", 30)),
        batch_size=int(pre_d.get("batch_size", 64)),
        lr=float(pre_d.get("lr", 1e-3)),
        tau=float(pre_d.get("tau", 4.0)),
        accuracy_gate=float(pre_d.get("accuracy_gate", 0.95)),
    )
    roster_raw = _expect(raw, "teachers", list, default=None)
    roster = (
        list(DEFAULT_TEACHER_ROSTER)
        if roster_raw is None
        else [_parse_teacher(t) for t in roster_raw]
    )
    max_k = 4 if suite == "teacher_count" else train.num_teachers
    if train.strategy != "base" and len(roster) < max_k:
        _fail("teachers", f"suite needs {max_k} roster entries, got {len(roster)}")

    output_dir = _expect(raw, "output_dir", str, default="runs")
    return Manifest(
        suite=suite,
        seeds=[int(s) for s in seeds],
        dataset_spec=spec,
        dataset_path=dpath,
        train=train,
        pretrain=pretrain,
        roster=roster,
        output_dir=output_dir,
        raw=raw,
    )


def expand_grid(manifest: Manifest) -> list[tuple[str, TrainConfig]]:
    base = manifest.train
    if manifest.suite == "single":
        return [("default", base)]
    if manifest.suite == "loss_ratio":
        return [
            (label, dataclasses.replace(base, loss_ratios=ratios))
            for label, ratios in LOSS_RATIO_GRID
        ]
    if manifest.suite == "strategy":
        return [
            (name, dataclasses.replace(base, strategy=name)) for name in STRATEGY_GRID
        ]
    if manifest.suite == "teacher_count":
        return [
            (f"K{k}", dataclasses.replace(base, num_teachers=k))
            for k in TEACHER_COUNT_GRID
        ]
    return [
        (label, dataclasses.replace(base, student=student))
        for label, student in STUDENT_SIZE_GRID
    ]


def _resolve_dataset(manifest: Manifest) -> PairedDataset:
    if manifest.dataset_path is not None:
        try:
            return load_dataset(manifest.dataset_path)
        except (OSError, FormatVersionMismatch, ChecksumMismatch, InvalidSpec) as e:
            raise DataError(f"dataset {manifest.dataset_path}: {e}") from e
    return generate(manifest.dataset_spec)


def _sanitize(label: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "-" for c in label)


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".10g")
    return str(x)


def write_metrics_csv(path, suite: str, grid: str, seed: int, metrics: RunMetrics) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(METRIC_COLUMNS)
        for rec in metrics.epochs:
            alphas = list(rec.alphas) + [0.0] * (4 - len(rec.alphas))
            writer.writerow(
                [
                    suite, grid, seed, rec.epoch,
                    _fmt(rec.l_clip), _fmt(rec.l_kl), _fmt(rec.l_mse), _fmt(rec.total),
                    _fmt(rec.accuracy), _fmt(rec.recall1), _fmt(rec.recall5),
                    _fmt(alphas[0]), _fmt(alphas[1]), _fmt(alphas[2]), _fmt(alphas[3]),
                    _fmt(rec.fw_iterations), _fmt(rec.lr),
                ]
            )


def _execute_run(payload: tuple) -> dict:
    """One (grid point, seed) run; module-level so worker processes can call it."""
    manifest_path, grid_label, seed, out_dir = payload
    manifest = load_manifest(manifest_path)
    config = dict(expand_grid(manifest))[grid_label]
    dataset = _resolve_dataset(manifest)
    t0 = time.perf_counter()
    result = run_single(dataset, manifest.pretrain, manifest.roster, config, seed=seed)
    wall_s = time.perf_counter() - t0

    run_dir = Path(out_dir) / "runs" / _sanitize(grid_label) / f"seed_{seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(run_dir / "metrics.csv", manifest.suite, grid_label, seed, result.metrics)
    final = result.metrics.final
    run_info = {
        "suite": manifest.suite,
        "grid_point": grid_label,
        "seed": seed,
        "wall_seconds": wall_s,
        "final_accuracy": final.accuracy,
        "final_recall5": final.recall5,
        "final_total": final.total,
        "teacher_accuracies": result.teacher_accuracies,
        "mean_alphas": list(np.mean([r.alphas for r in result.metrics.epochs], axis=0))
        if result.metrics.num_teachers
        else [],
        "pareto_certified": all(r.pareto_certified for r in result.metrics.epochs),
    }
    (run_dir / "run.json").write_text(json.dumps(run_info, indent=2, sort_keys=True))
    return run_info


def _summarize(out_dir: Path, suite: str, grid_labels: list[str], seeds: list[int]) -> list[dict]:
    rows = []
    for label in grid_labels:
        finals = []
        r5s = []
        totals = []
        for seed in seeds:
            p = out_dir / "runs" / _sanitize(label) / f"seed_{seed}" / "run.json"
            if p.exists():
                info = json.loads(p.read_text())
                finals.append(info["final_accuracy"])
                r5s.append(info["final_recall5"])
                totals.append(info["final_total"])
        if not finals:
            continue
        acc = np.asarray(finals)
        rows.append(
            {
                "suite": suite,
                "grid_point": label,
                "n_seeds": len(finals),
                "acc_mean": float(acc.mean()),
                "acc_std": float(acc.std(ddof=1)) if acc.size > 1 else 0.0,
                "recall5_mean": float(np.mean(r5s)),
                "total_mean": float(np.mean(totals)),
            }
        )
    with open(out_dir / "summary.csv", "w", newline="") as f:
        writer = csv.DictWriter(
            f,
            fieldnames=[
                "suite", "grid_point", "n_seeds",
                "acc_mean", "acc_std", "recall5_mean", "total_mean",
            ],
        )
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(v) for k, v in row.items()})
    return rows


def cmd_run(args) -> int:
    manifest = load_manifest(args.manifest)
    out_dir = Path(args.output_dir or manifest.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = [int(args.seed_override)] if args.seed_override is not None else manifest.seeds
    grid = expand_grid(manifest)
    _resolve_dataset(manifest)  # fail fast on data problems

    t0 = time.perf_counter()
    payloads = [
        (str(args.manifest), label, seed, str(out_dir))
        for label, _ in grid
        for seed in seeds
    ]
    first_error: KdlabError | None = None
    if args.threads > 1:
        with ProcessPoolExecutor(max_workers=args.threads) as pool:
            futures = [pool.submit(_execute_run, p) for p in payloads]
            for fut, payload in zip(futures, payloads):
                try:
                    fut.result()
                except KdlabError as e:
                    first_error = first_error or _wrap_run_error(e, payload)
                except Exception as e:  # numeric blowups surface per run
                    first_error = first_error or NumericError(
                        f"run {payload[1]}/seed_{payload[2]}: {e}"
                    )
    else:
        for payload in payloads:
            try:
                _execute_run(payload)
            except KdlabError as e:
                first_error = first_error or _wrap_run_error(e, payload)
            except Exception as e:
                first_error = first_error or NumericError(
                    f"run {payload[1]}/seed_{payload[2]}: {e}"
                )

    rows = _summarize(out_dir, manifest.suite, [label for label, _ in grid], seeds)
    echo = {
        "schema_version": SCHEMA_VERSION,
        "library_version": __version__,
        "manifest": manifest.raw,
        "seeds": seeds,
        "grid_points": [label for label, _ in grid],
        "wall_seconds": time.perf_counter() - t0,
    }
    if manifest.suite == "loss_ratio" and rows:
        best = max(rows, key=lambda r: r["acc_mean"])["grid_point"]
        echo["loss_ratio_observation"] = {
            "expected_best": "1:1:1",
            "observed_best": best,
            "matches": best == "1:1:1",
        }
    (out_dir / "manifest.json").write_text(json.dumps(echo, indent=2, sort_keys=True))

    if first_error is not None:
        raise first_error
    return 0


def _wrap_run_error(e: KdlabError, payload) -> KdlabError:
    if isinstance(e, (ConfigParseError, DataError, NumericError)):
        return e
    return NumericError(f"run {payload[1]}/seed_{payload[2]}: {e}")


def cmd_validate(args) -> int:
    manifest = load_manifest(args.manifest)
    if manifest.dataset_path is not None:
        _resolve_dataset(manifest)  # raises DataError if unreadable
    grid = expand_grid(manifest)
    resolved = {
        "suite": manifest.suite,
        "seeds": manifest.seeds,
        "grid_points": [label for label, _ in grid],
        "dataset": (
            {"path": manifest.dataset_path}
            if manifest.dataset_path
            else manifest.dataset_spec.to_dict()
        ),
        "train": dataclasses.asdict(manifest.train),
        "pretrain": dataclasses.asdict(manifest.pretrain),
        "teachers": [dataclasses.asdict(t) for t in manifest.roster],
        "output_dir": manifest.output_dir,
    }
    print(json.dumps(resolved, indent=2, sort_keys=True, default=str))
    return 0


def cmd_report(args) -> int:
    out_dir = Path(args.directory)
    summary = out_dir / "summary.csv"
    if not summary.exists():
        raise NoRunsFound(f"no summary.csv under {out_dir}")
    with open(summary, newline="") as f:
        rows = list(csv.DictReader(f))
    if not rows:
        raise NoRunsFound(f"summary.csv under {out_dir} is empty")
    for r in rows:
        r["acc_mean"] = float(r["acc_mean"])
        r["acc_std"] = float(r["acc_std"])
    rows.sort(key=lambda r: -r["acc_mean"])

    lines = [
        f"suite: {rows[0]['suite']}   (runs aggregated over {rows[0]['n_seeds']} seeds)",
        f"{'rank':<5}{'grid_point':<16}{'acc mean':>10}{'acc std':>10}{'recall@5':>10}",
    ]
    for rank, r in enumerate(rows, start=1):
        flag = "  *best*" if rank == 1 else ""
        lines.append(
            f"{rank:<5}{r['grid_point']:<16}{r['acc_mean']:>10.4f}"
            f"{r['acc_std']:>10.4f}{float(r['recall5_mean']):>10.4f}{flag}"
        )
    text = "\n".join(lines)
    print(text)
    (out_dir / "report.txt").write_text(text + "\n")

    # Long-format per-epoch CSV for external plotting.
    long_path = out_dir / "long.csv"
    with open(long_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["grid_point", "seed", "epoch", "metric", "value"])
        for metrics_csv in sorted(out_dir.glob("runs/*/seed_*/metrics.csv")):
            with open(metrics_csv, newline="") as mf:
                for row in csv.DictReader(mf):
                    for metric in ("l_clip", "l_kl", "l_mse", "total", "acc", "recall1", "recall5"):
                        writer.writerow(
                            [row["grid_point"], row["seed"], row["epoch"], metric, row[metric]]
                        )
    return 0


def cmd_gen_data(args) -> int:
    try:
        raw = json.loads(Path(args.spec).read_text())
    except OSError as e:
        raise ConfigParseError(f"cannot read spec {args.spec}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigParseError(f"spec {args.spec} is not valid JSON: {e}") from e
    try:
        spec = SyntheticSpec.from_dict({**SyntheticSpec().to_dict(), **raw})
    except InvalidSpec as e:
        raise ConfigParseError(str(e)) from e
    ds = generate(spec)
    try:
        save_dataset(ds, args.out)
    except OSError as e:
        raise DataError(f"cannot write {args.out}: {e}") from e
    print(
        f"wrote {args.out}: {spec.num_samples} samples, {spec.num_classes} classes, "
        f"probe accuracy {ds.probe_accuracy:.3f}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdlab", description="multi-teacher distillation experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a manifest's suite")
    p_run.add_argument("manifest")
    p_run.add_argument("--seed-override", type=int, default=None)
    p_run.add_argument("--threads", type=int, default=1)
    p_run.add_argument("--output-dir", default=None)
    p_run.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", help="check a manifest without running")
    p_val.add_argument("manifest")
    p_val.set_defaults(func=cmd_validate)

    p_rep = sub.add_parser("report", help="aggregate a completed output directory")
    p_rep.add_argument("directory")
    p_rep.set_defaults(func=cmd_report)

    p_gen = sub.add_parser("gen-data", help="generate a dataset file from a spec JSON")
    p_gen.add_argument("spec")
    p_gen.add_argument("out")
    p_gen.set_defaults(func=cmd_gen_data)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigParseError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (DataError, NoRunsFound) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 4
    except KdlabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
