"""Command-line experiment runner.

Verbs:
  run <manifest>        execute all (grid point x seed) runs of a suite
  validate <manifest>   schema/invariant check plus resolved-config echo
  report <dir>          aggregate completed runs into a ranked table
  gen-data <spec> <out> materialize a synthetic dataset file

A manifest is a single JSON file with an explicit ``schema_version``, read
as the config dataclass ``config.Manifest``. Its schema is ``config``'s:
every config dataclass, default and check, the reader and the one writer
that echoes a ``Manifest`` back as JSON: ``validate`` prints it,
``manifest.json`` records it, and ``load_manifest`` reads it back to an
equal ``Manifest``.
The four ablation suites (loss_ratio, strategy, teacher_count,
student_size) expand into fixed grids over the base training config.

``run`` reads the manifest and the dataset once. It pretrains each teacher
the suite needs once per (run seed, roster index), the only inputs of a
teacher that differ within a suite, then runs every (grid point, seed)
against those frozen teachers. The runs of one seed whose configs differ
only in strategy and loss ratios form a group, which trains in lockstep
(``trainer.distill_students``), each run with the bits it gets alone: a
``strategy`` or ``loss_ratio`` suite makes one group per seed, and every
other suite one-run groups. ``--threads N`` maps both phases over worker
processes instead of a loop, one task per group; with fewer groups than
workers the largest groups are halved until every worker has one. A group
whose lockstep training raises is halved the same way, and each half trains
again, down to one-run groups: every run completes with the bits it gets
alone, or fails alone with its own error.

Each run writes ``metrics.csv`` (one row per epoch, deterministic
byte-for-byte for a given manifest and seed) and a ``run.json`` echo,
whose ``group`` lists the grid points of the lockstep call that completed
it and whose ``wall_seconds`` times that call. The suite writes
``summary.csv``, over the runs that completed in this call, and
``manifest.json`` with config echo, library version, wall-clock and the
failed runs. Every output file is written atomically
(``data._atomic_open``). A failed run (its teacher's pretraining or its
distillation) leaves ``error.json`` (type, message, traceback) in its
directory, in place of any ``metrics.csv`` and ``run.json`` an earlier
call left there; the others still complete, and the first failure in
grid order is raised after ``summary.csv``. Exit codes: 0 ok, 1 internal error (a run raised an
exception kdlab does not declare), 2 config error, 3 data error, 4 numeric
error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    MAX_TEACHERS, SCHEMA_VERSION, STRATEGIES, Manifest, StudentConfig, SyntheticSpec, TrainConfig,
    _build, _echo, _fail, _read_json, _split_problem,
)
from .data import PairedDataset, _atomic_open, generate, load_dataset, save_dataset
from .errors import (
    ChecksumMismatch,
    ConfigParseError,
    DataError,
    FormatVersionMismatch,
    InternalError,
    InvalidConfig,
    InvalidSpec,
    KdlabError,
    LabelOutOfRange,
    NoRunsFound,
    NonFiniteInput,
    NumericError,
)
from .trainer import (
    RunMetrics, Teacher, _group_key, dataset_split, distill_students, pretrain_teacher,
)
# perfbench's tracer binds run_single here too (EXPECTED_BINDINGS); no run calls it.
from .trainer import run_single  # noqa: F401

LOSS_RATIO_GRID = (
    ("0.5:1:1", (0.5, 1.0, 1.0)),
    ("1:0.5:1", (1.0, 0.5, 1.0)),
    ("1:1:0.5", (1.0, 1.0, 0.5)),
    ("1:1:1", (1.0, 1.0, 1.0)),
)
STRATEGY_GRID = STRATEGIES
TEACHER_COUNT_GRID = (1, 2, 3, 4)
STUDENT_SIZE_GRID = (
    ("2x48-d4", StudentConfig(hidden_widths=(48, 48), output_dim=4)),
    ("3x48-d4", StudentConfig(hidden_widths=(48, 48, 48), output_dim=4)),
    ("2x48-d8", StudentConfig(hidden_widths=(48, 48), output_dim=8)),
)

METRIC_COLUMNS = (
    "suite", "grid_point", "seed", "epoch",
    "l_clip", "l_kl", "l_mse", "total",
    "acc", "recall5",
    *(f"alpha_{k}" for k in range(MAX_TEACHERS)),
    "fw_iters", "lr",
)


def load_manifest(path) -> Manifest:
    return _build(Manifest, _read_json(path, "manifest"), "")


def expand_grid(manifest: Manifest) -> list[tuple[str, TrainConfig]]:
    """The suite's (grid label, config) rows. A row the trainer would
    reject, or one needing more teachers than the roster holds, fails
    naming the field."""
    base, replace = manifest.train, dataclasses.replace
    try:
        if manifest.suite == "single":
            grid = [("default", base)]
        elif manifest.suite == "loss_ratio":
            grid = [(label, replace(base, loss_ratios=r)) for label, r in LOSS_RATIO_GRID]
        elif manifest.suite == "strategy":
            grid = [(name, replace(base, strategy=name)) for name in STRATEGY_GRID]
        elif manifest.suite == "teacher_count":
            grid = [(f"K{k}", replace(base, num_teachers=k)) for k in TEACHER_COUNT_GRID]
        else:
            grid = [(label, replace(base, student=s)) for label, s in STUDENT_SIZE_GRID]
    except InvalidConfig as e:
        _fail(f"train.{e.field}", f"{e.why} (in the {manifest.suite} suite)")
    need = max(c.teachers_used for _, c in grid)
    if len(manifest.teachers) < need:
        _fail("teachers", f"suite needs {need} roster entries, got {len(manifest.teachers)}")
    return grid


def _resolve_dataset(manifest: Manifest) -> PairedDataset:
    path = manifest.dataset.path
    if path is None:
        return generate(manifest.dataset.spec)
    try:
        dataset = load_dataset(path)
    except (
        OSError, ChecksumMismatch, FormatVersionMismatch, InvalidSpec, NonFiniteInput,
        LabelOutOfRange,
    ) as e:
        raise DataError(f"dataset {path}: {e}") from e
    problem = _split_problem(dataset.spec, manifest.train)
    if problem:
        _fail("dataset.path", problem)
    return dataset


def _sanitize(label: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "-" for c in label)


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".10g")
    return str(x)


def write_metrics_csv(path, suite: str, grid: str, seed: int, metrics: RunMetrics) -> None:
    with _atomic_open(path) as f:
        writer = csv.writer(f)
        writer.writerow(METRIC_COLUMNS)
        for rec in metrics.epochs:
            alphas = list(rec.alphas) + [0.0] * (MAX_TEACHERS - len(rec.alphas))
            writer.writerow(
                [
                    suite, grid, seed, rec.epoch,
                    _fmt(rec.l_clip), _fmt(rec.l_kl), _fmt(rec.l_mse), _fmt(rec.total),
                    _fmt(rec.accuracy), _fmt(rec.recall5),
                    *map(_fmt, alphas),
                    _fmt(rec.fw_iterations), _fmt(rec.lr),
                ]
            )


def _pretrain(task: tuple) -> Teacher:
    """Roster entry ``j`` pretrained for run seed ``seed``; module-level so
    worker processes can call it."""
    manifest, dataset, seed, j = task
    train_idx, eval_idx = dataset_split(dataset, manifest.train.train_fraction)
    return pretrain_teacher(
        manifest.pretrain, dataset, train_idx, eval_idx, manifest.teachers[j], seed, j
    )


def _run_dir(out_dir, label: str, seed: int) -> Path:
    return Path(out_dir) / "runs" / _sanitize(label) / f"seed_{seed}"


def _write_run(
    manifest, label, seed, out_dir, metrics: RunMetrics, teacher_accuracies, wall_s, group
) -> dict:
    """Write a completed run's ``metrics.csv`` and ``run.json``, drop any
    ``error.json`` an earlier call left, and return the ``run.json`` dict."""
    run_dir = _run_dir(out_dir, label, seed)
    run_dir.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(run_dir / "metrics.csv", manifest.suite, label, seed, metrics)
    final = metrics.final
    run_info = {
        "suite": manifest.suite,
        "grid_point": label,
        "seed": seed,
        "group": list(group),
        "wall_seconds": wall_s,
        "final_accuracy": final.accuracy,
        "final_recall5": final.recall5,
        "final_total": final.total,
        "teacher_accuracies": teacher_accuracies,
        "mean_alphas": list(np.mean([r.alphas for r in metrics.epochs], axis=0))
        if metrics.num_teachers
        else [],
        "pareto_certified": all(r.pareto_certified for r in metrics.epochs),
        "fw_unconverged_batches": metrics.fw_unconverged,
    }
    with _atomic_open(run_dir / "run.json") as f:
        f.write(json.dumps(run_info, indent=2, sort_keys=True))
    (run_dir / "error.json").unlink(missing_ok=True)
    return run_info


def _record_failure(run_dir: Path, e: BaseException) -> BaseException:
    """Leave a failed run's record: ``error.json`` (type, message,
    traceback) in its directory, in place of any ``metrics.csv`` or
    ``run.json`` an earlier call left there. Returns ``e``."""
    import traceback  # here, not at module level: only a failed run formats one

    run_dir.mkdir(parents=True, exist_ok=True)
    for name in ("metrics.csv", "run.json"):
        (run_dir / name).unlink(missing_ok=True)
    record = {
        "type": type(e).__name__,
        "message": str(e),
        "traceback": "".join(traceback.format_exception(e)),
    }
    with _atomic_open(run_dir / "error.json") as f:
        f.write(json.dumps(record, indent=2, sort_keys=True))
    return e


def _execute_group(payload: tuple) -> list:
    """One group's runs: grid points of one seed whose configs differ only
    in strategy and loss ratios, trained in lockstep against the seed's
    teachers; module-level so worker processes can call it. A group whose
    training raises is halved (``_halves``) and each half runs the same
    way, so a run fails only alone, with its own error. Returns, per run in
    order, its ``run.json`` dict or the exception it failed with, already
    recorded in its directory."""
    manifest, labels, seed, out_dir, dataset, teachers = payload
    grid = dict(expand_grid(manifest))
    configs = [dataclasses.replace(grid[label], seed=seed) for label in labels]
    teachers = teachers[: max(c.teachers_used for c in configs)]
    split = dataset_split(dataset, configs[0].train_fraction)
    t0 = time.perf_counter()
    try:
        results = distill_students(configs, teachers, dataset, *split)
    except Exception as e:
        if len(labels) == 1:
            return [_record_failure(_run_dir(out_dir, labels[0], seed), e)]
        return [
            outcome
            for half in _halves(labels)
            for outcome in _execute_group((manifest, half, seed, out_dir, dataset, teachers))
        ]
    wall_s = time.perf_counter() - t0
    return [
        _write_run(
            manifest, label, seed, out_dir, metrics,
            [t.accuracy for t in teachers[: config.teachers_used]], wall_s, labels,
        )
        for label, config, (_, metrics) in zip(labels, configs, results)
    ]


def _halves(labels: list[str]) -> list[list[str]]:
    """A group's labels in two, the first half the larger."""
    half = (len(labels) + 1) // 2
    return [labels[:half], labels[half:]]


def _split_groups(groups: list[tuple[int, list[str]]], workers: int) -> list[tuple[int, list[str]]]:
    """(seed, grid labels) groups, the largest halved (the first of equal
    size first) until there are ``workers`` of them or none has two runs,
    so that every worker has a task."""
    groups = list(groups)
    while len(groups) < workers:
        i = max(range(len(groups)), key=lambda i: len(groups[i][1]), default=None)
        if i is None or len(groups[i][1]) < 2:
            break
        seed, labels = groups[i]
        groups[i : i + 1] = [(seed, half) for half in _halves(labels)]
    return groups


def _summarize(out_dir: Path, suite: str, grid_labels: list[str], infos: list[dict]) -> list[dict]:
    """Write ``summary.csv`` over the ``run.json`` dicts of the runs that
    completed in this call, one row per grid point with at least one."""
    rows = []
    for label in grid_labels:
        mine = [info for info in infos if info["grid_point"] == label]
        if not mine:
            continue
        acc = np.asarray([info["final_accuracy"] for info in mine])
        rows.append(
            {
                "suite": suite,
                "grid_point": label,
                "n_seeds": len(mine),
                "acc_mean": float(acc.mean()),
                "acc_std": float(acc.std(ddof=1)) if acc.size > 1 else 0.0,
                "recall5_mean": float(np.mean([info["final_recall5"] for info in mine])),
                "total_mean": float(np.mean([info["final_total"] for info in mine])),
            }
        )
    with _atomic_open(out_dir / "summary.csv") as f:
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


class _Done:
    """A task the serial mapper ran: its result, or the exception it raised,
    read as from a ``concurrent.futures.Future`` that is done."""

    def __init__(self, fn, args):
        self._result = self._error = None
        try:
            self._result = fn(*args)
        except Exception as e:
            self._error = e

    def result(self):
        if self._error is not None:
            raise self._error
        return self._result

    def exception(self):
        return self._error


class _InlineExecutor:
    """The serial mapper: runs each task when it is submitted, in the
    process pool's interface as ``cmd_run`` uses it."""

    def submit(self, fn, /, *args) -> _Done:
        return _Done(fn, args)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass


def cmd_run(args) -> int:
    if args.threads < 1:
        _fail("--threads", f"must be at least 1, got {args.threads}")
    if args.seed_override is not None and args.seed_override < 0:
        _fail("--seed-override", f"must be >= 0, got {args.seed_override}")
    manifest = load_manifest(args.manifest)
    grid = expand_grid(manifest)
    # A dataset that is rejected leaves no output directory behind.
    dataset = _resolve_dataset(manifest)
    out_dir = Path(args.output_dir or manifest.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise DataError(f"cannot create output directory {out_dir}: {e}") from e
    seeds = [args.seed_override] if args.seed_override is not None else manifest.seeds

    t0 = time.perf_counter()
    # See the module docstring for the two phases and the groups. A run
    # waits only for its own teachers, and fails with the error of one that
    # failed, outside any group.
    need = max(c.teachers_used for _, c in grid)
    if args.threads > 1:
        # Here, not at module level: it loads multiprocessing and logging, which only a pool needs.
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(args.threads)
    else:
        pool = _InlineExecutor()
    outcomes = {}  # (label, seed) -> run.json dict, or the exception the run failed with
    with pool:
        teachers = {
            (seed, j): pool.submit(_pretrain, (manifest, dataset, seed, j))
            for seed in seeds
            for j in range(need)
        }
        groups = {}  # (seed, shared config fields) -> labels
        for label, config in grid:
            for seed in seeds:
                failed = [teachers[seed, j].exception() for j in range(config.teachers_used)]
                failed = [e for e in failed if e is not None]
                if failed:
                    outcomes[label, seed] = _record_failure(
                        _run_dir(out_dir, label, seed), failed[0]
                    )
                else:
                    groups.setdefault((seed, _group_key(config)), []).append(label)
        configs = dict(grid)
        tasks = []
        for seed, labels in _split_groups(
            [(seed, labels) for (seed, _), labels in groups.items()], args.threads
        ):
            k = max(configs[label].teachers_used for label in labels)
            mine = [teachers[seed, j].result() for j in range(k)]
            task = pool.submit(
                _execute_group, (manifest, labels, seed, str(out_dir), dataset, mine)
            )
            tasks.append((seed, labels, task))
        for seed, labels, task in tasks:
            e = task.exception()
            for i, label in enumerate(labels):
                outcomes[label, seed] = (
                    task.result()[i] if e is None
                    else _record_failure(_run_dir(out_dir, label, seed), e)
                )

    runs = [(label, seed, outcomes[label, seed]) for label, _ in grid for seed in seeds]
    failures = [(label, seed, o) for label, seed, o in runs if isinstance(o, BaseException)]
    first_error = _run_error(failures[0][2], *failures[0][:2]) if failures else None
    infos = [o for _, _, o in runs if not isinstance(o, BaseException)]
    rows = _summarize(out_dir, manifest.suite, [label for label, _ in grid], infos)
    echo = {
        "schema_version": SCHEMA_VERSION,
        "library_version": __version__,
        "manifest": _echo(manifest),
        "seeds": seeds,
        "grid_points": [label for label, _ in grid],
        "wall_seconds": time.perf_counter() - t0,
        "failed_runs": [
            {"grid_point": label, "seed": seed, "error": type(e).__name__}
            for label, seed, e in failures
        ],
    }
    if manifest.suite == "loss_ratio" and rows:
        best = max(rows, key=lambda r: r["acc_mean"])["grid_point"]
        echo["loss_ratio_observation"] = {
            "expected_best": "1:1:1",
            "observed_best": best,
            "matches": best == "1:1:1",
        }
    with _atomic_open(out_dir / "manifest.json") as f:
        f.write(json.dumps(echo, indent=2, sort_keys=True))

    if first_error is not None:
        raise first_error
    return 0


def _run_error(e: Exception, label: str, seed: int) -> KdlabError:
    """The error ``cmd_run`` raises for a failed run: config, data and
    numeric errors as they are, any other kdlab error a NumericError naming
    the run, and an exception kdlab does not declare an InternalError naming
    the run and the exception's type."""
    if isinstance(e, (ConfigParseError, DataError, NumericError)):
        return e
    if isinstance(e, KdlabError):
        return NumericError(f"run {label}/seed_{seed}: {e}")
    return InternalError(f"run {label}/seed_{seed}: {type(e).__name__}: {e}")


def cmd_validate(args) -> int:
    manifest = load_manifest(args.manifest)
    if manifest.dataset.path is not None:
        _resolve_dataset(manifest)  # raises DataError if unreadable
    grid = expand_grid(manifest)
    resolved = {**_echo(manifest), "grid_points": [label for label, _ in grid]}
    print(json.dumps(resolved, indent=2, sort_keys=True))
    return 0


def cmd_report(args) -> int:
    out_dir = Path(args.directory)
    summary = out_dir / "summary.csv"
    if not summary.exists():
        raise NoRunsFound(f"no summary.csv under {out_dir}")
    rows = _read_csv(
        summary, ("suite", "grid_point", "n_seeds", "acc_mean", "acc_std", "recall5_mean")
    )
    if not rows:
        raise NoRunsFound(f"summary.csv under {out_dir} is empty")
    for r in rows:
        r["acc_mean"] = _csv_float(summary, r, "acc_mean")
        r["acc_std"] = _csv_float(summary, r, "acc_std")
    rows.sort(key=lambda r: -r["acc_mean"])

    # Seeds per row: a failed run leaves its grid point fewer.
    lines = [
        f"suite: {rows[0]['suite']}",
        f"{'rank':<5}{'grid_point':<16}{'seeds':>6}{'acc mean':>10}{'acc std':>10}{'recall@5':>10}",
    ]
    for rank, r in enumerate(rows, start=1):
        flag = "  *best*" if rank == 1 else ""
        lines.append(
            f"{rank:<5}{r['grid_point']:<16}{r['n_seeds']:>6}{r['acc_mean']:>10.4f}"
            f"{r['acc_std']:>10.4f}{_csv_float(summary, r, 'recall5_mean'):>10.4f}{flag}"
        )
    text = "\n".join(lines)
    print(text)
    with _atomic_open(out_dir / "report.txt") as f:
        f.write(text + "\n")

    # Long-format per-epoch CSV for external plotting.
    with _atomic_open(out_dir / "long.csv") as f:
        writer = csv.writer(f)
        writer.writerow(["grid_point", "seed", "epoch", "metric", "value"])
        long_metrics = ("l_clip", "l_kl", "l_mse", "total", "acc", "recall5")
        for metrics_csv in sorted(out_dir.glob("runs/*/seed_*/metrics.csv")):
            for row in _read_csv(metrics_csv, ("grid_point", "seed", "epoch") + long_metrics):
                for metric in long_metrics:
                    writer.writerow(
                        [row["grid_point"], row["seed"], row["epoch"], metric, row[metric]]
                    )
    return 0


def _read_csv(path: Path, columns: tuple[str, ...]) -> list[dict]:
    """The rows of a CSV that kdlab wrote, raising DataError naming the file
    when it cannot be read as UTF-8 text, a column it needs is missing or a
    row is cut short."""
    try:
        with open(path, newline="", encoding="utf-8") as f:
            reader = csv.DictReader(f)
            rows = list(reader)
            missing = [c for c in columns if c not in (reader.fieldnames or ())]
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise DataError(f"{path} is not UTF-8 text: {e}") from e
    if missing:
        raise DataError(f"{path} has no column {missing[0]!r}")
    for line, row in enumerate(rows, start=2):
        if None in row.values():
            raise DataError(f"{path} line {line} has fewer fields than its header")
    return rows


def _csv_float(path: Path, row: dict, column: str) -> float:
    try:
        return float(row[column])
    except ValueError:
        raise DataError(f"{path} column {column!r} holds {row[column]!r}, not a number") from None


def cmd_gen_data(args) -> int:
    spec = _build(SyntheticSpec, _read_json(args.spec, "spec"), "spec")
    # Every run splits at the default fraction; a spec it cannot split
    # would make a file no run accepts.
    problem = _split_problem(spec, TrainConfig())
    if problem:
        _fail("spec.samples_per_class", problem)
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
    except InternalError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 1
    except KdlabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
