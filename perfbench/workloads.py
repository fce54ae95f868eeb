"""The benchmark's three workloads: their explicit configs, set-up, one op,
and the output check every op must pass.

Every field that sets the amount of work is spelled out here, so a change
of kdlab's defaults cannot silently change a workload.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import hashlib
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

from kdlab import cli, data, trainer

# Run seeds with stored reference outputs; a workload seed picks
# RUN_SEEDS_PER_RUN of them, so every op is compared with a reference.
# Each is set up once per run, and setup_s is the median of those set-ups.
SEED_POOL = 12
RUN_SEEDS_PER_RUN = 6

DATASET = {
    "num_classes": 8, "image_dim": 32, "text_dim": 24, "samples_per_class": 250,
    "noise_sigma": 0.35, "anchor_scale": 1.0, "seed": 7,
}
TRAIN_FRACTION = 0.8
PRETRAIN = {"epochs": 30, "batch_size": 64, "lr": 1e-3, "tau": 4.0, "accuracy_gate": 0.95}
STUDENT = {"hidden_widths": [48, 48], "output_dim": 8, "activation": "relu", "dropout_p": 0.5}
TEACHERS = [
    {"hidden_widths": [w], "output_dim": 8, "activation": "relu", "dropout_p": 0.0}
    for w in (96, 80, 64)
]
TRAIN = {
    "epochs": 60, "batch_size": 64, "lr": 1e-4, "lr_schedule": {"kind": "fixed"},
    "tau_teacher": 4.0, "tau_student": 4.0, "tau_distill": 4.0,
    "loss_ratios": [1.0, 1.0, 1.0], "strategy": "dsw", "num_teachers": 2,
    "augmentation": {"kind": "none"}, "student": STUDENT,
    "text_bank_refresh": "epoch", "mse_mode": "weighted_target",
    "kl_weight_mode": "per_teacher",
}
MIXUP_LSR3 = {
    "strategy": "lsr", "num_teachers": 3,
    "augmentation": {"kind": "mixup", "beta": 0.4},
    "text_bank_refresh": "batch", "mse_mode": "per_teacher",
}
TINY = {"epochs": 2}  # the harness self-check's size, for both train and pretrain

# Reference comparison. base/avg/lsr must reproduce the stored bits; dsw
# may drift when a refactor reorders Frank-Wolfe's sums; 1e-12 bounds
# that drift. The stored bits hold only on the platform they were
# recorded on; run.py refuses to pass an op anywhere else.
STRATEGY_TOL = {"base": 0.0, "avg": 0.0, "lsr": 0.0, "dsw": 1e-12}
SIMPLEX_TOL = 1e-9
# metrics.csv columns whose bits the reference pins: every logged number
# except recall1, which always equals acc and may be dropped.
METRICS_CSV_CORE = (
    "epoch", "l_clip", "l_kl", "l_mse", "total", "acc", "recall5",
    "alpha_0", "alpha_1", "alpha_2", "alpha_3", "fw_iters", "lr",
)


def _train_config(train: dict, seed: int) -> trainer.TrainConfig:
    s = train["student"]
    return trainer.TrainConfig(
        epochs=train["epochs"],
        batch_size=train["batch_size"],
        lr=train["lr"],
        lr_schedule=trainer.LrSchedule(**train["lr_schedule"]),
        tau_teacher=train["tau_teacher"],
        tau_student=train["tau_student"],
        tau_distill=train["tau_distill"],
        loss_ratios=tuple(train["loss_ratios"]),
        strategy=train["strategy"],
        num_teachers=train["num_teachers"],
        augmentation=trainer.Augmentation(**train["augmentation"]),
        student=trainer.StudentConfig(
            tuple(s["hidden_widths"]), s["output_dim"], s["activation"], s["dropout_p"]
        ),
        seed=seed,
        text_bank_refresh=train["text_bank_refresh"],
        eval_bank="student",
        mse_mode=train["mse_mode"],
        kl_weight_mode=train["kl_weight_mode"],
        train_fraction=TRAIN_FRACTION,
    )


def _teacher_spec(t: dict) -> trainer.TeacherSpec:
    return trainer.TeacherSpec(
        tuple(t["hidden_widths"]), t["output_dim"], t["activation"], t["dropout_p"], None
    )


def batches_per_epoch(train: dict) -> int:
    """Student steps per epoch; the split is stratified and exact per class."""
    n_train = DATASET["num_classes"] * round(DATASET["samples_per_class"] * TRAIN_FRACTION)
    return math.ceil(n_train / train["batch_size"])


def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


class Checker:
    """Invariants every op must satisfy plus comparison with the stored
    reference for its run seed. Collects problems instead of raising."""

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.problems: list[str] = []

    def fail(self, why: str):
        self.problems.append(why)

    def run(self, where: str, strategy: str, losses, epoch_alphas, certified, summary):
        """One distillation run: per-epoch losses, per-epoch mean alphas,
        per-epoch certificate flags, and the summary compared with the
        reference (final accuracy, final total, mean alphas, and where the
        tolerance is 0 a digest of every epoch's logged metrics)."""
        if not np.all(np.isfinite(np.asarray(losses, dtype=np.float64))):
            self.fail(f"{where}: non-finite loss")
        for a in list(epoch_alphas) + [summary["mean_alphas"]]:
            a = np.asarray(a, dtype=np.float64)
            if a.size and (np.any(a < -SIMPLEX_TOL) or abs(a.sum() - 1.0) > SIMPLEX_TOL):
                self.fail(f"{where}: alphas {a.tolist()} off the simplex")
                break
        if strategy == "dsw" and not all(certified):
            self.fail(f"{where}: a dsw epoch is not pareto_certified")
        if self.reference is None:
            return
        ref = self.reference.get(where)
        if ref is None:
            self.fail(f"{where}: no stored reference")
            return
        tol = STRATEGY_TOL[strategy]
        if summary["final_accuracy"] != ref["final_accuracy"]:
            self.fail(f"{where}: final accuracy {summary['final_accuracy']} != {ref['final_accuracy']}")
        if tol == 0.0 and summary["epochs_digest"] != ref["epochs_digest"]:
            self.fail(f"{where}: per-epoch metrics differ from the reference bits")
        if abs(summary["final_total"] - ref["final_total"]) > tol * abs(ref["final_total"]):
            self.fail(f"{where}: final total {summary['final_total']!r} != {ref['final_total']!r}")
        got, want = np.asarray(summary["mean_alphas"]), np.asarray(ref["mean_alphas"])
        if got.shape != want.shape or np.any(np.abs(got - want) > tol):
            self.fail(f"{where}: mean alphas {got.tolist()} != {want.tolist()}")


@dataclasses.dataclass
class OpResult:
    steps: int            # student optimizer steps completed
    digest: str           # hash of every output the op produced
    summaries: dict       # reference key -> summary, for writing references
    problems: list[str]


class DistillWorkload:
    """One trainer.distill_student call against teachers pretrained in set-up."""

    def __init__(self, name: str, train: dict):
        self.name, self.train = name, train

    def setup(self, run_seed: int, tiny: bool, out_dir: Path):
        train = {**self.train, **TINY} if tiny else self.train
        pre = trainer.PretrainConfig(**{**PRETRAIN, **(TINY if tiny else {})})
        ds = data.generate(data.SyntheticSpec(**DATASET))
        tr, ev = trainer.dataset_split(ds, TRAIN_FRACTION)
        teachers = [
            trainer.pretrain_teacher(pre, ds, tr, ev, _teacher_spec(TEACHERS[j]), run_seed, j)
            for j in range(train["num_teachers"])
        ]
        return {
            "seed": run_seed, "config": _train_config(train, run_seed), "teachers": teachers,
            "dataset": ds, "train_idx": tr, "eval_idx": ev, "train": train,
        }

    def prepare(self, st):
        # Fresh copies for every op, so no op can reuse objects an earlier
        # op touched: kdlab must keep no state from one call to the next.
        st["args"] = copy.deepcopy(
            (st["config"], st["teachers"], st["dataset"], st["train_idx"], st["eval_idx"])
        )

    def op(self, st):
        return trainer.distill_student(*st["args"])

    def check(self, st, result, checker: Checker) -> OpResult:
        student, metrics = result
        epochs = metrics.epochs
        summary = {
            "final_accuracy": epochs[-1].accuracy,
            "final_total": epochs[-1].total,
            "mean_alphas": np.mean([r.alphas for r in epochs], axis=0).tolist(),
            "epochs_digest": _digest([
                (r.l_clip, r.l_kl, r.l_mse, r.total, r.accuracy, r.recall5,
                 r.alphas.tolist(), r.fw_iterations, r.lr)
                for r in epochs
            ]),
        }
        key = str(st["seed"])
        checker.run(
            key, st["config"].strategy,
            [(r.l_clip, r.l_kl, r.l_mse, r.total) for r in epochs],
            [r.alphas for r in epochs], [r.pareto_certified for r in epochs], summary,
        )
        records = [
            {k: v for k, v in dataclasses.asdict(r).items() if k != "wall_ms"} for r in epochs
        ]
        params = [
            a.tobytes() for p in (student.image_params, student.text_params)
            for a in p.weights + p.biases
        ]
        return OpResult(
            steps=len(epochs) * batches_per_epoch(st["train"]),
            digest=_digest(repr(records), *params),
            summaries={key: summary},
            problems=checker.problems,
        )


class SuiteWorkload:
    """One in-process ``kdlab run`` of a strategy-suite manifest for one seed."""

    name = "suite-strategy"
    grid = cli.STRATEGY_GRID

    def manifest(self, run_seed: int, tiny: bool) -> dict:
        return {
            "schema_version": 1,
            "suite": "strategy",
            "seeds": [run_seed],
            "dataset": {"spec": DATASET},
            "train": {**TRAIN, **(TINY if tiny else {})},
            "teachers": TEACHERS[:2],
            "pretrain": {**PRETRAIN, **(TINY if tiny else {})},
        }

    def setup(self, run_seed: int, tiny: bool, out_dir: Path):
        path = out_dir / f"suite-strategy-seed{run_seed}.json"
        raw = self.manifest(run_seed, tiny)
        path.write_text(json.dumps(raw, indent=1))
        cli.load_manifest(path)  # parse errors surface in set-up
        # No dataset here: the op generates its own (data.generate.calls).
        return {
            "seed": run_seed, "manifest": path, "out_dir": out_dir, "train": raw["train"],
            "run_dir": None,
        }

    def prepare(self, st):
        if st["run_dir"] is not None:  # left behind by an op that raised
            shutil.rmtree(st["run_dir"], ignore_errors=True)
        st["run_dir"] = Path(tempfile.mkdtemp(prefix="suite-", dir=st["out_dir"]))

    def op(self, st):
        return cli.main(["run", str(st["manifest"]), "--threads", "1", "--output-dir", str(st["run_dir"])])

    def check(self, st, rc, checker: Checker) -> OpResult:
        run_dir = st["run_dir"]
        try:
            if rc != 0:
                checker.fail(f"exit code {rc}")
                return OpResult(0, "", {}, checker.problems)
            summary_bytes = (run_dir / "summary.csv").read_bytes()
            rows = list(csv.DictReader(summary_bytes.decode().splitlines()))
            if [r["grid_point"] for r in rows] != list(self.grid) or any(
                int(r["n_seeds"]) != 1 for r in rows
            ):
                checker.fail("summary.csv does not hold the 4 grid points with n_seeds 1")
            steps, parts, summaries = 0, [summary_bytes], {}
            for strategy in self.grid:
                seed_dir = run_dir / "runs" / strategy / f"seed_{st['seed']}"
                csv_bytes = (seed_dir / "metrics.csv").read_bytes()
                info = json.loads((seed_dir / "run.json").read_text())
                epochs = list(csv.DictReader(csv_bytes.decode().splitlines()))
                alphas = [
                    [float(e[f"alpha_{j}"]) for j in range(st["train"]["num_teachers"])]
                    for e in epochs
                ]
                summary = {k: info[k] for k in ("final_accuracy", "final_total", "mean_alphas")}
                summary["epochs_digest"] = _digest(
                    [[e[c] for c in METRICS_CSV_CORE] for e in epochs]
                )
                key = f"{st['seed']}/{strategy}"
                checker.run(
                    key, strategy,
                    [[float(e[c]) for c in ("l_clip", "l_kl", "l_mse", "total")] for e in epochs],
                    alphas, [info["pareto_certified"]], summary,
                )
                steps += len(epochs) * batches_per_epoch(st["train"])
                parts.append(csv_bytes)
                summaries[key] = summary
            return OpResult(steps, _digest(*parts), summaries, checker.problems)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)


# Why each workload exists is recorded in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        DistillWorkload("distill-dsw", TRAIN),
        DistillWorkload("distill-mixup-lsr3", {**TRAIN, **MIXUP_LSR3}),
        SuiteWorkload(),
    )
}
