"""kdlab benchmark: closed-loop distillation workloads, timed untraced, and a
separate traced run that reports per-layer counts and times.

    python3 perfbench/run.py --workload distill-dsw --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

One client runs ops back to back in this process until ``--seconds`` have
passed (the op in flight finishes). ``--trace 1`` runs pairs of a traced and
an untraced op on the same run seed and reports the traced ops' layer
metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_MIN_S = 1.0

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "student_steps_per_s": "1/s",
    "op_cpu_s_p50": "s",
    "peak_rss_mb": "MB",
}

_SPANNED = (
    "trainer.pretrain_teacher", "trainer.distill_student", "trainer.evaluate",
    "trainer.augment", "encoder.encode.train", "encoder.encode.eval",
    "encoder.vjp", "encoder.adam_step", "contrastive.clip_loss",
    "distill.TeacherOutputs.from_features", "distill.kl_pair_loss",
    "distill.mse_align", "weighting.frank_wolfe_min_norm",
    "weighting.certify_pareto_stationarity", "weighting.teacher_label_similarity",
    "data.generate", "data.build_class_bank", "cli.load_manifest",
    "cli.write_metrics_csv",
)
_COUNTED = ("as_matrix", "as_vector", "pairwise_logits", "softmax_rows", "log_softmax_rows")
_LAYERS = ("encoder", "contrastive", "distill", "weighting", "data", "trainer", "cli")

PER_LAYER = {
    **{f"{n}.{k}": u for n in _SPANNED for k, u in (("calls", "count"), ("total_s", "s"), ("self_s", "s"))},
    **{f"numerics.{n}.calls": "count" for n in _COUNTED},
    "layer.numerics.calls": "count",
    **{f"layer.{m}.{k}": u for m in _LAYERS for k, u in (("calls", "count"), ("total_s", "s"), ("self_s", "s"))},
    "trainer.pretrain_teacher.distinct_ratio": "ratio",
    "encoder.encode.eval.distinct_rows_ratio": "ratio",
    "weighting.frank_wolfe_min_norm.iterations": "iter/call",
    "weighting.certify_pareto_stationarity.pass_ratio": "ratio",
    "weighting.lsr_weights.degenerate_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def import_kdlab():
    """Import kdlab from this checkout's ``src``, or exit 2 without a result."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import kdlab
    except ImportError as e:
        print(f"perfbench: cannot import kdlab from {ROOT / 'src'}: {e}", file=sys.stderr)
        sys.exit(2)
    if not Path(kdlab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: kdlab imported from {kdlab.__file__}, not this checkout", file=sys.stderr)
        sys.exit(2)
    return kdlab


def platform_key() -> dict:
    """What decides the floating-point bits of a run: numpy, its BLAS build,
    the C library, and the bits of the arithmetic itself on this CPU."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} {blas.get('openblas configuration', '')}".strip(),
        "libc": " ".join(platform.libc_ver()),
        "arithmetic": arithmetic_digest(),
    }


def arithmetic_digest() -> str:
    """Digest of the numpy and BLAS operations kdlab's runs are made of, at
    the shapes they use: forward and backward matmuls, elementwise
    functions, reductions, scatter-adds and random draws. It changes when
    the CPU makes numpy or BLAS choose kernels that round differently."""
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(20250901))
    h = hashlib.blake2b(digest_size=16)
    for m, k, n in ((64, 32, 96), (64, 96, 8), (64, 24, 80), (64, 80, 8), (64, 48, 48),
                    (64, 8, 8), (8, 24, 64), (400, 32, 96), (2000, 32, 96)):
        a, b, g = rng.standard_normal((m, k)), rng.standard_normal((k, n)), rng.standard_normal((m, n))
        # Backward products reduce over the batch, at most 64 rows in kdlab;
        # reductions over hundreds of rows split across BLAS threads.
        for out in (a @ b, a.T @ g, g @ b.T) if m <= 64 else (a @ b,):
            h.update(out.tobytes())
    x = 4.0 * rng.standard_normal((64, 96))
    acc = np.zeros((8, 96))
    np.add.at(acc, rng.integers(0, 8, 64), x)
    for out in (
        np.exp(x), np.log(np.abs(x) + 1e-3), np.tanh(x), np.sqrt(np.abs(x)), np.cos(x),
        x.sum(axis=0), x.sum(axis=1), x.mean(), np.linalg.norm(x, axis=1),
        np.einsum("ij,ij->i", x, x), acc, rng.beta(0.4, 0.4, 64), rng.permutation(2000),
    ):
        h.update(np.asarray(out).tobytes())
    return h.hexdigest()


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            k, _, v = line.partition(":")
            if k.strip() == "model name":
                return v.strip()
    except OSError:
        pass
    return None


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def environment() -> dict:
    sha, dirty = None, None
    try:
        top_sha = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.split()
        # A checkout without .git may sit inside another repository.
        if len(top_sha) == 2 and Path(top_sha[0]).resolve() == ROOT:
            sha = top_sha[1]
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True, timeout=10,
            ).stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "platform": platform_key(),
        "cpu": _cpu_model(),
        "threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": _loadavg(),
    }


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    import workloads
    from tracer import Tracer

    wl = workloads.WORKLOADS[name]
    env = environment()
    reference, off_platform = None, False
    if not tiny:
        stored = json.loads((HERE / "reference.json").read_text())
        off_platform = stored["platform"] != env["platform"]
        if off_platform:
            # The stored bits cannot be reproduced here, and no tolerance is
            # known to separate platform rounding from a changed result.
            print("OFF-PLATFORM: reference.json was recorded on "
                  f"{json.dumps(stored['platform'], sort_keys=True)}, this host is "
                  f"{json.dumps(env['platform'], sort_keys=True)}. Every op fails until "
                  "perfbench/make_reference.py is rerun at the parent commit on this host.")
        else:
            reference = stored["workloads"][name]
    OUT.mkdir(exist_ok=True)

    run_seeds = random.Random(seed).sample(range(workloads.SEED_POOL), workloads.RUN_SEEDS_PER_RUN)
    # Set up every run seed once, then again in turn until set-up has taken
    # SETUP_MIN_S, so that a set-up of a millisecond is timed over many.
    setups, by_seed = [], {}
    while len(setups) < len(run_seeds) or sum(setups) < SETUP_MIN_S:
        s = run_seeds[len(setups) % len(run_seeds)]
        t0 = time.perf_counter()
        st = wl.setup(s, tiny, OUT)
        setups.append(time.perf_counter() - t0)
        by_seed.setdefault(s, st)
    states = list(by_seed.values())

    tracer = None
    if trace:
        tracer = Tracer()
        for m in tracer.missing:
            print(f"MISSING binding {m}")
    ops = []
    t_start = time.perf_counter()
    while True:
        i = len(ops)
        if trace:
            # Pairs of a traced and an untraced op on one state. The first two
            # pairs share a state, so a traced op always repeats a run seed:
            # its call counts show whether kdlab kept state across calls.
            traced = i % 2 == 0
            st = states[max(i // 2 - 1, 0) % len(states)]
        else:
            traced = False
            st = states[i % len(states)]
        wl.prepare(st)
        rec = {"seed": st["seed"], "traced": traced}
        cpu0, t0 = _cpu_s(), time.perf_counter()
        try:
            if traced:
                rec["trace_op"] = tracer.op + 1
                with tracer:
                    result = tracer.run_op(lambda: wl.op(st))
            else:
                result = wl.op(st)
            rec["wall_s"] = time.perf_counter() - t0
            rec["cpu_s"] = _cpu_s() - cpu0
            out = wl.check(st, result, workloads.Checker(reference))
            rec.update(steps=out.steps, digest=out.digest, problems=out.problems)
        except Exception as e:  # an op that raises is a failed op, not a crash
            rec.update(steps=0, digest=None, problems=[f"{type(e).__name__}: {e}"])
        if off_platform:
            rec["problems"].append("off-platform: no reference outputs for this host")
        if trace and not traced and ops[-1]["digest"] != rec["digest"]:
            rec["problems"].append("untraced output differs from traced output")
        ops.append(rec)
        if time.perf_counter() - t_start >= seconds and (not trace or len(ops) >= 4 and i % 2):
            break

    if trace:
        tracer.write_spans(OUT / f"spans-{name}.csv")
        by_op = tracer.op_metrics()
        first_calls = {}
        for r in ops:
            if r["traced"] and not r["problems"]:
                calls = {k: v for k, v in by_op[r["trace_op"]].items() if k.endswith(".calls")}
                if calls != first_calls.setdefault(r["seed"], calls):
                    r["problems"].append(
                        "call counts differ from the first traced op on this run seed: "
                        "kdlab kept state from an earlier call"
                    )
    failed = sum(1 for r in ops if r["problems"])
    timed = [r for r in ops if "wall_s" in r and not r["traced"]]
    result = {"attempted": len(ops), "failed": failed, "correct": failed == 0}
    if trace:
        per_op = list(by_op.values())
        overhead = [
            t["wall_s"] / u["wall_s"] - 1.0
            for t, u in zip(ops[0::2], ops[1::2])
            if "wall_s" in u and "wall_s" in t
        ]
        values = {
            k: statistics.median(m.get(k, 0) for m in per_op)
            for k in PER_LAYER if k != "trace.overhead_ratio"
        }
        if overhead:
            values["trace.overhead_ratio"] = statistics.median(overhead)
        missing_fns = {m for m in tracer.missing if " -> " not in m}
        metrics = {
            k: v for k, v in values.items()
            if not any(k.startswith(f + ".") for f in missing_fns)
        }
        result["metrics"] = {k: {"value": float(v), "unit": PER_LAYER[k]} for k, v in metrics.items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if timed:  # else every op raised; the result says so and has no op times
            walls = [r["wall_s"] for r in timed]
            values.update(
                op_p50_s=statistics.median(walls),
                student_steps_per_s=sum(r["steps"] for r in timed) / sum(walls),
                op_cpu_s_p50=statistics.median(r["cpu_s"] for r in timed),
            )
        result["metrics"] = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items() if k in values}
    env["loadavg_end"] = _loadavg()
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "tiny": tiny,
        "off_platform": off_platform,
        "run_seeds": run_seeds, "setup_s": setups, "env": env, "ops": ops, **result,
    }
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return record


def report(record: dict) -> None:
    name = record["workload"]
    print("env " + json.dumps(record["env"], sort_keys=True))
    for r in record["ops"]:
        if r["problems"]:
            print(f"FAILED op seed={r['seed']} traced={r['traced']}: {'; '.join(r['problems'])}")
    walls = sorted(r["wall_s"] for r in record["ops"] if "wall_s" in r and not r["traced"])
    for k, m in record["metrics"].items():
        extra = ""
        if k == "op_p50_s":
            n = len(walls)
            extra = f"  (n={n}" + (
                f", p{int(100 * (n - 10) / n)}={walls[n - 11]:.4f} s" if n >= 11 else ""
            ) + ")"
        print(f"{name} {k} = {m['value']:.6g} {m['unit']}{extra}")
    print(f"{name} failed_ops_ratio = {record['failed'] / record['attempted']:.6g} ratio"
          f"  ({record['failed']} of {record['attempted']})")


def run_all(args) -> int:
    """Each workload in a fresh process of its own, then one table."""
    import workloads

    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
            + (["--tiny"] if args.tiny else []),
            capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}/{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="2-epoch configs, no reference check (self-check)")
    args = p.parse_args(argv)

    import_kdlab()
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        p.error(f"--workload must be one of {sorted(workloads.WORKLOADS)} or all")
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    report(record)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
