"""Self-time profile of one distill-dsw op on run seed 0, with the numerics
primitives spanned too.

    python3 perfbench/profile.py

The benchmark's traced run only counts numerics calls, to keep its overhead
low; this one-off profile spans them as well, so ``as_matrix`` gets a time
of its own. It prints each function's self time as a share of the traced
op, then the inclusive time of the groups the project's roadmap
estimated from a cProfile run.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import run

WORKLOAD = "distill-dsw"
SEED = 0


def main() -> int:
    run.import_kdlab()
    import workloads
    from tracer import Tracer

    wl = workloads.WORKLOADS[WORKLOAD]
    run.OUT.mkdir(exist_ok=True)
    st = wl.setup(SEED, False, run.OUT)
    wl.prepare(st)
    t0 = time.perf_counter()
    wl.check(st, wl.op(st), workloads.Checker(None))
    untraced = time.perf_counter() - t0

    tracer = Tracer(span_numerics=True)
    wl.prepare(st)
    with tracer:
        result = tracer.run_op(lambda: wl.op(st))
    wl.check(st, result, workloads.Checker(None))

    spans = tracer.spans
    names = {s[1]: s[3] for s in spans}
    op_s = next(s[5] - s[4] for s in spans if s[3] == "op")
    metrics = tracer.op_metrics()[tracer.op]
    own = {k[: -len(".self_s")]: v for k, v in metrics.items()
           if k.endswith(".self_s") and not k.startswith("layer.") and v}
    groups = defaultdict(float)
    for _, sid, parent, name, start, end in spans:
        # The roadmap's cProfile groups, inclusive like cProfile's cumulative time.
        if name == "numerics.as_matrix":
            groups["as_matrix validation"] += end - start
        elif name == "encoder.vjp":
            groups["vjp"] += end - start
        elif name == "distill.TeacherOutputs.from_features" or (
            name == "encoder.encode.eval" and names.get(parent) == "trainer.distill_student"
        ):
            groups["teacher forward + distributions"] += end - start
        elif name in ("weighting.teacher_label_similarity", "weighting.lsr_weights"):
            groups["LSR similarity"] += end - start

    print(f"{WORKLOAD} seed {SEED}: untraced op {untraced:.3f} s, "
          f"traced op {op_s:.3f} s (overhead {op_s / untraced - 1:+.1%})")
    print(f"{'function':<48}{'calls':>9}{'self s':>9}{'share':>8}")
    for name in sorted(own, key=own.get, reverse=True):
        calls = int(metrics[f"{name}.calls"])
        print(f"{name:<48}{calls:>9}{own[name]:>9.3f}{own[name] / op_s:>8.1%}")
    probe_s = sum(s[5] - s[4] for s in spans if s[3] == "trace.probe")
    print(f"{'trace.probe (harness bookkeeping)':<48}{'':>9}{probe_s:>9.3f}{probe_s / op_s:>8.1%}")
    print("groups (inclusive; as_matrix time also sits inside the other groups):")
    for g, t in groups.items():
        print(f"  {g:<34}{t:>8.3f} s {t / op_s:>7.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
