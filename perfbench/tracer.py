"""Span tracer that instruments kdlab from outside, without editing it.

Every public function of every kdlab module is replaced, at every module
attribute that binds it (``kdlab.trainer.encode`` and ``kdlab.data.encode``
as well as ``kdlab.encoder.encode``), by a wrapper that records a span:
name, start, end, parent span and op id. ``numerics`` functions are called
tens of thousands of times per op, so they are only counted, not spanned.
Spans stay in memory until the run ends; self time is a span's duration
minus the durations of its direct children (one thread, so children never
overlap).

A few wrappers also look at arguments or results to measure waste:
distinct teacher-pretraining keys, distinct (params, input row) pairs
encoded in eval mode, Frank-Wolfe iterations, certificate passes and
degenerate LSR batches. That bookkeeping is timed as a ``trace.probe``
span, a child of the caller's span, so it counts in no kdlab function's
self time and in no layer metric.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

PROBE = "trace.probe"
MODULES = ("numerics", "encoder", "contrastive", "distill", "weighting", "data", "trainer", "cli")
COUNTED_ONLY = ("numerics",)

# Binding sites the trace depends on, as kdlab has them today: every kdlab
# module that holds each function under its own name. The guard checks each
# before tracing so that a moved or deleted function reads as missing, never
# as zero calls.
EXPECTED_BINDINGS = {
    "trainer.pretrain_teacher": ("trainer",),
    "trainer.distill_student": ("trainer",),
    "trainer.evaluate": ("trainer",),
    "trainer.augment": ("trainer",),
    "trainer.run_single": ("trainer", "cli"),
    "encoder.encode": ("encoder", "trainer", "data"),
    "encoder.vjp": ("encoder", "trainer"),
    "encoder.adam_step": ("encoder", "trainer"),
    "contrastive.clip_loss": ("contrastive", "trainer"),
    "distill.TeacherOutputs.from_features": ("distill",),
    "distill.kl_pair_loss": ("distill",),
    "distill.mse_align": ("distill",),
    "distill.total_loss": ("distill",),
    "weighting.frank_wolfe_min_norm": ("weighting",),
    "weighting.certify_pareto_stationarity": ("weighting",),
    "weighting.teacher_label_similarity": ("weighting",),
    "weighting.lsr_weights": ("weighting",),
    "numerics.as_matrix": ("numerics", "encoder", "contrastive", "distill", "weighting"),
    "numerics.as_vector": ("numerics", "weighting"),
    "numerics.pairwise_logits": ("numerics", "contrastive", "distill"),
    "numerics.softmax_rows": ("numerics", "contrastive", "distill"),
    "numerics.log_softmax_rows": ("numerics", "contrastive", "distill"),
    "data.generate": ("data", "cli"),
    "data.build_class_bank": ("data", "trainer"),
    "cli.main": ("cli",),
    "cli.load_manifest": ("cli",),
    "cli.write_metrics_csv": ("cli",),
}

# Per-column odd multipliers for the row hash (inputs are at most 112 wide).
_ROW_MULT = np.random.Generator(np.random.PCG64(20250901)).integers(
    1, 2**63, size=4096, dtype=np.uint64
) | np.uint64(1)


def _module(name: str):
    return importlib.import_module(f"kdlab.{name}")


def discover() -> dict[str, object]:
    """Public functions and classmethods defined in each kdlab module, by
    qualified name (``module.func`` or ``module.Class.method``)."""
    found: dict[str, object] = {}
    for mod_name in MODULES:
        mod = _module(mod_name)
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                found[f"{mod_name}.{attr}"] = obj
            elif inspect.isclass(obj):
                for meth, desc in vars(obj).items():
                    if not meth.startswith("_") and isinstance(desc, classmethod):
                        found[f"{mod_name}.{attr}.{meth}"] = desc.__func__
    return found


def check_bindings(found: dict[str, object]) -> list[str]:
    """Names from EXPECTED_BINDINGS that no longer exist where expected."""
    missing = []
    for qual, sites in EXPECTED_BINDINGS.items():
        fn = found.get(qual)
        if fn is None:
            missing.append(qual)
            continue
        if qual.count(".") == 2:
            continue  # a classmethod is bound once, on its class
        attr = qual.split(".")[1]
        for site in sites:
            if getattr(_module(site), attr, None) is not fn:
                missing.append(f"{site}.{attr} -> {qual}")
    return missing


def _row_hashes(x) -> np.ndarray:
    """Exact per-row hash of a float64 matrix: a wrapping uint64 sum of the
    row's bit patterns times fixed odd multipliers."""
    bits = np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)
    with np.errstate(over="ignore"):
        return (bits * _ROW_MULT[: bits.shape[1]]).sum(axis=1, dtype=np.uint64)


class Tracer:
    """Installs wrappers, records spans and counts, and turns them into
    per-op layer metrics."""

    def __init__(self, span_numerics: bool = False):
        self.span_numerics = span_numerics
        self.found = discover()
        self.missing = check_bindings(self.found)
        self.spans: list[tuple] = []    # (op, span id, parent id, name, start, end)
        self._stack = [0]
        self._next_id = 1
        self.op = 0
        self._patches: list[tuple] = []  # (owner, attr, original)
        self._op_extra: dict[int, tuple] = {}  # op -> (counts, waste probes)
        self._reset_op_state()

    # -- per-op state -------------------------------------------------------
    def _reset_op_state(self):
        self.counts: Counter = Counter()
        self.pretrain_keys: set = set()
        self.eval_rows: list[np.ndarray] = []
        self.param_keys: dict[int, tuple] = {}   # id -> (params ref, key)
        self.param_digests: dict[bytes, int] = {}
        self.fw_iterations = 0
        self.cert_passed = 0
        self.lsr_degenerate = 0

    # -- installation -------------------------------------------------------
    def install(self):
        wrappers = {}
        for qual, fn in self.found.items():
            counted = qual.split(".")[0] in COUNTED_ONLY and not self.span_numerics
            wrappers[id(fn)] = (
                self._count_wrapper(fn, qual) if counted else self._span_wrapper(fn, qual)
            )
        for mod_name in MODULES:
            mod = _module(mod_name)
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, desc in list(vars(obj).items()):
                        if isinstance(desc, classmethod) and id(desc.__func__) in wrappers:
                            self._patch(obj, meth, classmethod(wrappers[id(desc.__func__)]))

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- wrappers -----------------------------------------------------------
    def _count_wrapper(self, fn, qual):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[qual] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span_wrapper(self, fn, qual):
        post = {
            "trainer.pretrain_teacher": self._after_pretrain,
            "encoder.encode": self._after_encode,
            "weighting.frank_wolfe_min_norm": self._after_frank_wolfe,
            "weighting.certify_pareto_stationarity": self._after_certificate,
            "weighting.lsr_weights": self._after_lsr,
        }.get(qual)
        is_encode = qual == "encoder.encode"
        sig = inspect.signature(fn) if post is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = qual
            if is_encode:
                train = kwargs.get("train_mode", args[2] if len(args) > 2 else False)
                name = "encoder.encode.train" if train else "encoder.encode.eval"
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append((self.op, sid, parent, name, start, end))
            if post is not None:
                t0 = perf_counter()
                post(sig, name, args, kwargs, result)
                self.spans.append((self.op, self._next_id, parent, PROBE, t0, perf_counter()))
                self._next_id += 1
            return result

        return wrapper

    # -- waste probes -------------------------------------------------------
    def _after_pretrain(self, sig, name, args, kwargs, result):
        a = sig.bind(*args, **kwargs).arguments
        self.pretrain_keys.add(
            (a["dataset"].spec, a["cfg"], a["spec"], int(a["seed"]), int(a["teacher_index"]))
        )

    def _after_encode(self, sig, name, args, kwargs, result):
        if name == "encoder.encode.train":
            return
        params = args[0] if args else kwargs["params"]
        x = args[1] if len(args) > 1 else kwargs["x"]
        entry = self.param_keys.get(id(params))
        if entry is None:
            h = hashlib.blake2b(repr(params.config).encode(), digest_size=16)
            for arr in list(params.weights) + list(params.biases):
                h.update(np.ascontiguousarray(arr).tobytes())
            key = self.param_digests.setdefault(h.digest(), len(self.param_digests))
            entry = self.param_keys[id(params)] = (params, key)
        rows = _row_hashes(x)
        with np.errstate(over="ignore"):
            self.eval_rows.append(rows ^ (np.uint64(entry[1]) * np.uint64(0x9E3779B97F4A7C15)))

    def _after_frank_wolfe(self, sig, name, args, kwargs, result):
        self.fw_iterations += int(result.iterations)

    def _after_certificate(self, sig, name, args, kwargs, result):
        self.cert_passed += bool(result.passed)

    def _after_lsr(self, sig, name, args, kwargs, result):
        self.lsr_degenerate += bool(result.degenerate)

    # -- ops ----------------------------------------------------------------
    def run_op(self, fn):
        """Run ``fn()`` as one traced op under a root span named ``op``."""
        self.op += 1
        self._reset_op_state()
        try:
            return self._span_wrapper(fn, "op")()
        finally:
            self._close_op()

    def _close_op(self):
        """Fold the op's counts and waste probes into plain numbers, so the
        large per-call state does not outlive the op."""
        rows = np.concatenate(self.eval_rows) if self.eval_rows else np.zeros(0, np.uint64)
        self._op_extra[self.op] = (
            Counter(self.counts),
            {
                "trainer.pretrain_teacher.distinct_ratio": (
                    len(self.pretrain_keys), "trainer.pretrain_teacher"
                ),
                "encoder.encode.eval.distinct_rows_ratio": (
                    np.unique(rows).size, rows.size
                ),
                "weighting.frank_wolfe_min_norm.iterations": (
                    self.fw_iterations, "weighting.frank_wolfe_min_norm"
                ),
                "weighting.certify_pareto_stationarity.pass_ratio": (
                    self.cert_passed, "weighting.certify_pareto_stationarity"
                ),
                "weighting.lsr_weights.degenerate_ratio": (
                    self.lsr_degenerate, "weighting.lsr_weights"
                ),
            },
        )
        self._reset_op_state()

    def op_metrics(self) -> dict[int, dict[str, float]]:
        """Per-op layer metrics, computed from the recorded spans."""
        per_op = defaultdict(list)
        for s in self.spans:
            per_op[s[0]].append(s)
        return {op: self._metrics(per_op[op], *self._op_extra[op]) for op in self._op_extra}

    @staticmethod
    def _metrics(spans, counts, probes) -> dict[str, float]:
        by_id = {s[1]: s for s in spans}
        child_s = defaultdict(float)
        for s in spans:
            child_s[s[2]] += s[5] - s[4]
        calls, total, self_s = Counter(), defaultdict(float), defaultdict(float)
        layer_calls, layer_total, layer_self = Counter(), defaultdict(float), defaultdict(float)
        for _, sid, parent, name, start, end in spans:
            if name in ("op", PROBE):
                continue
            dur = end - start
            own = dur - child_s[sid]
            layer = name.split(".")[0]
            calls[name] += 1
            total[name] += dur
            self_s[name] += own
            layer_calls[layer] += 1
            layer_self[layer] += own
            # Inclusive layer time counts only the outermost span of a layer.
            p = by_id.get(parent)
            while p is not None and p[3].split(".")[0] != layer:
                p = by_id.get(p[2])
            if p is None:
                layer_total[layer] += dur
        for qual, n in counts.items():
            calls[qual] += n
            layer_calls[qual.split(".")[0]] += n

        m: dict[str, float] = {}
        for name in calls:
            m[f"{name}.calls"] = calls[name]
            if name in total:
                m[f"{name}.total_s"] = total[name]
                m[f"{name}.self_s"] = self_s[name]
        for layer in MODULES:
            m[f"layer.{layer}.calls"] = layer_calls[layer]
            m[f"layer.{layer}.total_s"] = layer_total[layer]
            m[f"layer.{layer}.self_s"] = layer_self[layer]
        for metric, (num, den) in probes.items():
            den = calls[den] if isinstance(den, str) else den
            m[metric] = num / den if den else 0.0
        return m

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            f.write("op,span,parent,name,start_s,end_s\n")
            for op, sid, parent, name, start, end in self.spans:
                f.write(f"{op},{sid},{parent},{name},{start!r},{end!r}\n")
