"""Acceptance suite: one test per criterion, each printing a pass line.

Benchmark-scale accuracy numbers are meaningless on synthetic desk-scale
data, so acceptance is property-based (solver exactness, gradient
fidelity, distribution invariants, determinism) plus statistical checks
of the qualitative training claims at the default configuration.
"""

import csv
import dataclasses
import json
import time
from pathlib import Path

import numpy as np
import pytest

from kdlab import cli, config, contrastive as ct, data, distill, trainer, weighting as wt
from kdlab.encoder import EncoderConfig, encode, init_params, vjp
from kdlab.errors import ChecksumMismatch, FormatVersionMismatch
from kdlab.numerics import seeded_rng, softmax_rows
from oracles import (
    brute_force_min_norm,
    central_diff_grad,
    ce_grad_wrt_logits,
    check_prob_matrix,
    fraction_within,
    kl_divergence,
    min_norm_2,
)


def _report(num, elapsed, desc):
    print(f"ACCEPTANCE {num:>2} PASS ({elapsed:.1f}s): {desc}")


@pytest.fixture(scope="module")
def default_world():
    ds = data.generate(data.SyntheticSpec())
    train_idx, eval_idx = trainer.dataset_split(ds)
    return ds, train_idx, eval_idx


def unit_rows(rng, n, d):
    m = rng.normal(size=(n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def test_01_min_norm_two_teachers_exact():
    rng = seeded_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 51))
        g = rng.normal(size=(2, dim))
        res = wt.frank_wolfe_min_norm(g)
        _, d = min_norm_2(g[0], g[1])
        fw_obj = 0.5 * float(res.direction @ res.direction)
        worst = max(worst, abs(fw_obj - 0.5 * float(d @ d)))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 1.0
    _report(1, elapsed, f"K=2 Frank-Wolfe matches closed form, worst diff {worst:.2e}")


def test_02_min_norm_vs_brute_force():
    rng = seeded_rng(102)
    t0 = time.perf_counter()
    worst = 0.0
    for k in (3, 4):
        for _ in range(25):
            dim = int(rng.integers(4, 11))
            g = rng.normal(size=(k, dim)) / np.sqrt(dim)
            res = wt.frank_wolfe_min_norm(g, max_iter=20000, tol=1e-12)
            _, obj = brute_force_min_norm(g, 0.01)
            fw_obj = 0.5 * float(res.direction @ res.direction)
            worst = max(worst, abs(obj - fw_obj))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-3
    assert elapsed < 30.0
    _report(2, elapsed, f"K=3/4 objective within 1e-3 of grid oracle, worst {worst:.2e}")


def test_03_pareto_common_descent_certificate():
    rng = seeded_rng(103)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(200):
        k = int(rng.integers(1, 6))
        g = rng.normal(size=(k, 20))
        res = wt.frank_wolfe_min_norm(g)
        d = res.direction
        norm_sq = float(d @ d)
        if res.converged and np.sqrt(norm_sq) > 1e-8:
            checked += 1
            assert np.all(g @ d >= norm_sq - 1e-6)
    elapsed = time.perf_counter() - t0
    assert checked >= 50  # the property must actually be exercised
    _report(3, elapsed, f"stationarity certificate held on {checked} converged solves")


def test_04_gradient_fidelity():
    rng = seeded_rng(104)
    t0 = time.perf_counter()
    fractions = {"encoder": [], "clip": [], "kl": [], "mse": []}

    for i in range(20):
        # encoder backward vs finite differences on all parameters
        activation = "relu" if i % 2 == 0 else "tanh"
        cfg = EncoderConfig(4, (6, 5), 4, activation, 0.0)
        params = init_params(cfg, seeded_rng(104, i))
        for b in params.biases:
            b += 0.1  # keep relu rows alive at init (zero biases can dead-end)
        x = rng.normal(size=(3, 4))
        probe = rng.normal(size=(3, 4))
        _, tape = encode(params, x)
        grads, _ = vjp(tape, probe)

        def enc_loss(_params=params, _x=x, _probe=probe):
            feats, _ = encode(_params, _x)
            return float(np.sum(feats * _probe))

        analytic, numeric = [], []
        for li in range(len(params.weights)):
            for attr in ("weights", "biases"):
                arr = getattr(params, attr)[li]

                def f(a, _li=li, _attr=attr):
                    saved = getattr(params, _attr)[_li]
                    getattr(params, _attr)[_li] = a
                    try:
                        return enc_loss()
                    finally:
                        getattr(params, _attr)[_li] = saved

                analytic.append(getattr(grads, attr)[li].ravel())
                numeric.append(central_diff_grad(f, arr).ravel())
        fractions["encoder"].append(
            fraction_within(np.concatenate(analytic), np.concatenate(numeric))
        )

        # clip loss gradients w.r.t. both feature matrices
        u = unit_rows(rng, 3, 4)
        w = unit_rows(rng, 3, 4)
        labels = np.arange(3)
        loss = ct.clip_loss(_raw_batch(u, w, 0.9), labels)
        num_u = central_diff_grad(
            lambda a: ct.clip_loss(_raw_batch(a, w, 0.9), labels).value, u
        )
        num_w = central_diff_grad(
            lambda a: ct.clip_loss(_raw_batch(u, a, 0.9), labels).value, w
        )
        fractions["clip"].append(fraction_within(loss.grad_image, num_u))
        fractions["clip"].append(fraction_within(loss.grad_text, num_w))

        # bidirectional KL gradients w.r.t. student features
        teacher = distill.TeacherOutputs.from_features(
            unit_rows(rng, 3, 5), unit_rows(rng, 4, 5), 2.0
        )
        su = unit_rows(rng, 3, 5)
        sw = unit_rows(rng, 4, 5)
        out = distill.kl_pair_loss(teacher, su, sw, 1.5)

        def kl_total_u(a):
            o = distill.kl_pair_loss(teacher, a, sw, 1.5)
            return o.l_i2t + o.l_t2i

        def kl_total_w(a):
            o = distill.kl_pair_loss(teacher, su, a, 1.5)
            return o.l_i2t + o.l_t2i

        fractions["kl"].append(fraction_within(out.grad_image, central_diff_grad(kl_total_u, su)))
        fractions["kl"].append(fraction_within(out.grad_text, central_diff_grad(kl_total_w, sw)))

        # mse alignment gradients
        ut, us = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        wt_, ws = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
        m = distill.mse_align(ut, us, wt_, ws)
        fractions["mse"].append(
            fraction_within(
                m.grad_image,
                central_diff_grad(lambda a: distill.mse_align(ut, a, wt_, ws).value, us),
            )
        )
        fractions["mse"].append(
            fraction_within(
                m.grad_text,
                central_diff_grad(lambda a: distill.mse_align(ut, us, wt_, a).value, ws),
            )
        )

    elapsed = time.perf_counter() - t0
    for name, fr in fractions.items():
        assert np.mean(fr) >= 0.99, f"{name}: {np.mean(fr)}"
    assert elapsed < 30.0
    _report(4, elapsed, "encoder/clip/kl/mse gradients match finite differences")


def _raw_batch(u, w, tau):
    b = object.__new__(ct.ContrastiveBatch)
    object.__setattr__(b, "image_features", np.asarray(u, dtype=np.float64))
    object.__setattr__(b, "text_features", np.asarray(w, dtype=np.float64))
    object.__setattr__(b, "tau", tau)
    return b


def test_05_ce_kl_gradient_equivalence():
    rng = seeded_rng(105)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 16))
        rows = int(rng.integers(1, 8))
        p_s = rng.dirichlet(np.ones(n), size=rows)
        p_t = rng.dirichlet(np.ones(n), size=rows)
        diff = np.max(
            np.abs(distill.kl_grad_wrt_logits(p_s, p_t) - ce_grad_wrt_logits(p_s, p_t))
        )
        worst = max(worst, float(diff))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    _report(5, elapsed, f"CE and KL logit gradients coincide, worst diff {worst:.2e}")


def test_06_distribution_invariants_bulk():
    rng = seeded_rng(106)
    t0 = time.perf_counter()

    # 10^4 softmax rows under extreme logits
    logits = rng.uniform(-1e4, 1e4, size=(10_000, 8))
    for tau in (0.05, 4.0, 1e5):
        p = softmax_rows(logits, tau)
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-9
        check_prob_matrix(p)

    # 10^4 KL pairs: nonnegative, zero on identical pairs
    for _ in range(10_000):
        n = int(rng.integers(2, 8))
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n))
        assert kl_divergence(p, q) >= 0.0
    for _ in range(100):
        p = rng.dirichlet(np.ones(6))
        assert kl_divergence(p, p) <= 1e-12

    # 10^4 simplex outputs across the weighting strategies
    produced = 0
    for _ in range(9_500):
        k = int(rng.integers(1, 6))
        out = wt.lsr_weights(rng.uniform(0, 3, size=k) * rng.integers(0, 2))
        distill.check_simplex(out.weights)
        produced += 1
    for _ in range(500):
        k = int(rng.integers(1, 5))
        res = wt.frank_wolfe_min_norm(rng.normal(size=(k, 6)), max_iter=50)
        distill.check_simplex(res.weights)
        produced += 1
    assert produced == 10_000

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(6, elapsed, "softmax/KL/simplex invariants over 10^4 random cases")


def test_07_teacher_accuracy_gate(default_world):
    ds, train_idx, eval_idx = default_world
    cfg = trainer.PretrainConfig()  # 30 epochs
    assert cfg.epochs <= 30
    for j, spec in enumerate(config.DEFAULT_TEACHER_ROSTER[:2]):
        t0 = time.perf_counter()
        teacher = trainer.pretrain_teacher(cfg, ds, train_idx, eval_idx, spec, 2024, j)
        elapsed = time.perf_counter() - t0
        assert teacher.accuracy >= 0.95
        assert elapsed < 60.0
        _report(7, elapsed, f"teacher {j} eval accuracy {teacher.accuracy:.3f} >= 0.95")


SEEDS = (0, 1, 2, 3, 4)


def _clean_teachers(ds, train_idx, eval_idx, seed):
    pre = trainer.PretrainConfig()
    return [
        trainer.pretrain_teacher(
            pre, ds, train_idx, eval_idx, config.DEFAULT_TEACHER_ROSTER[j], seed, j
        )
        for j in range(2)
    ]


def test_08_distillation_helps(default_world):
    ds, train_idx, eval_idx = default_world
    t0 = time.perf_counter()
    base_accs, avg_accs = [], []
    for seed in SEEDS:
        teachers = _clean_teachers(ds, train_idx, eval_idx, seed)
        cfg = trainer.TrainConfig(strategy="base", num_teachers=0, seed=seed)
        _, m = trainer.distill_student(cfg, [], ds, train_idx, eval_idx)
        base_accs.append(m.final.accuracy)
        cfg = trainer.TrainConfig(strategy="avg", num_teachers=2, seed=seed)
        _, m = trainer.distill_student(cfg, teachers, ds, train_idx, eval_idx)
        avg_accs.append(m.final.accuracy)
    elapsed = time.perf_counter() - t0
    base_accs, avg_accs = np.asarray(base_accs), np.asarray(avg_accs)
    gap = float(avg_accs.mean() - base_accs.mean())
    wins = int(np.sum(avg_accs > base_accs))
    assert gap >= 0.02, f"gap {gap:.4f}, base {base_accs}, avg {avg_accs}"
    assert wins >= 4, f"wins {wins}/5"
    assert elapsed < 600.0
    _report(8, elapsed, f"avg beats base by {100 * gap:.1f} points, {wins}/5 seeds")


def test_09_noisy_teacher_robustness(default_world):
    ds, train_idx, eval_idx = default_world
    pre = trainer.PretrainConfig()
    corrupted_spec = trainer.TeacherSpec(
        hidden_widths=(80,), corruption=config.Corruption("weight_noise", 10.0)
    )
    t0 = time.perf_counter()
    avg_accs, dsw_accs, corrupted_alpha = [], [], []
    for seed in SEEDS:
        teachers = [
            trainer.pretrain_teacher(
                pre, ds, train_idx, eval_idx, config.DEFAULT_TEACHER_ROSTER[0], seed, 0
            ),
            trainer.pretrain_teacher(pre, ds, train_idx, eval_idx, corrupted_spec, seed, 1),
        ]
        cfg = trainer.TrainConfig(strategy="avg", num_teachers=2, seed=seed)
        _, m = trainer.distill_student(cfg, teachers, ds, train_idx, eval_idx)
        avg_accs.append(m.final.accuracy)
        cfg = trainer.TrainConfig(strategy="dsw", num_teachers=2, seed=seed)
        _, m = trainer.distill_student(cfg, teachers, ds, train_idx, eval_idx)
        dsw_accs.append(m.final.accuracy)
        corrupted_alpha.append(np.mean([r.alphas[1] for r in m.epochs]))
    elapsed = time.perf_counter() - t0
    assert np.mean(dsw_accs) >= np.mean(avg_accs), f"dsw {dsw_accs} vs avg {avg_accs}"
    alpha_mean = float(np.mean(corrupted_alpha))
    assert alpha_mean <= 0.45, f"corrupted teacher mean weight {alpha_mean:.3f}"
    assert elapsed < 900.0
    _report(
        9, elapsed,
        f"dsw {np.mean(dsw_accs):.3f} >= avg {np.mean(avg_accs):.3f}, "
        f"corrupted weight {alpha_mean:.3f} <= 0.45",
    )


def test_10_loss_ratio_suite(default_world, tmp_path):
    manifest = {
        "schema_version": 1,
        "suite": "loss_ratio",
        "seeds": list(SEEDS),
        "dataset": {"spec": dataclasses.asdict(data.SyntheticSpec())},
        "train": {},
        "pretrain": {},
        "output_dir": str(tmp_path / "out"),
    }
    mpath = tmp_path / "loss_ratio.json"
    mpath.write_text(json.dumps(manifest))
    t0 = time.perf_counter()
    assert cli.main(["run", str(mpath)]) == 0
    elapsed = time.perf_counter() - t0
    with open(tmp_path / "out" / "summary.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [r["grid_point"] for r in rows] == ["0.5:1:1", "1:0.5:1", "1:1:0.5", "1:1:1"]
    assert all(int(r["n_seeds"]) == 5 for r in rows)
    echo = json.loads((tmp_path / "out" / "manifest.json").read_text())
    obs = echo["loss_ratio_observation"]
    best = max(rows, key=lambda r: float(r["acc_mean"]))["grid_point"]
    assert obs["observed_best"] == best
    assert obs["expected_best"] == "1:1:1"
    _report(
        10, elapsed,
        f"loss-ratio suite emitted; best row {obs['observed_best']!r} "
        f"(1:1:1 first: {obs['matches']})",
    )


ACCEPTANCE_11_MANIFEST = {
    "schema_version": 1,
    "suite": "single",
    "seeds": [3],
    "dataset": {
        "spec": {
            "num_classes": 4, "image_dim": 10, "text_dim": 8,
            "samples_per_class": 30, "noise_sigma": 0.25,
            "anchor_scale": 1.0, "seed": 9,
        }
    },
    "train": {
        "epochs": 4, "batch_size": 32, "strategy": "dsw", "num_teachers": 2,
        "student": {"hidden_widths": [16], "output_dim": 6, "dropout_p": 0.3},
    },
    "teachers": [
        {"hidden_widths": [20], "output_dim": 6},
        {"hidden_widths": [18], "output_dim": 6},
    ],
    "pretrain": {"epochs": 6, "batch_size": 32, "lr": 3e-3, "accuracy_gate": 0.5},
}


def test_11_determinism_byte_identical(tmp_path):
    manifest = {**ACCEPTANCE_11_MANIFEST, "output_dir": str(tmp_path / "unused")}
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(manifest))
    t0 = time.perf_counter()
    assert cli.main(["run", str(mpath), "--output-dir", str(tmp_path / "a")]) == 0
    assert cli.main(["run", str(mpath), "--output-dir", str(tmp_path / "b")]) == 0
    elapsed = time.perf_counter() - t0
    a = (tmp_path / "a" / "runs" / "default" / "seed_3" / "metrics.csv").read_bytes()
    b = (tmp_path / "b" / "runs" / "default" / "seed_3" / "metrics.csv").read_bytes()
    assert a == b
    _report(11, elapsed, f"two identical runs byte-identical ({len(a)} bytes)")


def test_12_file_format_roundtrip(tmp_path, default_world):
    ds, _, _ = default_world
    t0 = time.perf_counter()
    path = tmp_path / "ds.bin"
    data.save_dataset(ds, path)
    loaded = data.load_dataset(path)
    np.testing.assert_array_equal(loaded.text_anchors, ds.text_anchors)
    np.testing.assert_array_equal(loaded.image_raw, ds.image_raw)
    np.testing.assert_array_equal(loaded.labels, ds.labels)
    assert loaded.spec == ds.spec
    assert loaded.probe_accuracy == ds.probe_accuracy

    blob = path.read_bytes()
    (tmp_path / "trunc.bin").write_bytes(blob[: len(blob) - 17])
    with pytest.raises(ChecksumMismatch):
        data.load_dataset(tmp_path / "trunc.bin")
    (tmp_path / "magic.bin").write_bytes(b"X" * len(blob))
    with pytest.raises(FormatVersionMismatch):
        data.load_dataset(tmp_path / "magic.bin")
    elapsed = time.perf_counter() - t0
    _report(12, elapsed, "dataset roundtrip bit-exact; corrupt files raise declared errors")
