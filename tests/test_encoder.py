import numpy as np
import pytest

from kdlab import encoder as enc
from kdlab.errors import (
    FormatVersionMismatch,
    NonFiniteInput,
    ShapeMismatch,
    TapeReused,
    ZeroVector,
)
from kdlab.numerics import seeded_rng
from oracles import central_diff_grad, fraction_within


def small_params(activation="tanh", hidden=(6, 5), in_dim=4, out_dim=3, seed=0):
    cfg = enc.EncoderConfig(in_dim, hidden, out_dim, activation, 0.0)
    return enc.init_params(cfg, seeded_rng(seed))


class TestInit:
    def test_deterministic(self):
        cfg = enc.EncoderConfig(5, (7,), 4)
        a = enc.init_params(cfg, seeded_rng(9))
        b = enc.init_params(cfg, seeded_rng(9))
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_biases_zero(self):
        p = small_params()
        for b in p.biases:
            assert np.all(b == 0.0)

    def test_identity_construction(self):
        cfg = enc.EncoderConfig(2, (), 2, "identity", 0.0)
        p = enc.init_params(cfg, seeded_rng(0))
        p.weights[0] = np.eye(2)
        feats, _ = enc.encode(p, [[3.0, 4.0]])
        np.testing.assert_allclose(feats, [[0.6, 0.8]])

    def test_config_validation(self):
        with pytest.raises(ShapeMismatch):
            enc.EncoderConfig(0, (), 2)
        with pytest.raises(ShapeMismatch):
            enc.EncoderConfig(2, (), 2, "softplus")
        with pytest.raises(ShapeMismatch):
            enc.EncoderConfig(2, (), 2, "relu", 1.0)


class TestEncode:
    def test_unit_rows(self, rng):
        p = small_params(hidden=(8, 8))
        feats, _ = enc.encode(p, rng.normal(size=(32, 4)))
        np.testing.assert_allclose(np.linalg.norm(feats, axis=1), 1.0, atol=1e-10)

    def test_eval_mode_deterministic(self, rng):
        cfg = enc.EncoderConfig(4, (6,), 3, "relu", 0.5)
        p = enc.init_params(cfg, seeded_rng(1))
        x = rng.normal(size=(10, 4))
        a, _ = enc.encode(p, x, train_mode=False)
        b, _ = enc.encode(p, x, train_mode=False)
        np.testing.assert_array_equal(a, b)

    def test_zero_row_raises(self):
        cfg = enc.EncoderConfig(2, (), 2, "identity", 0.0)
        p = enc.init_params(cfg, seeded_rng(0))
        p.weights[0] = np.eye(2)
        with pytest.raises(ZeroVector):
            enc.encode(p, [[0.0, 0.0]])

    def test_dropout_zero_rate(self):
        cfg = enc.EncoderConfig(4, (100,), 3, "tanh", 0.3)
        p = enc.init_params(cfg, seeded_rng(2))
        rng = seeded_rng(3)
        zeros = 0
        total = 0
        for _ in range(100):
            _, tape = enc.encode(p, rng.normal(size=(10, 4)), train_mode=True, rng=rng)
            mask = tape.masks[0]
            zeros += int(np.sum(mask == 0.0))
            total += mask.size
        assert abs(zeros / total - 0.3) < 0.01

    @pytest.mark.parametrize("hidden", [(96,), (80,), (64,), (112,)])
    def test_eval_rows_independent_of_batch(self, hidden):
        # The frozen-teacher cache relies on this: at teacher shapes, an
        # eval-mode row has the same bits in a block of rows as in any
        # permuted batch of two or more rows (one row takes BLAS's
        # matrix-vector kernel and is not covered).
        p = enc.init_params(enc.EncoderConfig(32, hidden, 8), seeded_rng(3))
        rng = seeded_rng(4)
        x = rng.normal(size=(200, 32))
        block, _ = enc.encode(p, x[:64])
        for size in (2, 3, 17, 63, 64, 65, 200):
            rows = rng.permutation(200)[:size]
            rows[0] = rng.integers(64)  # at least one row from the block
            feats, _ = enc.encode(p, x[rows])
            in_block = rows < 64
            np.testing.assert_array_equal(feats[in_block], block[rows[in_block]])

    def test_input_shape_check(self):
        p = small_params()
        with pytest.raises(ShapeMismatch):
            enc.encode(p, np.ones((3, 7)))


class TestBackward:
    def test_zero_grad_gives_zero(self, rng):
        p = small_params()
        feats, tape = enc.encode(p, rng.normal(size=(5, 4)))
        grads, gx = enc.backward(tape, np.zeros_like(feats))
        assert all(np.all(w == 0) for w in grads.weights)
        assert np.all(gx == 0)

    def test_tape_reuse_raises(self, rng):
        p = small_params()
        feats, tape = enc.encode(p, rng.normal(size=(5, 4)))
        enc.backward(tape, np.zeros_like(feats))
        with pytest.raises(TapeReused):
            enc.backward(tape, np.zeros_like(feats))

    def test_vjp_is_replayable(self, rng):
        p = small_params()
        feats, tape = enc.encode(p, rng.normal(size=(5, 4)))
        g1, _ = enc.vjp(tape, feats)
        g2, _ = enc.vjp(tape, feats)
        for a, b in zip(g1.weights, g2.weights):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("dropout_p", [0.0, 0.5])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_stacked_vjp_matches_separate_calls(self, k, dropout_p):
        cfg = enc.EncoderConfig(32, (48, 48), 8, "relu", dropout_p)
        p = enc.init_params(cfg, seeded_rng(5))
        rng = seeded_rng(6)
        _, tape = enc.encode(p, rng.normal(size=(64, 32)), train_mode=True, rng=rng)
        assert all((m is not None) == (dropout_p > 0) for m in tape.masks)
        cots = rng.normal(size=(k, 64, 8))
        stacked, gx = enc.vjp(tape, cots)
        flat = stacked.flatten()
        assert flat.shape == (k, p.n_params())
        for j in range(k):
            single, gx_j = enc.vjp(tape, cots[j])
            for a, b in zip(single.weights + single.biases, stacked.weights + stacked.biases):
                np.testing.assert_array_equal(a, b[j])
            np.testing.assert_array_equal(gx_j, gx[j])
            np.testing.assert_array_equal(single.flatten(), flat[j])

    def test_stacked_vjp_checks_shape_and_finiteness(self, rng):
        p = small_params()
        _, tape = enc.encode(p, rng.normal(size=(5, 4)))
        with pytest.raises(ShapeMismatch):
            enc.vjp(tape, np.zeros((2, 4, 3)))
        bad = np.zeros((2, 5, 3))
        bad[1, 2, 0] = np.nan
        with pytest.raises(NonFiniteInput):
            enc.vjp(tape, bad)

    @pytest.mark.parametrize("activation", ["tanh", "relu", "identity"])
    def test_gradcheck_params(self, activation):
        p = small_params(activation=activation, hidden=(6, 5), seed=11)
        rng = seeded_rng(12)
        x = rng.normal(size=(3, 4))
        probe = rng.normal(size=(3, p.config.output_dim))

        def loss_of(params):
            feats, _ = enc.encode(params, x)
            return float(np.sum(feats * probe))

        feats, tape = enc.encode(p, x)
        grads, grad_x = enc.vjp(tape, probe)

        fractions = []
        for li in range(len(p.weights)):
            for attr, analytic in (("weights", grads.weights), ("biases", grads.biases)):
                arr = getattr(p, attr)[li]

                def f(a, _li=li, _attr=attr):
                    saved = getattr(p, _attr)[_li]
                    getattr(p, _attr)[_li] = a
                    try:
                        return loss_of(p)
                    finally:
                        getattr(p, _attr)[_li] = saved

                numeric = central_diff_grad(f, arr)
                fractions.append(fraction_within(analytic[li], numeric))
        # 99% of coordinates within 1e-5 relative error (ReLU kink slack)
        assert min(fractions) >= 0.99

        numeric_x = central_diff_grad(lambda a: float(np.sum(enc.encode(p, a)[0] * probe)), x)
        assert fraction_within(grad_x, numeric_x) >= 0.99

    def test_normalization_jacobian_orthogonal_component(self):
        # With an input-dim encoder wired to identity, grad_input must agree
        # with finite differences of the normalization alone.
        cfg = enc.EncoderConfig(3, (), 3, "identity", 0.0)
        p = enc.init_params(cfg, seeded_rng(0))
        p.weights[0] = np.eye(3)
        x = np.array([[1.0, 2.0, -0.5]])
        probe = np.array([[0.3, -0.7, 0.2]])
        _, tape = enc.encode(p, x)
        _, grad_x = enc.vjp(tape, probe)
        numeric = central_diff_grad(
            lambda a: float(np.sum(enc.encode(p, a)[0] * probe)), x
        )
        assert fraction_within(grad_x, numeric) == 1.0
        # The gradient must be orthogonal to the output direction.
        y = tape.features[0]
        assert abs(float(grad_x[0] @ y)) < 1e-10


class TestAdam:
    def test_zero_grad_keeps_params(self):
        p = small_params()
        state = enc.init_adam(p, lr=1e-3)
        zero = enc.EncoderGrads.zeros_like(p)
        p2, state2 = enc.adam_step(p, zero, state)
        assert state2.t == 1
        for a, b in zip(p.weights, p2.weights):
            np.testing.assert_array_equal(a, b)

    def test_first_step_magnitude(self):
        cfg = enc.EncoderConfig(1, (), 1, "identity", 0.0)
        p = enc.init_params(cfg, seeded_rng(0))
        p.weights[0] = np.array([[1.0]])
        lr = 1e-4
        state = enc.init_adam(p, lr=lr)
        g = enc.EncoderGrads([np.array([[1.0]])], [np.zeros(1)])
        p2, _ = enc.adam_step(p, g, state)
        delta = float(p2.weights[0][0, 0] - 1.0)
        assert delta == pytest.approx(-lr, abs=1e-9)

    def test_bit_identical_trajectories(self, rng):
        p = small_params(seed=5)
        grads_seq = [rng.normal(size=1)[0] for _ in range(4)]

        def run():
            params = p.copy()
            state = enc.init_adam(params, lr=1e-3)
            for gscale in grads_seq:
                g = enc.EncoderGrads(
                    [np.full_like(w, gscale) for w in params.weights],
                    [np.full_like(b, gscale) for b in params.biases],
                )
                params, state = enc.adam_step(params, g, state)
            return params

        a, b = run(), run()
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_shape_mismatch(self):
        p = small_params()
        bad = enc.EncoderGrads.zeros_like(p)
        bad.weights[0] = np.zeros((1, 1))
        with pytest.raises(ShapeMismatch):
            enc.adam_step(p, bad, enc.init_adam(p, 1e-3))


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path, rng):
        p = small_params(hidden=(9,), seed=3)
        for w in p.weights:
            w += rng.normal(size=w.shape)
        path = tmp_path / "enc.ckpt"
        enc.save_params(p, path)
        q = enc.load_params(path)
        assert q.config == p.config
        for a, b in zip(p.weights + p.biases, q.weights + q.biases):
            np.testing.assert_array_equal(a, b)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(FormatVersionMismatch):
            enc.load_params(path)

    def test_fingerprint_detects_mutation(self):
        p = small_params()
        fp = enc.param_fingerprint(p)
        assert enc.param_fingerprint(p) == fp
        p.weights[0][0, 0] += 1e-12
        assert enc.param_fingerprint(p) != fp
