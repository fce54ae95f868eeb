import numpy as np
import pytest

from kdlab import encoder as enc
from kdlab.errors import NonFiniteInput, ShapeMismatch, ZeroVector
from kdlab.numerics import seeded_rng
from oracles import (
    central_diff_grad,
    fraction_within,
    init_adam,
    param_fingerprint,
    zero_grads,
)


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
        a, _ = enc.encode(p, x)
        b, _ = enc.encode(p, x)
        np.testing.assert_array_equal(a, b)

    def test_zero_row_raises(self):
        cfg = enc.EncoderConfig(2, (), 2, "identity", 0.0)
        p = enc.init_params(cfg, seeded_rng(0))
        p.weights[0] = np.eye(2)
        with pytest.raises(ZeroVector):
            enc.encode(p, [[0.0, 0.0]])

    def test_dropout_zeroed_row_keeps_every_unit(self, rng):
        # Biases start at zero, so a row whose hidden units dropout zeroes
        # has a zero output. Such a row is passed again with every unit
        # kept; the other rows keep their bits.
        cfg = enc.EncoderConfig(4, (6,), 3, "relu", 0.5)
        p = enc.init_params(cfg, seeded_rng(1))
        x = rng.normal(size=(5, 4))
        masks = [rng.random((5, 6)) >= 0.5]
        masks[0][2] = False
        feats, tape = enc._encode(p, x, masks)
        kept = [masks[0].copy()]
        kept[0][2] = True
        want, want_tape = enc._encode(p, x, kept)
        np.testing.assert_array_equal(feats, want)
        np.testing.assert_array_equal(tape.masks[0], want_tape.masks[0])
        np.testing.assert_allclose(np.linalg.norm(feats, axis=1), 1.0, atol=1e-12)
        # A row near zero with every unit kept, and any near-zero row of an
        # eval pass, still raise.
        x[2] = 0.0
        with pytest.raises(ZeroVector):
            enc._encode(p, x, masks)
        with pytest.raises(ZeroVector):
            enc.encode(p, x)

    def test_dropout_zero_rate(self):
        cfg = enc.EncoderConfig(4, (100,), 3, "tanh", 0.3)
        p = enc.init_params(cfg, seeded_rng(2))
        rng = seeded_rng(3)
        zeros = 0
        total = 0
        for _ in range(100):
            x = rng.normal(size=(10, 4))
            _, tape = enc._encode(p, x, enc._dropout_masks(cfg, 10, rng))
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

    @pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 65, 128, 129, 385, 400, 1100])
    def test_chunked_eval_pass_matches_one_pass(self, n, monkeypatch):
        # _encode_rows in chunks of 64 rows, with no one-row chunk, gives
        # every row the bits of one pass over all n rows, with 2-D and
        # with member-stacked parameters: one _encode per stack of at most
        # 512 rows summed over the members, so 8 full chunks for one
        # encoder and 2 for 3 members, then one for the tail unless it is
        # empty (at n = 64 and 128 there is none); for one encoder, two
        # calls up to 576 rows. Zero rows still take one call.
        cfg = enc.EncoderConfig(32, (48, 48), 8)
        rng = seeded_rng(5)
        members = []
        for _ in range(3):
            p = enc.init_params(cfg, rng)
            biases = [rng.normal(size=b.shape) for b in p.biases]
            members.append(enc.EncoderParams(cfg, p.weights, biases))
        stacked = enc.EncoderParams(
            cfg,
            [np.stack(w) for w in zip(*[m.weights for m in members])],
            [np.stack(b) for b in zip(*[m.biases for m in members])],
        )
        x = rng.normal(size=(n, 32))
        stack, tail = enc._row_chunks(x)
        assert stack.shape == (max(n // 64 - (n % 64 == 1), 0), 64, 32)
        assert tail.shape[0] <= 65 and (tail.shape[0] != 1 or n == 1)
        np.testing.assert_array_equal(np.concatenate([stack.reshape(-1, 32), tail]), x)
        real, calls, rows = enc._encode, [], []

        def spy(p, x, m):
            calls.append(x.shape)
            s = len(p.weights[0]) if p.weights[0].ndim == 3 else 1  # members
            rows.append(x.size // x.shape[-1] * s)
            return real(p, x, m)

        monkeypatch.setattr(enc, "_encode", spy)
        for params in (members[0], stacked):
            want, _ = real(params, x, None)
            np.testing.assert_array_equal(enc._encode_rows(params, x), want)
        full = stack.shape[0]
        solo, trio = ([min(per, full - i) for i in range(0, full, per)] for per in (8, 2))
        tails = [tail.shape] if tail.shape[0] or not full else []
        assert calls == (
            [(c, 64, 32) for c in solo] + tails + [(c, 1, 64, 32) for c in trio] + tails
        )
        assert max(rows) <= enc._STACK_ROWS  # rows across members, in every call
        assert len(solo + tails) <= 2 or n > 576
        assert (not tails) == (n > 0 and n % 64 == 0)

    def test_input_shape_check(self):
        p = small_params()
        with pytest.raises(ShapeMismatch):
            enc.encode(p, np.ones((3, 7)))


class TestBackward:
    def test_zero_grad_gives_zero(self, rng):
        p = small_params()
        feats, tape = enc.encode(p, rng.normal(size=(5, 4)))
        grads, gx = enc.vjp(tape, np.zeros_like(feats))
        assert all(np.all(w == 0) for w in grads.weights)
        assert np.all(gx == 0)

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
        x = rng.normal(size=(64, 32))
        _, tape = enc._encode(p, x, enc._dropout_masks(cfg, 64, rng))
        assert all((m is not None) == (dropout_p > 0) for m in tape.masks)
        cots = rng.normal(size=(k, 64, 8))
        stacked, gx = enc.vjp(tape, cots)
        flat = stacked.flatten()
        assert flat.shape == (k, sum(a.size for a in p.weights + p.biases))
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
        state = init_adam(p, lr=1e-3)
        zero = zero_grads(p)
        p2, state2 = enc.adam_step(p, zero, state)
        assert state2.t == 1
        for a, b in zip(p.weights, p2.weights):
            np.testing.assert_array_equal(a, b)

    def test_first_step_magnitude(self):
        cfg = enc.EncoderConfig(1, (), 1, "identity", 0.0)
        p = enc.init_params(cfg, seeded_rng(0))
        p.weights[0] = np.array([[1.0]])
        lr = 1e-4
        state = init_adam(p, lr=lr)
        g = enc.EncoderGrads([np.array([[1.0]])], [np.zeros(1)])
        p2, _ = enc.adam_step(p, g, state)
        delta = float(p2.weights[0][0, 0] - 1.0)
        assert delta == pytest.approx(-lr, abs=1e-9)

    def test_bit_identical_trajectories(self, rng):
        p = small_params(seed=5)
        grads_seq = [rng.normal(size=1)[0] for _ in range(4)]

        def run():
            params = p.copy()
            state = init_adam(params, lr=1e-3)
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
        bad = zero_grads(p)
        bad.weights[0] = np.zeros((1, 1))
        with pytest.raises(ShapeMismatch):
            enc.adam_step(p, bad, init_adam(p, 1e-3))


class TestCheckpoint:
    def test_fingerprint_detects_mutation(self):
        p = small_params()
        fp = param_fingerprint(p)
        assert param_fingerprint(p) == fp
        p.weights[0][0, 0] += 1e-12
        assert param_fingerprint(p) != fp
