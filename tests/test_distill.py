import numpy as np
import pytest

from kdlab import distill
from kdlab.errors import InvalidSimplex, NonPositiveRatio, ShapeMismatch
from oracles import ce_grad_wrt_logits, central_diff_grad, fraction_within


def unit_rows(rng, n, d):
    m = rng.normal(size=(n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def make_teacher(rng, b, n, d, tau=4.0):
    return distill.TeacherOutputs.from_features(
        unit_rows(rng, b, d), unit_rows(rng, n, d), tau
    )


class TestKlPairLoss:
    def test_student_equals_teacher_is_zero(self, rng):
        u = unit_rows(rng, 4, 5)
        w = unit_rows(rng, 3, 5)
        teacher = distill.TeacherOutputs.from_features(u, w, 2.0)
        out = distill.kl_pair_loss(teacher, u, w, 2.0)
        assert out.l_i2t == pytest.approx(0.0, abs=1e-12)
        assert out.l_t2i == pytest.approx(0.0, abs=1e-12)

    def test_single_row_ln_two(self):
        # Teacher puts all mass on one candidate, student is uniform.
        teacher = distill.TeacherOutputs(
            image_features=np.eye(1, 2),
            i2t_probs=np.array([[1.0, 0.0]]),
            t2i_probs=np.array([[1.0], [1.0]]),
        )
        # Student features orthogonal to both candidates: uniform i2t row.
        u = np.array([[0.0, 0.0, 1.0]])
        w = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        out = distill.kl_pair_loss(teacher, u, w, 1.0)
        assert out.l_i2t == pytest.approx(np.log(2), abs=1e-6)

    def test_shape_mismatch(self, rng):
        teacher = make_teacher(rng, 4, 3, 5)
        with pytest.raises(ShapeMismatch):
            distill.kl_pair_loss(teacher, unit_rows(rng, 5, 5), unit_rows(rng, 3, 5), 1.0)

    def test_gradients_match_finite_differences(self, rng):
        b, n, d = 3, 4, 5
        teacher = make_teacher(rng, b, n, d, tau=2.0)
        u = unit_rows(rng, b, d)
        w = unit_rows(rng, n, d)
        out = distill.kl_pair_loss(teacher, u, w, 1.5)

        def total_u(a):
            o = distill.kl_pair_loss(teacher, a, w, 1.5)
            return o.l_i2t + o.l_t2i

        def total_w(a):
            o = distill.kl_pair_loss(teacher, u, a, 1.5)
            return o.l_i2t + o.l_t2i

        assert fraction_within(out.grad_image, central_diff_grad(total_u, u)) >= 0.99
        assert fraction_within(out.grad_text, central_diff_grad(total_w, w)) >= 0.99

    def test_nonnegative(self, rng):
        for _ in range(20):
            teacher = make_teacher(rng, 3, 4, 6)
            out = distill.kl_pair_loss(
                teacher, unit_rows(rng, 3, 6), unit_rows(rng, 4, 6), 3.0
            )
            assert out.l_i2t >= 0.0 and out.l_t2i >= 0.0


class TestCeKlEquivalence:
    def test_gradients_coincide(self, rng):
        # Cross-entropy to the teacher and KL from the teacher differ by the
        # teacher entropy, a constant: their logit gradients must match.
        for _ in range(50):
            n = rng.integers(2, 12)
            rows = rng.integers(1, 6)
            p_s = rng.dirichlet(np.ones(n), size=rows)
            p_t = rng.dirichlet(np.ones(n), size=rows)
            g_kl = distill.kl_grad_wrt_logits(p_s, p_t)
            g_ce = ce_grad_wrt_logits(p_s, p_t)
            assert np.max(np.abs(g_kl - g_ce)) <= 1e-10


class TestMseAlign:
    def test_zero_when_equal(self, rng):
        u = rng.normal(size=(3, 4))
        w = rng.normal(size=(2, 4))
        out = distill.mse_align(u, u, w, w)
        assert out.value == 0.0

    def test_hand_value(self):
        u_t = np.array([[1.0, 0.0]])
        u_s = np.array([[0.0, 1.0]])
        w = np.array([[0.5, 0.5]])
        out = distill.mse_align(u_t, u_s, w, w)
        assert out.value == pytest.approx(1.0)

    def test_gradients_match_finite_differences(self, rng):
        u_t = rng.normal(size=(3, 4))
        u_s = rng.normal(size=(3, 4))
        w_t = rng.normal(size=(5, 4))
        w_s = rng.normal(size=(5, 4))
        out = distill.mse_align(u_t, u_s, w_t, w_s)
        num_u = central_diff_grad(lambda a: distill.mse_align(u_t, a, w_t, w_s).value, u_s)
        num_w = central_diff_grad(lambda a: distill.mse_align(u_t, u_s, w_t, a).value, w_s)
        assert fraction_within(out.grad_image, num_u) >= 0.99
        assert fraction_within(out.grad_text, num_w) >= 0.99

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeMismatch):
            distill.mse_align(
                rng.normal(size=(2, 3)), rng.normal(size=(2, 4)),
                rng.normal(size=(2, 3)), rng.normal(size=(2, 3)),
            )


class TestTotalLoss:
    def test_single_teacher_unit_ratios(self):
        out = distill.total_loss(1.5, [(0.4, 0.6)], 0.25, (1, 1, 1), [1.0])
        assert out.total == pytest.approx(1.5 + 1.0 + 0.25)

    def test_half_kl_ratio(self):
        # Halving only the kl ratio must halve only the kl contribution.
        full = distill.total_loss(2.0, [(0.5, 0.5)], 3.0, (1, 1, 1), [1.0])
        half = distill.total_loss(2.0, [(0.5, 0.5)], 3.0, (1, 0.5, 1), [1.0])
        assert full.total - half.total == pytest.approx(0.5 * 1.0)

    def test_weighted_sum(self):
        # Teachers contribute (4, 8) bidirectional KL at weights (.75, .25).
        out = distill.total_loss(
            0.0 + 1e-9, [(2.0, 2.0), (4.0, 4.0)], 1e-9, (1, 1, 1), [0.75, 0.25]
        )
        assert out.l_kl_weighted == pytest.approx(5.0)

    def test_linearity_in_ratios(self):
        a = distill.total_loss(1.0, [(1.0, 1.0)], 2.0, (1, 1, 1), [1.0])
        b = distill.total_loss(1.0, [(1.0, 1.0)], 2.0, (1, 1, 2), [1.0])
        assert b.total - a.total == pytest.approx(2.0)

    def test_duplicated_teachers_invariance(self):
        single = distill.total_loss(1.0, [(0.3, 0.7)], 0.5, (1, 1, 1), [1.0])
        double = distill.total_loss(
            1.0, [(0.3, 0.7), (0.3, 0.7)], 0.5, (1, 1, 1), [0.5, 0.5]
        )
        assert double.total == pytest.approx(single.total, abs=1e-12)

    def test_errors(self):
        with pytest.raises(NonPositiveRatio):
            distill.total_loss(1.0, [(1.0, 1.0)], 1.0, (1, 0, 1), [1.0])
        with pytest.raises(InvalidSimplex):
            distill.total_loss(1.0, [(1.0, 1.0)], 1.0, (1, 1, 1), [0.4, 0.4])
        with pytest.raises(InvalidSimplex):
            distill.total_loss(1.0, [(1.0, 1.0), (1.0, 1.0)], 1.0, (1, 1, 1), [1.0])
        with pytest.raises(InvalidSimplex):
            distill.total_loss(1.0, [(1.0, 1.0), (1.0, 1.0)], 1.0, (1, 1, 1), [np.nan, 1.0])

    def test_total_recomputable(self, rng):
        b, n, d = 6, 4, 5
        for _ in range(30):
            k = rng.integers(1, 5)
            w = rng.dirichlet(np.ones(k))
            u_s, w_s = unit_rows(rng, b, d), unit_rows(rng, n, d)
            parts = [
                distill.kl_pair_loss(make_teacher(rng, b, n, d), u_s, w_s, 4.0) for _ in range(k)
            ]
            ratios = tuple(rng.uniform(0.2, 2.0, size=3))
            lc, lm = rng.uniform(0, 2, size=2)
            out = distill.total_loss(lc, [(p.l_i2t, p.l_t2i) for p in parts], lm, ratios, w)
            kl = sum(w[j] * (parts[j].l_i2t + parts[j].l_t2i) for j in range(k))
            assert out.l_kl_weighted == pytest.approx(kl, abs=1e-9)
            recomputed = ratios[0] * lc + ratios[1] * kl + ratios[2] * lm
            assert out.total == pytest.approx(recomputed, abs=1e-9)
