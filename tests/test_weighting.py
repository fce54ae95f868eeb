import numpy as np
import pytest

from kdlab import weighting as wt
from kdlab.distill import check_simplex
from kdlab.errors import DimensionMismatch, EmptyGradientSet, NonFiniteInput
from oracles import brute_force_min_norm, min_norm_2


def objective(res):
    """0.5 * ||d||^2 at the solver's direction."""
    return 0.5 * float(res.direction @ res.direction)


class TestLsrWeights:
    def test_equal_scores(self):
        out = wt.lsr_weights([1.0, 1.0])
        np.testing.assert_allclose(out.weights, [0.5, 0.5])
        assert not out.degenerate

    def test_three_to_one(self):
        out = wt.lsr_weights([3.0, 1.0])
        np.testing.assert_allclose(out.weights, [0.75, 0.25])

    def test_all_zero_falls_back_uniform(self):
        out = wt.lsr_weights([0.0, 0.0])
        np.testing.assert_allclose(out.weights, [0.5, 0.5])
        assert out.degenerate

    def test_scale_invariance(self, rng):
        for _ in range(50):
            r = rng.uniform(0.01, 5.0, size=rng.integers(1, 6))
            c = rng.uniform(0.1, 100.0)
            np.testing.assert_allclose(
                wt.lsr_weights(r).weights, wt.lsr_weights(c * r).weights, atol=1e-12
            )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            wt.lsr_weights([-0.1, 0.5])


class TestTeacherLabelSimilarity:
    def test_perfect_alignment(self):
        bank = np.eye(3)
        labels = np.array([0, 1, 2, 1])
        assert wt.teacher_label_similarity(bank[labels], labels, bank) == 1.0

    def test_orthogonal_is_zero(self):
        bank = np.eye(4)
        u = np.tile(bank[3], (3, 1))
        assert wt.teacher_label_similarity(u, [0, 1, 2], bank) == 0.0

    def test_matches_hand_average(self, rng):
        u = rng.normal(size=(4, 5))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        bank = rng.normal(size=(3, 5))
        bank /= np.linalg.norm(bank, axis=1, keepdims=True)
        labels = np.array([0, 2, 1, 0])
        expected = np.mean(
            [max(0.0, float(u[i] @ bank[labels[i]])) for i in range(4)]
        )
        assert wt.teacher_label_similarity(u, labels, bank) == pytest.approx(
            expected, abs=1e-9
        )


class TestMinNorm2:
    def test_orthogonal_unit(self):
        gamma, d = min_norm_2([1.0, 0.0], [0.0, 1.0])
        assert gamma == pytest.approx(0.5)
        np.testing.assert_allclose(d, [0.5, 0.5])

    def test_ray_shorter_endpoint(self):
        gamma, d = min_norm_2([1.0, 0.0], [2.0, 0.0])
        assert gamma == 1.0
        np.testing.assert_allclose(d, [1.0, 0.0])

    def test_opposed_cancels(self):
        g = np.array([0.3, -0.4, 1.0])
        gamma, d = min_norm_2(g, -g)
        assert gamma == pytest.approx(0.5)
        np.testing.assert_allclose(d, 0.0, atol=1e-15)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            min_norm_2([1.0, 0.0], [1.0, 0.0, 0.0])

    def test_is_segment_minimum(self, rng):
        for _ in range(100):
            g1 = rng.normal(size=6)
            g2 = rng.normal(size=6)
            gamma, d = min_norm_2(g1, g2)
            norm = d @ d
            for t in np.linspace(0, 1, 21):
                alt = t * g1 + (1 - t) * g2
                assert norm <= alt @ alt + 1e-12


class TestFrankWolfe:
    def test_single_teacher(self, rng):
        g = rng.normal(size=(1, 7))
        res = wt.frank_wolfe_min_norm(g)
        np.testing.assert_allclose(res.weights, [1.0])
        np.testing.assert_allclose(res.direction, g[0])
        assert res.converged

    def test_two_teachers_match_closed_form(self, rng):
        for _ in range(100):
            g = rng.normal(size=(2, rng.integers(2, 51)))
            res = wt.frank_wolfe_min_norm(g)
            _, d = min_norm_2(g[0], g[1])
            assert abs(objective(res) - 0.5 * float(d @ d)) <= 1e-10

    def test_three_teachers_match_brute_force(self, rng):
        for _ in range(10):
            g = rng.normal(size=(3, 5)) / np.sqrt(5)
            res = wt.frank_wolfe_min_norm(g, max_iter=10000)
            _, obj = brute_force_min_norm(g, 0.01)
            assert abs(obj - objective(res)) <= 1e-3

    def test_identical_teachers_stay_uniform(self):
        g = np.tile(np.array([1.0, 2.0]), (2, 1))
        res = wt.frank_wolfe_min_norm(g)
        np.testing.assert_allclose(res.weights, [0.5, 0.5])
        assert res.converged and res.iterations == 0

    def test_near_tie_takes_half_steps(self):
        # Rows this close make the segment's squared length fall below
        # _TIE_EPS, so each step takes gamma = 0.5 toward the first row and
        # halves the second row's weight: from 1/2 to 1/32 in four steps.
        g = np.array([[1.0, 0.0], [1.0 + 2e-9, 0.0]])
        res = wt.frank_wolfe_min_norm(g)
        assert res.weights.tolist() == [0.96875, 0.03125]
        assert res.iterations == 4 and res.converged

    def test_zero_gradient_teacher_takes_all_weight(self):
        g = np.array([[3.0, 0.0], [0.0, 0.0]])
        res = wt.frank_wolfe_min_norm(g)
        np.testing.assert_allclose(res.weights, [0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(res.direction, 0.0, atol=1e-12)

    def test_objective_monotone(self, rng):
        # The solver is deterministic, so stopping it after m iterations
        # replays one run up to its m-th step. The trace starts at the
        # uniform point and covers every step of dsw's budget; past it,
        # consecutive steps (m, m + 1) are sampled up to the run's last.
        for _ in range(30):
            g = rng.normal(size=(rng.integers(2, 6), 8))
            n = wt.frank_wolfe_min_norm(g).iterations
            stops = set(range(1, min(n, wt.DSW_MAX_ITER + 1) + 1))
            if n > wt.DSW_MAX_ITER + 1:
                for m in np.linspace(wt.DSW_MAX_ITER + 1, n - 1, 12).astype(int):
                    stops.update((int(m), int(m) + 1))
            start = 0.5 * float(g.mean(axis=0) @ g.mean(axis=0))
            trace = [start] + [objective(wt.frank_wolfe_min_norm(g, max_iter=m)) for m in sorted(stops)]
            assert np.all(np.diff(trace) <= 1e-12)

    def test_scale_robustness(self, rng):
        g = rng.normal(size=(3, 6))
        res1 = wt.frank_wolfe_min_norm(g)
        res2 = wt.frank_wolfe_min_norm(10.0 * g)
        np.testing.assert_allclose(res1.weights, res2.weights, atol=1e-8)
        np.testing.assert_allclose(10.0 * res1.direction, res2.direction, atol=1e-7)

    def test_empty_set(self):
        with pytest.raises(EmptyGradientSet):
            wt.frank_wolfe_min_norm(np.zeros((0, 3)))

    def test_non_finite_gradient_rejected(self):
        g = np.array([[1.0, 0.0], [0.0, np.nan]])
        with pytest.raises(NonFiniteInput):
            wt.frank_wolfe_min_norm(g)
        assert not wt.certify_pareto_stationarity(np.array([1.0, 0.0]), g, tol=1e-9).passed

    def test_overflowing_gram_rejected(self):
        # Finite entries whose squares overflow would give NaN weights.
        with pytest.raises(NonFiniteInput):
            wt.frank_wolfe_min_norm(np.array([[1e200, 0.0], [0.0, 1.0]]))

    def test_weights_always_valid_simplex(self, rng):
        for _ in range(200):
            k = rng.integers(1, 6)
            g = rng.normal(size=(k, rng.integers(1, 10)))
            res = wt.frank_wolfe_min_norm(g)
            check_simplex(res.weights)


class TestBruteForce:
    def test_matches_closed_form_k2(self):
        g = np.array([[1.0, 0.0], [0.0, 1.0]])
        weights, obj = brute_force_min_norm(g, 0.01)
        np.testing.assert_allclose(weights, [0.5, 0.5], atol=0.01)
        assert obj == pytest.approx(0.25, abs=1e-3)

    def test_single_teacher(self):
        weights, obj = brute_force_min_norm(np.array([[2.0, 0.0]]), 0.5)
        np.testing.assert_allclose(weights, [1.0])
        assert obj == pytest.approx(2.0)

    def test_lattice_upper_bounds_frank_wolfe(self, rng):
        # The lattice is a subset of the simplex, so its best objective can
        # only undershoot the solver's by the solver's own duality gap.
        for _ in range(10):
            g = rng.normal(size=(3, 4))
            res = wt.frank_wolfe_min_norm(g, max_iter=10000)
            _, obj = brute_force_min_norm(g, 0.05)
            assert obj >= objective(res) - max(res.gap, 1e-9)

    def test_too_many_teachers(self):
        with pytest.raises(ValueError):
            brute_force_min_norm(np.zeros((5, 3)), 0.1)

    def test_bad_grid_step(self):
        with pytest.raises(ValueError):
            brute_force_min_norm(np.ones((2, 2)), 0.03)


class TestCertify:
    def test_orthogonal_pair_passes(self):
        g = np.array([[1.0, 0.0], [0.0, 1.0]])
        _, d = min_norm_2(g[0], g[1])
        cert = wt.certify_pareto_stationarity(d, g, tol=1e-9)
        assert cert.passed and not cert.stationary
        np.testing.assert_allclose(cert.slacks, 0.0, atol=1e-12)

    def test_collinear_passes(self):
        g1 = np.array([1.0, 1.0])
        g = np.vstack([g1, 2.0 * g1])
        cert = wt.certify_pareto_stationarity(g1, g, tol=1e-9)
        assert cert.passed

    def test_opposed_reports_stationary(self):
        g1 = np.array([1.0, -2.0])
        g = np.vstack([g1, -g1])
        cert = wt.certify_pareto_stationarity(np.zeros(2), g, tol=1e-9)
        assert cert.stationary and cert.passed

    def test_non_minimal_point_fails(self):
        g = np.array([[1.0, 0.0], [0.0, 1.0]])
        cert = wt.certify_pareto_stationarity(g[0], g, tol=1e-9)
        assert not cert.passed


def dsw_weights(g):
    """The trainer's dsw weights: Frank-Wolfe at its per-batch budget."""
    return wt.frank_wolfe_min_norm(g, max_iter=wt.DSW_MAX_ITER, tol=wt.DSW_TOL).weights


class TestDswWeights:
    def test_identical_teachers_tie_break(self):
        g = np.tile(np.array([0.5, -1.0, 2.0]), (2, 1))
        np.testing.assert_allclose(dsw_weights(g), [0.5, 0.5])

    def test_zero_teacher_absorbs(self):
        g = np.array([[3.0, 4.0], [0.0, 0.0]])
        np.testing.assert_allclose(dsw_weights(g), [0.0, 1.0], atol=1e-12)

    def test_adversarial_teacher_damps_direction(self, rng):
        g1 = rng.normal(size=50)
        g1 /= np.linalg.norm(g1)
        g2 = -g1 + 1e-3 * rng.normal(size=50)
        res = wt.frank_wolfe_min_norm(np.vstack([g1, g2]))
        assert np.linalg.norm(res.direction) < 0.01
        assert abs(res.weights[0] - 0.5) < 0.05
        # Uniform averaging of opposing unequal-length gradients keeps a
        # nonzero pull; the min-norm direction cancels it.
        g3 = -2.0 * g1
        res2 = wt.frank_wolfe_min_norm(np.vstack([g1, g3]))
        avg = 0.5 * (g1 + g3)
        assert np.linalg.norm(res2.direction) < 1e-10
        assert np.linalg.norm(avg) > 0.0

    def test_common_descent_property(self, rng):
        for _ in range(100):
            k = rng.integers(2, 5)
            g = rng.normal(size=(k, 12))
            res = wt.frank_wolfe_min_norm(g)
            d = res.direction
            norm_sq = float(d @ d)
            if res.converged and np.sqrt(norm_sq) > 1e-8:
                for row in g:
                    assert float(-d @ row) <= -norm_sq + 1e-6
