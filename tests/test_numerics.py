import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kdlab import numerics as nm
from kdlab.errors import (
    DimensionMismatch,
    NonFiniteInput,
    NonPositiveTemperature,
    NotADistribution,
)
from oracles import check_prob_matrix, kl_divergence

FINITE = st.floats(allow_nan=False, allow_infinity=False)
NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])


# The fast path sums the entries first; numpy warns when that sum
# overflows or meets opposite infinities, and the entrywise check decides.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestFiniteCheck:
    @given(
        st.integers(1, 6), st.integers(1, 6), st.data(), NON_FINITE,
    )
    def test_any_non_finite_entry_rejected(self, rows, cols, data, bad):
        a = np.array(data.draw(st.lists(FINITE, min_size=rows * cols, max_size=rows * cols)))
        a[data.draw(st.integers(0, a.size - 1))] = bad
        with pytest.raises(NonFiniteInput):
            nm.as_vector(a)
        with pytest.raises(NonFiniteInput):
            nm.as_matrix(a.reshape(rows, cols))

    @given(st.lists(FINITE, min_size=1, max_size=24))
    def test_finite_accepted(self, values):
        a = np.array(values)
        np.testing.assert_array_equal(nm.as_vector(a), a)
        np.testing.assert_array_equal(nm.as_matrix(a[None, :]), a[None, :])

    def test_finite_entries_whose_sum_overflows_accepted(self):
        for m in ([[1e308, 1e308]], [[-1.7e308], [-1.7e308]]):
            np.testing.assert_array_equal(nm.as_matrix(m), m)
        np.testing.assert_array_equal(nm.as_vector([1e308, 1e308]), [1e308, 1e308])

    def test_empty_accepted(self):
        assert nm.as_matrix(np.zeros((0, 3))).shape == (0, 3)
        assert nm.as_vector([]).shape == (0,)


class TestSoftmaxRows:
    def test_equal_logits_uniform(self):
        out = nm.softmax_rows([[0.0, 0.0, 0.0]], 3.7)
        np.testing.assert_allclose(out, [[1 / 3] * 3])

    def test_single_column(self):
        np.testing.assert_allclose(nm.softmax_rows([[5.0]], 1.0), [[1.0]])

    def test_hand_value(self):
        out = nm.softmax_rows([[1.0, 0.0]], 1.0)
        e = np.e
        np.testing.assert_allclose(out, [[e / (e + 1), 1 / (e + 1)]], atol=1e-6)

    def test_bad_temperature(self):
        for tau in (0.0, -1.0, float("nan")):
            with pytest.raises(NonPositiveTemperature):
                nm.softmax_rows([[1.0, 2.0]], tau)

    def test_rows_sum_to_one_extreme(self, rng):
        logits = rng.uniform(-1e4, 1e4, size=(40, 7))
        for tau in (0.01, 1.0, 4.0, 1e6):
            p = nm.softmax_rows(logits, tau)
            np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)
            check_prob_matrix(p)

    def test_shift_invariance(self, rng):
        logits = rng.normal(size=(10, 5))
        shifted = logits + rng.normal(size=(10, 1))
        a = nm.softmax_rows(logits, 2.0)
        b = nm.softmax_rows(shifted, 2.0)
        assert np.max(np.abs(a - b)) < 1e-9

    def test_empty_batch(self):
        out = nm.softmax_rows(np.zeros((0, 4)), 1.0)
        assert out.shape == (0, 4)


class TestKlDivergence:
    def test_identical_is_zero(self):
        assert kl_divergence([0.5, 0.5], [0.5, 0.5]) == 0.0
        assert kl_divergence([0.25, 0.75], [0.25, 0.75]) == 0.0

    def test_ln_two(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(
            np.log(2), abs=1e-6
        )

    def test_errors(self):
        with pytest.raises(DimensionMismatch):
            kl_divergence([1.0, 0.0], [0.3, 0.3, 0.4])
        with pytest.raises(NotADistribution):
            kl_divergence([0.9, 0.3], [0.5, 0.5])

    def test_nonnegative_and_zero_iff_equal(self, rng):
        for _ in range(300):
            n = rng.integers(2, 10)
            p = rng.dirichlet(np.ones(n))
            q = rng.dirichlet(np.ones(n))
            kl = kl_divergence(p, q)
            assert kl >= 0.0
            if np.max(np.abs(p - q)) > 1e-6:
                assert kl > 0.0
            assert kl_divergence(p, p) <= 1e-12


class TestPairwiseLogits:
    def test_orthonormal_rows(self):
        eye = np.eye(2)
        np.testing.assert_allclose(nm.pairwise_logits(eye, eye), np.eye(2))

    def test_direct_dots(self):
        out = nm.pairwise_logits([[1.0, 1.0]], [[2.0, 0.0], [0.0, 3.0]])
        np.testing.assert_allclose(out, [[2.0, 3.0]])

    def test_empty_batch(self):
        out = nm.pairwise_logits(np.zeros((0, 3)), np.ones((4, 3)))
        assert out.shape == (0, 4)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            nm.pairwise_logits(np.ones((2, 3)), np.ones((2, 4)))


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = nm.seeded_rng(42).normal(size=100)
        b = nm.seeded_rng(42).normal(size=100)
        np.testing.assert_array_equal(a, b)

    def test_keys_give_distinct_streams(self):
        a = nm.seeded_rng(42, 1).normal(size=10)
        b = nm.seeded_rng(42, 2).normal(size=10)
        assert np.any(a != b)
