import numpy as np
import pytest

from kdlab import contrastive as ct
from kdlab import numerics as nm
from kdlab.distill import TeacherOutputs
from kdlab.errors import EmptyBank, LabelOutOfRange, NotADistribution
from oracles import central_diff_grad, fraction_within


def unit_rows(rng, n, d):
    m = rng.normal(size=(n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


class TestProbs:
    """The contrastive distributions, as ``TeacherOutputs.from_features``
    computes them for every teacher."""

    def test_single_candidate(self):
        out = TeacherOutputs.from_features(np.eye(1), np.eye(1), 1.0)
        np.testing.assert_allclose(out.i2t_probs, [[1.0]])
        np.testing.assert_allclose(out.t2i_probs, [[1.0]])

    def test_orthonormal_hand_softmax(self):
        eye = np.eye(2)
        out = TeacherOutputs.from_features(eye, eye, 1.0)
        e = np.e
        expected = np.array(
            [[e / (e + 1), 1 / (e + 1)], [1 / (e + 1), e / (e + 1)]]
        )
        np.testing.assert_allclose(out.i2t_probs, expected, atol=1e-6)

    def test_huge_tau_flattens(self, rng):
        out = TeacherOutputs.from_features(unit_rows(rng, 6, 4), unit_rows(rng, 6, 4), 1e6)
        np.testing.assert_allclose(out.i2t_probs, 1.0 / 6, atol=1e-5)

    def test_symmetric_inputs_transpose_consistent(self, rng):
        u = unit_rows(rng, 5, 3)
        out = TeacherOutputs.from_features(u, u, 2.0)
        np.testing.assert_allclose(out.t2i_probs, out.i2t_probs)

    def test_rows_sum_to_one(self, rng):
        out = TeacherOutputs.from_features(unit_rows(rng, 7, 5), unit_rows(rng, 4, 5), 0.7)
        for p in (out.i2t_probs, out.t2i_probs):
            np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)

    def test_composition_matches_primitives(self, rng):
        # The two directions must coincide with softmax of the pairwise
        # logit matrix and of its transpose.
        u = unit_rows(rng, 6, 4)
        w = unit_rows(rng, 9, 4)
        tau = 3.0
        out = TeacherOutputs.from_features(u, w, tau)
        sims = nm.pairwise_logits(u, w)
        assert np.max(np.abs(out.i2t_probs - nm.softmax_rows(sims, tau))) < 1e-12
        assert np.max(np.abs(out.t2i_probs - nm.softmax_rows(sims.T, tau))) < 1e-12

    def test_rejects_non_unit_rows(self, rng):
        with pytest.raises(NotADistribution):
            ct.ContrastiveBatch(rng.normal(size=(3, 4)) * 5, unit_rows(rng, 3, 4), 1.0)


class TestClipLoss:
    def test_identical_rows_ln_b(self, rng):
        row = unit_rows(rng, 1, 6)[0]
        u = np.tile(row, (4, 1))
        loss = ct.clip_loss(ct.ContrastiveBatch(u, u, 1.0), np.arange(4))
        assert loss.value == pytest.approx(np.log(4), abs=1e-9)

    def test_sharp_orthonormal_near_zero(self):
        eye = np.eye(2)
        loss = ct.clip_loss(ct.ContrastiveBatch(eye, eye, 0.05), np.arange(2))
        assert loss.value < 1e-8

    def test_nonnegative(self, rng):
        for _ in range(20):
            u = unit_rows(rng, 5, 3)
            w = unit_rows(rng, 5, 3)
            loss = ct.clip_loss(ct.ContrastiveBatch(u, w, 1.3), np.arange(5))
            assert loss.value >= 0.0

    def test_label_out_of_range(self, rng):
        u = unit_rows(rng, 3, 4)
        with pytest.raises(LabelOutOfRange):
            ct.clip_loss(ct.ContrastiveBatch(u, u, 1.0), np.array([0, 1, 3]))

    def test_permutation_invariance(self, rng):
        u = unit_rows(rng, 6, 4)
        w = unit_rows(rng, 6, 4)
        labels = np.arange(6)
        base = ct.clip_loss(ct.ContrastiveBatch(u, w, 0.8), labels).value
        perm = rng.permutation(6)
        inv = np.argsort(perm)
        permuted = ct.clip_loss(
            ct.ContrastiveBatch(u[perm], w[perm], 0.8), inv[labels[perm]]
        ).value
        assert permuted == pytest.approx(base, abs=1e-12)

    def test_gradients_match_finite_differences(self, rng):
        b_sz, d = 3, 4
        u = unit_rows(rng, b_sz, d)
        w = unit_rows(rng, b_sz, d)
        labels = np.arange(b_sz)
        loss = ct.clip_loss(ct.ContrastiveBatch(u, w, 0.9), labels)

        # FD treats features as free inputs (no re-normalization): the loss
        # gradient is defined w.r.t. the feature matrices as given.
        def value_u(a):
            return ct.clip_loss(_raw_batch(a, w, 0.9), labels).value

        def value_w(a):
            return ct.clip_loss(_raw_batch(u, a, 0.9), labels).value

        assert fraction_within(loss.grad_image, central_diff_grad(value_u, u)) >= 0.99
        assert fraction_within(loss.grad_text, central_diff_grad(value_w, w)) >= 0.99

    def test_class_bank_mode_with_repeated_labels(self, rng):
        u = unit_rows(rng, 6, 5)
        bank = unit_rows(rng, 3, 5)
        labels = np.array([0, 0, 1, 2, 2, 2])
        loss = ct.clip_loss(ct.ContrastiveBatch(u, bank, 1.1), labels)
        assert np.isfinite(loss.value)

        def value_u(a):
            return ct.clip_loss(_raw_batch(a, bank, 1.1), labels).value

        assert fraction_within(loss.grad_image, central_diff_grad(value_u, u)) >= 0.99

    def test_mixup_reduces_to_hard_at_lam_one(self, rng):
        u = unit_rows(rng, 4, 3)
        w = unit_rows(rng, 4, 3)
        labels = np.arange(4)
        mix = ct.MixedLabels(labels_b=np.array([3, 2, 1, 0]), lam=np.ones(4))
        a = ct.clip_loss(ct.ContrastiveBatch(u, w, 1.0), labels, mix)
        b = ct.clip_loss(ct.ContrastiveBatch(u, w, 1.0), labels)
        assert a.value == pytest.approx(b.value, abs=1e-12)

    def test_mixup_gradients(self, rng):
        u = unit_rows(rng, 4, 3)
        bank = unit_rows(rng, 3, 3)
        labels = np.array([0, 1, 2, 0])
        mix = ct.MixedLabels(
            labels_b=np.array([1, 2, 0, 2]), lam=rng.uniform(0.2, 0.8, size=4)
        )
        loss = ct.clip_loss(ct.ContrastiveBatch(u, bank, 1.0), labels, mix)

        def value_u(a):
            return ct.clip_loss(_raw_batch(a, bank, 1.0), labels, mix).value

        assert fraction_within(loss.grad_image, central_diff_grad(value_u, u)) >= 0.99


def _raw_batch(u, w, tau):
    """Bypass the unit-norm validation for finite-difference probes."""
    b = object.__new__(ct.ContrastiveBatch)
    object.__setattr__(b, "image_features", np.asarray(u, dtype=np.float64))
    object.__setattr__(b, "text_features", np.asarray(w, dtype=np.float64))
    object.__setattr__(b, "tau", tau)
    return b


class TestClassify:
    def test_empty_bank(self, rng):
        with pytest.raises(EmptyBank):
            ct.rank_of_label(unit_rows(rng, 2, 3), np.zeros((0, 3)), [0, 0], 1.0)

    def test_rank_of_label(self, rng):
        bank = np.eye(3)
        u = np.array([[0.0, 1.0, 0.0]])
        ranks = ct.rank_of_label(u, bank, [1], 1.0)
        assert ranks[0] == 0
