"""Loss terms against hand computations and analytic values."""

import math

import numpy as np
import pytest

from microgext import losses


def reference_softmax(logits: np.ndarray) -> np.ndarray:
    """The three-temporary formula ``losses.softmax`` must equal bit for bit."""
    m = logits.max(axis=-1, keepdims=True)
    e = np.exp(logits - m)
    return e / e.sum(axis=-1, keepdims=True)


class TestSoftmax:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(8,), (20, 5), (32, 20, 20)])
    def test_matches_reference_bit_for_bit(self, dtype, shape):
        rng = np.random.default_rng(sum(shape))
        logits = rng.normal(0.0, 8.0, shape).astype(dtype)
        before = logits.copy()
        got = losses.softmax(logits)
        want = reference_softmax(logits)
        assert got.dtype == want.dtype == dtype
        assert got.shape == shape
        assert got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(logits, before)  # never writes to its input

    def test_strided_input_matches_reference(self):
        logits = np.random.default_rng(5).normal(0.0, 3.0, (32, 20, 20)).transpose(0, 2, 1)
        before = logits.copy()
        got = losses.softmax(logits)
        assert got.tobytes() == reference_softmax(logits).tobytes()
        np.testing.assert_array_equal(logits, before)


class TestCrossEntropy:
    def test_uniform_logits_analytic(self):
        logits = np.zeros((4, 8))
        loss, _ = losses.cross_entropy(logits, np.array([0, 1, 2, 3]))
        assert abs(loss - math.log(8)) < 1e-12

    def test_saturated_logits_near_zero(self):
        logits = np.full((3, 8), -20.0)
        labels = np.array([2, 5, 7])
        for i, y in enumerate(labels):
            logits[i, y] = 20.0
        loss, _ = losses.cross_entropy(logits, labels)
        assert loss < 1e-6

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(3, 5))
        labels = np.array([0, 3, 1])
        _, grad = losses.cross_entropy(logits, labels)
        eps = 1e-6
        for i in range(3):
            for j in range(5):
                lp, lm = logits.copy(), logits.copy()
                lp[i, j] += eps
                lm[i, j] -= eps
                num = (losses.cross_entropy(lp, labels)[0] - losses.cross_entropy(lm, labels)[0]) / (2 * eps)
                assert abs(num - grad[i, j]) < 1e-6


class TestContrastive:
    def test_two_identical_same_class_is_zero(self):
        e = np.tile(np.array([1.0, 0.0, 0.0]), (2, 1))
        loss, _ = losses.contrastive_loss(e, np.array([1, 1]))
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_all_distinct_classes_warns_and_zero(self):
        rng = np.random.default_rng(1)
        e = rng.normal(size=(4, 8))
        e /= np.linalg.norm(e, axis=1, keepdims=True)
        with pytest.warns(losses.BatchTooSmallForContrastive):
            loss, _ = losses.contrastive_loss(e, np.array([0, 1, 2, 3]))
        assert loss == 0.0

    def test_batch_of_one_warns_and_returns_zero(self):
        # a single sample has no positive pair, so it takes the no-pair path
        with pytest.warns(losses.BatchTooSmallForContrastive) as record:
            loss, grad = losses.contrastive_loss(np.ones((1, 4)), np.array([0]))
        assert len(record) == 1
        assert loss == 0.0
        assert grad.shape == (1, 4) and not grad.any()

    def test_four_sample_hand_computed(self):
        # scalar hand computation, fully written out
        kappa = losses.CONTRASTIVE_TEMPERATURE
        e = np.array(
            [
                [1.0, 0.0],
                [0.8, 0.6],
                [0.0, 1.0],
                [-0.6, 0.8],
            ]
        )
        y = np.array([0, 0, 1, 1])
        sims = e @ e.T / kappa

        expected_rows = []
        for i in range(4):
            pos = [j for j in range(4) if j != i and y[j] == y[i]]
            allj = [j for j in range(4) if j != i]
            num = sum(math.exp(sims[i, j]) for j in pos)
            den = sum(math.exp(sims[i, j]) for j in allj)
            expected_rows.append(-math.log(num / den))
        expected = sum(expected_rows) / 4

        loss, _ = losses.contrastive_loss(e, y)
        assert loss == pytest.approx(expected, abs=1e-6)

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(2)
        e = rng.normal(size=(5, 6))
        e /= np.linalg.norm(e, axis=1, keepdims=True)
        y = np.array([0, 0, 1, 1, 1])
        _, grad = losses.contrastive_loss(e, y)
        eps = 1e-6
        for i in range(5):
            for j in range(6):
                ep, em = e.copy(), e.copy()
                ep[i, j] += eps
                em[i, j] -= eps
                num = (
                    losses.contrastive_loss(ep, y)[0] - losses.contrastive_loss(em, y)[0]
                ) / (2 * eps)
                assert abs(num - grad[i, j]) < 1e-5


class TestTotalLoss:
    def test_weighted_decomposition(self):
        # component-sum oracle: each term computed independently
        rng = np.random.default_rng(3)
        b, t = 6, 20
        class_logits = rng.normal(size=(b, 8))
        state_logits = rng.normal(size=(b, t, 5))
        emb = rng.normal(size=(b, 16))
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        yc = np.array([0, 0, 1, 2, 2, 3])
        ys = rng.integers(0, 5, size=(b, t))

        total, comps, _ = losses.total_loss(class_logits, state_logits, emb, yc, ys)
        l_class, _ = losses.cross_entropy(class_logits, yc)
        l_state, _ = losses.cross_entropy(state_logits, ys)
        l_contr, _ = losses.contrastive_loss(emb, yc)
        assert abs(total - (0.6 * l_class + 0.2 * l_state + 0.2 * l_contr)) < 1e-9
        assert comps["class"] == pytest.approx(l_class)

    def test_uniform_class_term(self):
        b, t = 4, 20
        class_logits = np.zeros((b, 8))
        state_logits = np.full((b, t, 5), 3.0)  # uniform too
        emb = np.tile(np.array([1.0] + [0.0] * 7), (b, 1))
        yc = np.array([0, 0, 1, 1])
        ys = np.zeros((b, t), dtype=int)
        total, comps, _ = losses.total_loss(class_logits, state_logits, emb, yc, ys)
        assert comps["class"] == pytest.approx(math.log(8), abs=1e-12)

    def test_perfect_batch_small_loss(self):
        b, t = 2, 20
        yc = np.array([3, 3])
        ys = np.full((b, t), 2)
        class_logits = np.full((b, 8), -20.0)
        class_logits[:, 3] = 20.0
        state_logits = np.full((b, t, 5), -20.0)
        state_logits[:, :, 2] = 20.0
        emb = np.tile(np.array([0.0, 1.0, 0.0]), (b, 1))
        total, _, _ = losses.total_loss(class_logits, state_logits, emb, yc, ys)
        assert total < 0.01

    def test_batch_of_one_warns(self):
        with pytest.warns(losses.BatchTooSmallForContrastive):
            total, comps, _ = losses.total_loss(
                np.zeros((1, 8)), np.zeros((1, 20, 5)), np.ones((1, 4)), np.array([0]),
                np.zeros((1, 20), dtype=int),
            )
        assert comps["contrastive"] == 0.0
