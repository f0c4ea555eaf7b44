"""Forward-pass contracts: shapes, temperature behavior, per-sample purity;
and the training step on a single window."""

import warnings

import numpy as np
import pytest

from microgext.losses import BatchTooSmallForContrastive
from microgext.network import (
    INPUT_SHAPE,
    N_STATES,
    HyperParams,
    ModelParams,
    NonFiniteActivation,
    ShapeMismatch,
    forward_batch,
    init_params,
    loss_and_grads,
)


@pytest.fixture(scope="module")
def hp():
    return HyperParams(hidden=16)


@pytest.fixture(scope="module")
def params(hp):
    return init_params(hp, seed=1)


def forward_one(params, window):
    """Outputs for a single (T, J, D) window, batch axis dropped."""
    return {k: v[0] for k, v in forward_batch(params, window[None]).items()}


class TestForward:
    def test_zero_input_shapes_and_normalization(self, params, hp):
        out = forward_one(params, np.zeros(INPUT_SHAPE))
        assert out["class_logits"].shape == (8,)
        assert out["class_probs"].shape == (8,)
        assert out["state_logits"].shape == (20, 5)
        assert out["embedding"].shape == (hp.hidden,)
        assert abs(out["class_probs"].sum() - 1.0) < 1e-6
        assert abs(np.linalg.norm(out["embedding"]) - 1.0) < 1e-9

    def test_probs_sum_to_one_random(self, params, hp):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 0.2, INPUT_SHAPE)
        out = forward_one(params, x)
        assert abs(out["class_probs"].sum() - 1.0) < 1e-6

    def test_temperature_keeps_argmax_changes_confidence(self, params, hp):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 0.2, INPUT_SHAPE)
        out1 = forward_one(params, x)
        out2 = forward_one(params.with_tau(2.0), x)
        assert np.argmax(out1["class_probs"]) == np.argmax(out2["class_probs"])
        assert not np.isclose(out1["class_probs"].max(), out2["class_probs"].max())
        np.testing.assert_allclose(out1["class_logits"], out2["class_logits"])

    def test_argmax_probs_equals_argmax_logits(self, params, hp):
        rng = np.random.default_rng(2)
        for tau in (0.1, 1.0, 5.0):
            p = params.with_tau(tau)
            x = rng.normal(0, 0.3, INPUT_SHAPE)
            out = forward_one(p, x)
            assert np.argmax(out["class_probs"]) == np.argmax(out["class_logits"])

    def test_shape_mismatch(self, params):
        with pytest.raises(ShapeMismatch):
            forward_batch(params, np.zeros((1, 19, 11, 7)))

    def test_non_finite_input(self, params, hp):
        x = np.zeros(INPUT_SHAPE)
        x[0, 0, 0] = np.nan
        with pytest.raises(NonFiniteActivation):
            forward_batch(params, x[None])

    def test_batch_order_irrelevant_per_sample(self, params, hp):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 0.2, (5, *INPUT_SHAPE))
        out = forward_batch(params, x)
        perm = np.array([4, 2, 0, 3, 1])
        out_perm = forward_batch(params, x[perm])
        np.testing.assert_allclose(out_perm["class_logits"], out["class_logits"][perm], atol=1e-12)
        np.testing.assert_allclose(out_perm["state_logits"], out["state_logits"][perm], atol=1e-12)
        np.testing.assert_allclose(out_perm["embedding"], out["embedding"][perm], atol=1e-12)


class TestParams:
    def test_tau_must_be_positive(self, hp, params):
        with pytest.raises(ValueError):
            ModelParams(hp, params.tensors, tau=0.0)

    @pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf])
    def test_non_finite_tau_rejected(self, params, tau):
        with pytest.raises(NonFiniteActivation):
            params.with_tau(tau)

    def test_tensor_shapes_validated(self, hp, params):
        bad = dict(params.tensors)
        bad["w_class"] = np.zeros((3, 3))
        with pytest.raises(ShapeMismatch):
            ModelParams(hp, bad)

    def test_missing_tensor_rejected(self, hp, params):
        bad = dict(params.tensors)
        del bad["wq"]
        with pytest.raises(ShapeMismatch):
            ModelParams(hp, bad)

    def test_loss_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            HyperParams(alpha=0.5, beta=0.2, gamma=0.2)

    @pytest.mark.parametrize("field", ["alpha", "beta", "gamma", "learning_rate", "contrastive_temperature"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_weight_rate_or_temperature_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            HyperParams(**{field: value})

    @pytest.mark.parametrize("field", ["hidden", "batch_size", "plateau_patience", "max_epochs", "master_seed"])
    @pytest.mark.parametrize("value", [2.5, 4.0, True, "8"])
    def test_non_int_sizes_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            HyperParams(**{field: value})

    def test_init_deterministic(self, hp):
        a = init_params(hp, seed=9)
        b = init_params(hp, seed=9)
        assert list(a.tensors) == list(b.tensors)
        for name in a.tensors:
            np.testing.assert_array_equal(a.tensors[name], b.tensors[name])


class TestLossAndGrads:
    def test_single_window_has_finite_gradients_and_no_contrastive_term(self, params, hp):
        rng = np.random.default_rng(4)
        x = rng.normal(0.0, 0.08, (1, *INPUT_SHAPE))
        ys = rng.integers(0, N_STATES, (1, INPUT_SHAPE[0]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loss, comps, grads = loss_and_grads(params, x, np.array([2]), ys, hp)
        assert [w.category for w in caught] == [BatchTooSmallForContrastive]
        assert comps["contrastive"] == 0.0
        assert np.isfinite(loss)
        assert set(grads) == set(params.tensors)
        for name, grad in grads.items():
            assert grad.shape == params.tensors[name].shape, name
            assert np.all(np.isfinite(grad)), name

    def test_inputs_and_params_untouched_and_calls_repeat_exactly(self, params, hp):
        # the backward overwrites its cache buffers in place; none of them
        # may alias the caller's input or the parameter tensors
        rng = np.random.default_rng(5)
        x = rng.normal(0.0, 0.2, (6, *INPUT_SHAPE))
        yc = np.array([0, 0, 3, 3, 5, 5])
        ys = rng.integers(0, N_STATES, (6, INPUT_SHAPE[0]))
        x_before = x.tobytes()
        tensors_before = {name: t.tobytes() for name, t in params.tensors.items()}

        first = loss_and_grads(params, x, yc, ys, hp)
        outs = [forward_batch(params, x, want_cache=cache) for cache in (True, False)]
        second = loss_and_grads(params, x, yc, ys, hp)

        assert x.tobytes() == x_before
        assert {name: t.tobytes() for name, t in params.tensors.items()} == tensors_before
        assert first[0] == second[0] and first[1] == second[1]
        for name, grad in first[2].items():
            np.testing.assert_array_equal(grad, second[2][name], err_msg=name)
        for key in ("class_logits", "class_probs", "state_logits", "embedding"):
            np.testing.assert_array_equal(outs[0][key], outs[1][key], err_msg=key)
