"""Forward-pass contracts: shapes, temperature behavior, per-sample purity;
and the training step on a single window."""

import warnings

import numpy as np
import pytest

from microgext import stream
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


HP_FIELDS = set(HyperParams.__dataclass_fields__)


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

    # the loss weights, the contrastive temperature, the batch size and the
    # plateau patience are module constants, not fields: HyperParams rejects
    # them as unknown keywords, naming the key
    @pytest.mark.parametrize("field", ["alpha", "beta", "gamma", "learning_rate", "contrastive_temperature"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_weight_rate_or_temperature_rejected(self, field, value):
        with pytest.raises(ValueError if field in HP_FIELDS else TypeError, match=field):
            HyperParams(**{field: value})

    @pytest.mark.parametrize("field", ["hidden", "batch_size", "plateau_patience", "max_epochs", "master_seed"])
    @pytest.mark.parametrize("value", [2.5, 4.0, True, "8"])
    def test_non_int_sizes_rejected(self, field, value):
        with pytest.raises(ValueError if field in HP_FIELDS else TypeError, match=field):
            HyperParams(**{field: value})

    def test_init_deterministic(self, hp):
        a = init_params(hp, seed=9)
        b = init_params(hp, seed=9)
        assert list(a.tensors) == list(b.tensors)
        for name in a.tensors:
            np.testing.assert_array_equal(a.tensors[name], b.tensors[name])


class TestLossAndGrads:
    def test_single_window_has_finite_gradients_and_no_contrastive_term(self, params):
        rng = np.random.default_rng(4)
        x = rng.normal(0.0, 0.08, (1, *INPUT_SHAPE))
        ys = rng.integers(0, N_STATES, (1, INPUT_SHAPE[0]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loss, comps, grads = loss_and_grads(params, x, np.array([2]), ys)
        assert [w.category for w in caught] == [BatchTooSmallForContrastive]
        assert comps["contrastive"] == 0.0
        assert np.isfinite(loss)
        assert set(grads) == set(params.tensors)
        for name, grad in grads.items():
            assert grad.shape == params.tensors[name].shape, name
            assert np.all(np.isfinite(grad)), name

    def test_inputs_and_params_untouched_and_calls_repeat_exactly(self, params):
        # the backward overwrites its cache buffers in place; none of them
        # may alias the caller's input or the parameter tensors
        rng = np.random.default_rng(5)
        x = rng.normal(0.0, 0.2, (6, *INPUT_SHAPE))
        yc = np.array([0, 0, 3, 3, 5, 5])
        ys = rng.integers(0, N_STATES, (6, INPUT_SHAPE[0]))
        x_before = x.tobytes()
        tensors_before = {name: t.tobytes() for name, t in params.tensors.items()}

        first = loss_and_grads(params, x, yc, ys)
        outs = [forward_batch(params, x, want_cache=cache) for cache in (True, False)]
        second = loss_and_grads(params, x, yc, ys)

        assert x.tobytes() == x_before
        assert {name: t.tobytes() for name, t in params.tensors.items()} == tensors_before
        assert first[0] == second[0] and first[1] == second[1]
        for name, grad in first[2].items():
            np.testing.assert_array_equal(grad, second[2][name], err_msg=name)
        for key in ("class_logits", "class_probs", "state_logits", "embedding"):
            np.testing.assert_array_equal(outs[0][key], outs[1][key], err_msg=key)


def as_float32(params: ModelParams) -> ModelParams:
    """The params with their tensors cast to float32, as training casts them."""
    return ModelParams(params.hp, {k: v.astype(np.float32) for k, v in params.tensors.items()}, params.tau)


class TestFloat32Step:
    """The training step on float32 parameters: the gradient check stays
    float64, so these pin the float32 pass to the float64 one."""

    @pytest.fixture(scope="class")
    def step_inputs(self):
        # the training configuration: hidden 64, a batch of 32 with pairs
        params32 = as_float32(init_params(HyperParams(hidden=64), seed=6))
        rng = np.random.default_rng(7)
        x = rng.normal(0.0, 0.2, (32, *INPUT_SHAPE)).astype(np.float32)
        yc = np.repeat(np.arange(8), 4)
        ys = rng.integers(0, N_STATES, (32, INPUT_SHAPE[0]))
        return params32, x, yc, ys

    def test_every_cache_and_gradient_tensor_is_float32(self, step_inputs):
        # a float64 constant anywhere in the pass would upcast what follows it
        params32, x, yc, ys = step_inputs
        cache = forward_batch(params32, x.astype(np.float64), want_cache=True)
        assert {k: v.dtype for k, v in cache.items()} == {k: np.dtype(np.float32) for k in cache}
        _, _, grads = loss_and_grads(params32, x, yc, ys)
        assert {k: g.dtype for k, g in grads.items()} == {k: np.dtype(np.float32) for k in grads}

    def test_gradients_agree_with_the_float64_step(self, step_inputs):
        params32, x, yc, ys = step_inputs
        params64 = ModelParams(params32.hp, {k: v.astype(np.float64) for k, v in params32.tensors.items()})
        loss32, _, grads32 = loss_and_grads(params32, x, yc, ys)
        loss64, _, grads64 = loss_and_grads(params64, x.astype(np.float64), yc, ys)
        assert loss32 == pytest.approx(loss64, rel=1e-5)
        for name, g64 in grads64.items():
            worst = np.abs(grads32[name] - g64).max()
            assert worst <= 1e-4 * np.abs(g64).max(), (name, worst)

    def test_gradients_bit_identical_with_one_and_two_blas_threads(self, step_inputs):
        calls = stream._openblas_thread_calls()
        if calls is None:
            pytest.skip("numpy's bundled OpenBLAS not found")
        setter, getter = calls
        params32, x, yc, ys = step_inputs
        previous = getter()
        try:
            results = []
            for threads in (1, 2):
                setter(threads)
                results.append(loss_and_grads(params32, x, yc, ys))
        finally:
            setter(previous)
        (loss1, _, grads1), (loss2, _, grads2) = results
        assert loss1 == loss2
        for name, grad in grads1.items():
            np.testing.assert_array_equal(grad, grads2[name], err_msg=name)
