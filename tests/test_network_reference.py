"""The production network against the plain reference in network_reference.

The production pass works on flat per-joint rows, pools them with one
inv-weighted batched matmul and runs attention as batched matmul, so it
sums in another order than the reference: results agree to
float64 rounding, not bit for bit. The tolerances are fixed from float64
epsilon (2.2e-16) with room for the depth of the graph: 1e-12 relative for
the loss and the logits, 1e-10 relative for every gradient tensor.
"""

import warnings

import numpy as np
import pytest

from microgext import network
from microgext.network import INPUT_SHAPE, N_CLASSES, N_STATES, HyperParams

from . import network_reference as reference

OUTPUT_RTOL = 1e-12
GRAD_RTOL = 1e-10


def max_rel(got: np.ndarray, want: np.ndarray) -> float:
    """Largest deviation relative to the reference tensor's largest entry."""
    scale = np.max(np.abs(want))
    return float(np.max(np.abs(got - want)) / scale) if scale > 0 else float(np.max(np.abs(got)))


def probe(hidden: int, batch: int, seed: int):
    params = network.init_params(HyperParams(hidden=hidden), seed=seed)
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 0.2, (batch, *INPUT_SHAPE))
    yc = rng.integers(0, N_CLASSES, batch)
    ys = rng.integers(0, N_STATES, (batch, INPUT_SHAPE[0]))
    return params, x, yc, ys


@pytest.mark.parametrize("hidden", [8, 64, 256])
@pytest.mark.parametrize("batch", [1, 4, 7, 32])
@pytest.mark.parametrize("seed", [0, 1])
def test_loss_logits_and_gradients_match_reference(hidden, batch, seed):
    params, x, yc, ys = probe(hidden, batch, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a batch of one has no contrastive pairs
        loss, comps, grads = network.loss_and_grads(params, x, yc, ys)
        ref_loss, ref_comps, ref_grads = reference.loss_and_grads(params, x, yc, ys)

    assert abs(loss - ref_loss) <= OUTPUT_RTOL * abs(ref_loss)
    for name in ref_comps:
        assert abs(comps[name] - ref_comps[name]) <= OUTPUT_RTOL * max(abs(ref_comps[name]), 1e-300), name
    assert set(grads) == set(ref_grads)
    for name, ref_grad in ref_grads.items():
        assert grads[name].shape == ref_grad.shape, name
        assert max_rel(grads[name], ref_grad) <= GRAD_RTOL, name

    out, ref_out = network.forward_batch(params, x), reference.forward_batch(params, x)
    for key in ("class_logits", "state_logits", "embedding", "class_probs"):
        assert max_rel(out[key], ref_out[key]) <= OUTPUT_RTOL, key


@pytest.mark.parametrize("hidden", [8, 64, 256])
def test_joint_stage_matches_reference(hidden):
    params, x, _, _ = probe(hidden, 7, seed=2)
    h0 = network.joint_stage(x, network.input_weight(params))["h0"]
    ref_h0 = reference.joint_stage(params, x)["h0"]
    assert h0.shape == ref_h0.shape == (7, INPUT_SHAPE[0], hidden)
    assert max_rel(h0, ref_h0) <= OUTPUT_RTOL


@pytest.mark.parametrize("hidden", [8, 256])
def test_joint_stage_on_one_frame_equals_its_row_of_the_batch(hidden):
    # the streaming predictor runs the stage on one (J, D) frame per push
    params, x, _, _ = probe(hidden, 4, seed=3)
    w_in = network.input_weight(params)
    batched = network.joint_stage(x, w_in)["h0"]
    for b, t in [(0, 0), (1, 7), (3, INPUT_SHAPE[0] - 1)]:
        one = network.joint_stage(x[b, t], w_in)["h0"]
        assert one.shape == (hidden,)
        np.testing.assert_array_equal(one, batched[b, t])
