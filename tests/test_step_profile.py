"""tools/step_profile.py: per-statement timings of the training step."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from microgext import network, synth
from microgext.network import INPUT_SHAPE, N_STATES, HyperParams

TOOL = Path(__file__).resolve().parent.parent / "tools" / "step_profile.py"


@pytest.fixture(scope="module")
def profile_tool():
    spec = importlib.util.spec_from_file_location("step_profile", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tiny_fold_times_every_statement(profile_tool, capsys):
    originals = {name: getattr(network, name) for name in profile_tool.FUNCTIONS}
    dataset = synth.make_dataset(3, 6, 6, seed=0)
    blocks = profile_tool.profile(dataset, HyperParams(hidden=16, max_epochs=1), fold=0)
    assert {name: getattr(network, name) for name in profile_tool.FUNCTIONS} == originals

    blocks = {b["function"]: b for b in json.loads(json.dumps(blocks))}
    assert set(blocks) == {f"network.{name}" for name in profile_tool.FUNCTIONS}
    step = blocks["network.loss_and_grads"]
    assert step["calls"] > 0 and step["median_ms"] > 0
    forward = [r for r in step["statements"] if r["statement"].startswith("cache = forward_batch(")]
    assert len(forward) == 1 and forward[0]["calls"] == step["calls"]
    # every call of a function runs its unconditional statements once
    assert blocks["network.joint_stage"]["statements"][0]["calls"] == blocks["network.joint_stage"]["calls"]
    profile_tool.print_summary(list(blocks.values()))
    assert "network.forward_batch" in capsys.readouterr().out


def test_timed_function_returns_what_the_original_returns(profile_tool):
    params = network.init_params(HyperParams(hidden=8), seed=2)
    rng = np.random.default_rng(2)
    x = rng.normal(0.0, 0.2, (4, *INPUT_SHAPE))
    yc, ys = np.array([0, 0, 3, 3]), rng.integers(0, N_STATES, (4, INPUT_SHAPE[0]))
    times = profile_tool.StatementTimes()
    timed = profile_tool.timed_function(network.loss_and_grads, "network.loss_and_grads", times)

    loss, comps, grads = timed(params, x, yc, ys)
    want_loss, want_comps, want_grads = network.loss_and_grads(params, x, yc, ys)
    assert loss == want_loss and comps == want_comps
    for name, grad in want_grads.items():
        np.testing.assert_array_equal(grads[name], grad, err_msg=name)
    assert len(times.calls["network.loss_and_grads"]) == 1
    assert all(len(samples) == 1 for samples in times.statements.values())
