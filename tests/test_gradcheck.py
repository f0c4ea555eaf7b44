"""Analytic gradients against central finite differences.

Finite differences are only valid where the loss is differentiable, so the
probe point is selected (deterministically) with every ReLU preactivation
bounded away from zero by more than the perturbation can move it. The
hidden width is 8 and the tolerance is a max relative error of 1e-3 at
eps = 1e-4, with the relative error floored at 1e-4 magnitude.
"""

import time

import numpy as np

from microgext import losses, network
from microgext.network import HyperParams, ModelParams
from microgext.skeleton import T_WINDOW

EPS = 1e-4
REL_TOL = 1e-3
KINK_MARGIN = 4e-4


def rel_error(a: np.ndarray, n: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-4)
    return float(np.max(np.abs(a - n) / denom))


def batch_loss(params: ModelParams, x, class_labels, state_labels) -> float:
    """Total training loss of a batch, from the forward pass alone."""
    out = network.forward_batch(params, x)
    with np.errstate(all="raise"):
        total, _, _ = losses.total_loss(
            out["class_logits"], out["state_logits"], out["embedding"], class_labels, state_labels
        )
    return float(total)


def pick_probe(hp: HyperParams, batch: int, with_pairs: bool):
    """Deterministically find (params, x, labels) clear of ReLU kinks."""
    for seed in range(200):
        rng = np.random.default_rng(seed)
        params = network.init_params(hp, seed=seed)
        x = rng.normal(0.0, 0.08, (batch, *network.INPUT_SHAPE))
        cache = network.forward_batch(params, x, want_cache=True)
        if np.abs(cache["lin"]).min() <= KINK_MARGIN:
            continue
        if np.abs(cache["e_norms"]).min() < 1e-3:
            continue
        if with_pairs:
            yc = np.asarray([0, 0, 3, 3][:batch])
        else:
            yc = rng.integers(0, network.N_CLASSES, batch)
        ys = rng.integers(0, network.N_STATES, (batch, T_WINDOW))
        return params, x, yc, ys
    raise AssertionError("no kink-free probe point found")


def numerical_gradients(params: ModelParams, x, yc, ys) -> dict:
    grads = {}
    for name, base in params.tensors.items():
        num = np.zeros_like(base)
        it = np.nditer(base, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            plus = {k: (v.copy() if k == name else v) for k, v in params.tensors.items()}
            plus[name][idx] += EPS
            minus = {k: (v.copy() if k == name else v) for k, v in params.tensors.items()}
            minus[name][idx] -= EPS
            lp = batch_loss(ModelParams(params.hp, plus), x, yc, ys)
            lm = batch_loss(ModelParams(params.hp, minus), x, yc, ys)
            num[idx] = (lp - lm) / (2 * EPS)
            it.iternext()
        grads[name] = num
    return grads


def run_gradcheck(with_pairs: bool) -> dict[str, float]:
    hp = HyperParams(hidden=8)
    batch = 4 if with_pairs else 1
    params, x, yc, ys = pick_probe(hp, batch, with_pairs)
    _, comps, analytic = network.loss_and_grads(params, x, yc, ys)
    if with_pairs:
        assert comps["contrastive"] > 0.0, "contrastive term must be active"
    numeric = numerical_gradients(params, x, yc, ys)
    return {name: rel_error(analytic[name], numeric[name]) for name in params.tensors}


def test_gradcheck_all_components_active():
    errors = run_gradcheck(with_pairs=True)
    worst = max(errors.values())
    assert worst < REL_TOL, errors


def test_gradcheck_single_sample_batch():
    # batch of one: class and state terms only (contrastive warns to zero)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        errors = run_gradcheck(with_pairs=False)
    assert max(errors.values()) < REL_TOL, errors


def test_tau_has_no_training_gradient():
    # training losses act on pre-temperature logits: perturbing tau must not
    # move the loss at all
    hp = HyperParams(hidden=8)
    params, x, yc, ys = pick_probe(hp, 4, with_pairs=True)
    base = batch_loss(params, x, yc, ys)
    shifted = batch_loss(params.with_tau(3.0), x, yc, ys)
    assert base == shifted


def test_gradcheck_runtime_budget():
    start = time.perf_counter()
    run_gradcheck(with_pairs=True)
    assert time.perf_counter() - start < 30.0
