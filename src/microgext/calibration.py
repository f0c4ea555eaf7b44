"""Post-hoc temperature scaling and expected calibration error.

The temperature divides the class logits before the softmax; it is fit by
minimizing validation negative log-likelihood with a 1-D golden-section
search over tau in [0.05, 10]. All other parameters stay frozen, and since
dividing by a positive scalar preserves the argmax, calibrated predictions
never change class.

ECE uses 15 equal-width confidence bins over [0, 1]: the mean absolute gap
between a bin's average confidence and its accuracy, weighted by bin mass.
"""

from __future__ import annotations

import numpy as np

from . import losses, network
from .network import ModelParams

TAU_LO = 0.05
TAU_HI = 10.0
TAU_TOL = 1e-5
ECE_BINS = 15


class EmptyValidation(ValueError):
    pass


def nll(logits: np.ndarray, labels: np.ndarray, tau: float) -> float:
    loss, _ = losses.cross_entropy(np.asarray(logits) / tau, labels)
    return loss


def golden_section(f, lo: float, hi: float) -> float:
    """Minimize a unimodal scalar function on [lo, hi], to within TAU_TOL."""
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > TAU_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def fit_temperature(logits: np.ndarray, labels: np.ndarray) -> float:
    """Tau minimizing NLL of softmax(logits / tau) on the given set."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2 or len(logits) == 0:
        raise EmptyValidation("temperature fitting needs a nonempty validation set")
    labels = np.asarray(labels)
    return float(golden_section(lambda t: nll(logits, labels, t), TAU_LO, TAU_HI))


def calibrate(params: ModelParams, windows: np.ndarray, labels: np.ndarray) -> ModelParams:
    """Fit tau on validation windows and return params with tau replaced.

    The windows run through the network EVAL_BATCH at a time, which bounds
    the forward pass's activations. tau is snapped to the float32 grid so
    checkpoints round-trip exactly.
    """
    windows = np.asarray(windows)
    if windows.ndim != 4 or len(windows) == 0:
        raise EmptyValidation("calibration needs a nonempty validation set")
    logits = np.concatenate([
        network.forward_batch(params, windows[i : i + network.EVAL_BATCH])["class_logits"]
        for i in range(0, len(windows), network.EVAL_BATCH)
    ])
    tau = fit_temperature(logits, labels)
    return params.with_tau(float(np.float32(tau)))


def expected_calibration_error(confidences: np.ndarray, correct: np.ndarray) -> float:
    """Weighted |accuracy - confidence| gap over ECE_BINS equal-width bins."""
    confidences = np.asarray(confidences, dtype=np.float64)
    correct = np.asarray(correct, dtype=np.float64)
    n = len(confidences)
    if n == 0:
        return 0.0
    bins = np.clip((confidences * ECE_BINS).astype(np.int64), 0, ECE_BINS - 1)
    ece = 0.0
    for b in range(ECE_BINS):
        mask = bins == b
        size = int(mask.sum())
        if size == 0:
            continue
        ece += (size / n) * abs(correct[mask].mean() - confidences[mask].mean())
    return float(ece)


def ece_for_logits(logits: np.ndarray, labels: np.ndarray, tau: float) -> float:
    probs = losses.softmax(np.asarray(logits) / tau)
    conf = probs.max(axis=-1)
    correct = probs.argmax(axis=-1) == np.asarray(labels)
    return expected_calibration_error(conf, correct)
