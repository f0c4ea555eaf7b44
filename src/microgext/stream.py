"""Online recognition over a continuous frame stream.

A StreamRuntime owns a ring buffer of the most recent T frames for one
right-hand stream. Every pushed frame, once the buffer is warm, is
featurized together with its window, run through the model, and fed to the
FSM; a GestureEvent comes back on the frame where the FSM fires. Per-call
wall time is recorded for the latency benchmark.

Each inference also reads the swipe progress u of the newest frame
(``last_swipe_u``), from which the session runner derives a swipe's
direction.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

import numpy as np

from . import losses, network
from .fsm import FsmConfig, FsmState, GestureEvent, Phase, fsm_step
from .skeleton import (
    NUM_JOINTS,
    T_WINDOW,
    HandFrame,
    Handedness,
    MixedHandedness,
    features_from_arrays,
)
from .synth import CLASS_NAMES, SubState


class OutOfOrderFrame(ValueError):
    pass


def inference_thread_cap():
    """Context manager pinning BLAS pools to one thread.

    Per-window matrices are small enough that multi-threaded GEMM only adds
    wake-up stalls (tens of milliseconds at the tail); streaming loops wrap
    themselves in this to keep per-frame latency flat.
    """
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:  # pragma: no cover - environment without the helper
        return nullcontext()
    return threadpool_limits(limits=1, user_api="blas")


class ModelPredictor:
    """Adapts trained ModelParams to the runtime's predictor interface."""

    def __init__(self, params: network.ModelParams):
        self.params = params

    def __call__(self, window: np.ndarray):
        out = network.forward_batch(self.params, window[None])
        return out["class_probs"][0], out["state_logits"][0]


def swipe_progress(state_logits: np.ndarray):
    """Normalized thumb position u in [0, 1] from the newest frame's state
    probabilities, or None when the not-swiping state dominates.

    u is the expected sub-state over states 0-3 (state-4 mass excluded from
    the expectation) divided by 3.
    """
    probs = losses.softmax(np.asarray(state_logits)[-1])
    if probs[SubState.NOT_SWIPING] > 0.5:
        return None
    sub = probs[:4]
    total = sub.sum()
    if total <= 0.0:
        return None
    return float((sub / total) @ np.arange(4) / 3.0)


class StreamRuntime:
    """Single-consumer online recognizer for one hand stream."""

    def __init__(self, predictor, cfg: FsmConfig | None = None):
        if isinstance(predictor, network.ModelParams):
            predictor = ModelPredictor(predictor)
        self.predictor = predictor
        self.cfg = cfg or FsmConfig()
        self.state = FsmState.initial()
        self.last_timestamp: float | None = None
        self.latencies_ms: list[float] = []
        self.last_swipe_u: float | None = None
        self._streak_confidences: list[float] = []
        # rolling joint arrays of the last T frames, so each push stacks
        # nothing but the newest frame (keeps per-frame latency flat)
        self._pos_ring = np.zeros((T_WINDOW, NUM_JOINTS, 3))
        self._ori_ring = np.zeros((T_WINDOW, NUM_JOINTS, 4))
        self._ring_next = 0
        self._ring_count = 0

    def push_frame(self, frame: HandFrame) -> GestureEvent | None:
        """Ingest one frame; returns an event iff the FSM fires on it."""
        start = time.perf_counter()
        if frame.handedness is not Handedness.RIGHT:
            raise MixedHandedness("runtime consumes a right-hand stream")
        if self.last_timestamp is not None and frame.timestamp <= self.last_timestamp:
            raise OutOfOrderFrame(
                f"timestamp {frame.timestamp} not after {self.last_timestamp}"
            )
        self.last_timestamp = frame.timestamp
        self._pos_ring[self._ring_next] = frame.positions
        self._ori_ring[self._ring_next] = frame.orientations
        self._ring_next = (self._ring_next + 1) % T_WINDOW
        self._ring_count = min(self._ring_count + 1, T_WINDOW)
        if self._ring_count < T_WINDOW:
            self.latencies_ms.append((time.perf_counter() - start) * 1e3)
            return None

        order = (np.arange(T_WINDOW) + self._ring_next) % T_WINDOW
        window = features_from_arrays(self._pos_ring[order], self._ori_ring[order])
        probs, state_logits = self.predictor(window)
        self.last_swipe_u = swipe_progress(state_logits)
        self.state, fired = fsm_step(self.state, probs, self.cfg)

        event = None
        if fired is not None:
            confidences = self._streak_confidences + [float(probs[CLASS_NAMES.index(fired.value)])]
            event = GestureEvent(
                gesture=fired,
                fired_at=frame.timestamp,
                mean_confidence=float(np.mean(confidences[-self.cfg.n_consecutive :])),
            )
            self._streak_confidences = []
        elif self.state.phase is Phase.S2:
            if self.state.consecutive_count == 1:
                self._streak_confidences = []
            self._streak_confidences.append(float(probs[CLASS_NAMES.index(self.state.candidate.value)]))
        else:
            self._streak_confidences = []

        self.latencies_ms.append((time.perf_counter() - start) * 1e3)
        return event


def latency_percentiles(latencies_ms: list[float], warmup: int = T_WINDOW) -> dict[str, float]:
    """p50/p95/p99 of per-frame latency, excluding buffer warm-up calls."""
    samples = np.asarray(latencies_ms[warmup:])
    if len(samples) == 0:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
    return {
        "p50": float(np.percentile(samples, 50)),
        "p95": float(np.percentile(samples, 95)),
        "p99": float(np.percentile(samples, 99)),
    }
