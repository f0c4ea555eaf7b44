"""Online recognition over a continuous frame stream.

A StreamRuntime consumes one right-hand stream. Every pushed frame is
featurized on its own and handed to the predictor, which keeps what the
window needs of it; once T frames are in, each push runs the predictor over
the last T of them and feeds the class probabilities to the FSM. A
GestureEvent comes back on the frame where the FSM fires. Per-push wall
time goes to a fixed-bucket latency histogram.

The model's predictor is incremental (Transformer-XL-style state reuse,
Dai et al. 2019). The per-joint stage is frame-local, and the temporal
embedding TE enters every projection linearly: (h0 + TE[p]) @ W =
h0 @ W + (TE @ W)[p]. The attention scores are one bilinear form,
q kᵀ / √H = (h Wq Wkᵀ / √H) hᵀ, so K folds into the query side and the
keys are the rows h themselves; both heads read V only through linear
maps, so V folds into them as well. A push runs the per-joint stage and one
projection on the newest frame only, into a ring of the last T frames'
rows, and a full window costs the (T, T) attention and two small products.
The embedding head never runs online.

Each inference also reads the swipe progress u of the newest frame
(``last_swipe_u``), from which the session runner derives a swipe's
direction.
"""

from __future__ import annotations

import ctypes
import functools
import math
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from . import losses, network
from .fsm import FsmConfig, FsmState, GestureEvent, Phase, fsm_step
from .skeleton import (
    T_WINDOW,
    HandFrame,
    Handedness,
    MixedHandedness,
    features_from_arrays,
)
from .synth import CLASS_NAMES, SubState


class OutOfOrderFrame(ValueError):
    pass


@functools.cache
def _openblas_thread_calls():
    """(set, get) thread-count calls of the OpenBLAS that numpy's wheel
    bundles, or None when that library or its symbols are missing."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        setter = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        getter = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if setter is not None and getter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return setter, getter
    return None


@contextmanager
def _one_blas_thread(setter, getter):
    previous = getter()
    setter(1)
    try:
        yield
    finally:
        setter(previous)


def inference_thread_cap():
    """Context manager pinning OpenBLAS to one thread, restoring the previous
    count on exit.

    Per-frame matrices are small enough that multi-threaded BLAS only adds
    wake-up stalls; streaming loops wrap themselves in this to keep
    per-frame latency flat. A no-op where numpy's bundled OpenBLAS is not
    found.
    """
    calls = _openblas_thread_calls()
    return nullcontext() if calls is None else _one_blas_thread(*calls)


class ModelPredictor:
    """Incremental forward pass of trained ModelParams over a sliding window.

    ``push(features)`` runs the per-joint stage on one frame's (J, D)
    features, with the input weight stacked once here, and stores the row
    [h0 | h0 @ [Wqk | V Wc / T | V Ws_a | Ws_h]] of 2H + 8 + 5 + 5 columns,
    where Wqk = Wq Wkᵀ / √H, Ws_a = w_state[:H] and Ws_h = w_state[H:].
    ``__call__()`` adds each window position's TE row ([TE | TE times the
    same columns], zero under Ws_h, which reads h0 and not h = h0 + TE) to
    the rows of the last T pushed frames (the caller pushes at least T
    first), so the first H columns hold the keys h and the next H the
    folded queries h Wqk. Then attn = softmax(h Wqk hᵀ), class_logits =
    sum_t(attn_t) (V Wc / T) + b_class, the frame mean with its 1/T folded
    into the class columns, and state_logits = attn (V Ws_a) + h0 Ws_h +
    b_state, so it returns ``(class_probs (8,), state_logits (T, 5))`` as
    ``forward_batch`` would for that window, up to float rounding. The
    biases are read at call time.
    """

    def __init__(self, params: network.ModelParams):
        self.params = params
        p = params.tensors
        hidden = params.hp.hidden
        self._w_in = network.input_weight(params)
        w_qk = (p["wq"] @ p["wk"].T) * (1.0 / math.sqrt(hidden))
        w_v = p["wv"] @ np.concatenate([p["w_class"] / T_WINDOW, p["w_state"][:hidden]], axis=1)
        w_h = np.concatenate([w_qk, w_v], axis=1)  # the columns that h = h0 + TE feeds
        self._w_row = np.concatenate([w_h, p["w_state"][hidden:]], axis=1)
        width = hidden + self._w_row.shape[1]
        self._te_row = np.zeros((T_WINDOW, width))
        self._te_row[:, :hidden] = p["temporal_embed"]
        self._te_row[:, hidden : hidden + w_h.shape[1]] = p["temporal_embed"] @ w_h
        # where the h, query, V Wc / T and V Ws_a blocks end
        self._ends = tuple(np.cumsum([hidden, hidden, network.N_CLASSES, network.N_STATES]).tolist())
        # the ring stores a frame's row twice, at slots i and i + T, so the
        # last T frames in time order are always the view [next, next + T)
        self._rows = np.zeros((2 * T_WINDOW, width))
        self._window = np.empty_like(self._te_row)
        self._next = 0

    def push(self, features: np.ndarray) -> None:
        if features.shape != network.INPUT_SHAPE[1:]:
            raise network.ShapeMismatch(f"expected frame features {network.INPUT_SHAPE[1:]}, got {features.shape}")
        h0 = network.joint_stage(features, self._w_in)["h0"]
        i = self._next
        row = self._rows[i]
        row[: h0.size] = h0
        np.matmul(h0, self._w_row, out=row[h0.size :])
        self._rows[i + T_WINDOW] = row
        self._next = (i + 1) % T_WINDOW

    def __call__(self):
        p = self.params.tensors
        h_end, q_end, c_end, s_end = self._ends
        n = self._next
        window = np.add(self._rows[n : n + T_WINDOW], self._te_row, out=self._window)
        attn = losses.softmax(window[:, h_end:q_end] @ window[:, :h_end].T)
        class_logits = attn.sum(axis=0) @ window[:, q_end:c_end] + p["b_class"]
        state_logits = attn @ window[:, c_end:s_end] + window[:, s_end:] + p["b_state"]
        return network.checked_class_probs(class_logits, state_logits, self.params.tau), state_logits


# the swiping sub-states' positions 0-3, as the expectation weights them
_SWIPE_POSITIONS = np.arange(4.0)


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
    return float((sub / total) @ _SWIPE_POSITIONS) / 3.0


class LatencyHistogram:
    """Counts of per-frame latencies in fixed log buckets, so a stream of
    any length is summarized in constant memory.

    Bucket i holds latencies in (LO_MS * RATIO**(i-1), LO_MS * RATIO**i] ms,
    from 1 us to 10 s at ratio 1.02; bucket 0 takes everything at or below
    1 us and the last bucket everything above its lower edge.
    """

    RATIO = 1.02
    LO_MS = 1e-3
    HI_MS = 1e4
    N_BUCKETS = math.ceil(math.log(HI_MS / LO_MS) / math.log(RATIO)) + 1

    def __init__(self):
        self.counts = [0] * self.N_BUCKETS
        self.count = 0

    def record(self, ms: float) -> None:
        i = 0 if ms <= self.LO_MS else math.ceil(math.log(ms / self.LO_MS) / math.log(self.RATIO))
        self.counts[min(i, self.N_BUCKETS - 1)] += 1
        self.count += 1


class StreamRuntime:
    """Single-consumer online recognizer for one hand stream.

    ``predictor`` is ModelParams (wrapped in a ModelPredictor) or any object
    with ``push(features)`` and ``__call__() -> (class_probs, state_logits)``.
    """

    def __init__(self, predictor, cfg: FsmConfig | None = None):
        if isinstance(predictor, network.ModelParams):
            predictor = ModelPredictor(predictor)
        self.predictor = predictor
        self.cfg = cfg or FsmConfig()
        self.state = FsmState.initial()
        self.last_timestamp: float | None = None
        self.latency = LatencyHistogram()
        self.last_swipe_u: float | None = None
        self._streak_confidences: list[float] = []
        self._pushes = 0

    def push_frame(self, frame: HandFrame) -> GestureEvent | None:
        """Ingest one frame; returns an event iff the FSM fires on it.

        The first T_WINDOW pushes (warm-up plus the first inference) are
        left out of the latency histogram.
        """
        start = time.perf_counter()
        if frame.handedness is not Handedness.RIGHT:
            raise MixedHandedness("runtime consumes a right-hand stream")
        if self.last_timestamp is not None and frame.timestamp <= self.last_timestamp:
            raise OutOfOrderFrame(
                f"timestamp {frame.timestamp} not after {self.last_timestamp}"
            )
        self.last_timestamp = frame.timestamp
        self.predictor.push(features_from_arrays(frame.positions, frame.orientations))
        self._pushes += 1
        if self._pushes < T_WINDOW:
            return None

        probs, state_logits = self.predictor()
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

        if self._pushes > T_WINDOW:
            self.latency.record((time.perf_counter() - start) * 1e3)
        return event


def latency_percentiles(histogram: LatencyHistogram) -> dict[str, float]:
    """Nearest-rank p50/p95/p99 of a latency histogram, in ms.

    Each percentile reads the upper edge of the bucket holding the
    nearest-rank sample, so it is never below that sample and at most 2 %
    above it (latencies beyond the 10 s range read the top bucket's edge).
    """
    quantiles = {"p50": 50, "p95": 95, "p99": 99}
    out = dict.fromkeys(quantiles, 0.0)
    if histogram.count == 0:
        return out
    pending = list(quantiles.items())  # in increasing order
    seen = 0
    for i, c in enumerate(histogram.counts):
        seen += c
        while pending and seen * 100 >= pending[0][1] * histogram.count:
            out[pending.pop(0)[0]] = histogram.LO_MS * histogram.RATIO**i
        if not pending:
            break
    return out
