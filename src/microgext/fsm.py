"""Confidence-gated finite-state machine for online gesture recognition.

The recognizer's per-window class probabilities stream through a three-state
filter:

    S1 (idle)      a non-Null class reaches probability >= delta
                   -> S2 with that class as candidate, count 1
    S2 (tracking)  candidate stays >= delta        -> count + 1
                   another non-Null class >= delta -> stay in S2, switch
                                                      candidate, count 1
                   nothing >= delta                -> back to S1
    S3 (fire)      transient: entered the instant count reaches N; the
                   gesture event fires and the machine returns to S1

Null can never become a candidate, so it never fires. After a fire, a
refractory countdown ignores detections while the buffer still contains the
fired gesture, preventing double fires. fsm_step is a pure function; the
test suite checks it against an independently built transition table over
the exhaustive reachable state space.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .network import check_number_fields
from .synth import CLASS_NAMES, GestureClass

NULL_INDEX = CLASS_NAMES.index(GestureClass.NULL.value)


class MalformedProbs(ValueError):
    pass


class Phase(Enum):
    S1 = "S1"
    S2 = "S2"
    S3 = "S3"  # transient fire state, never stored between steps


@dataclass(frozen=True)
class FsmConfig:
    delta: float = 0.95
    n_consecutive: int = 10
    refractory: int = 20

    def __post_init__(self):
        check_number_fields(self)
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        if self.n_consecutive < 1:
            raise ValueError("N must be >= 1")
        if self.refractory < 0:
            raise ValueError("refractory must be >= 0")


@dataclass(frozen=True)
class FsmState:
    phase: Phase = Phase.S1
    candidate: GestureClass | None = None
    consecutive_count: int = 0
    refractory_remaining: int = 0

    def __post_init__(self):
        if self.candidate is GestureClass.NULL:
            raise ValueError("Null can never be a candidate")
        if self.phase is Phase.S1 and self.consecutive_count != 0:
            raise ValueError("S1 implies a zero count")

    @staticmethod
    def initial() -> "FsmState":
        return FsmState()


@dataclass(frozen=True)
class GestureEvent:
    gesture: GestureClass
    fired_at: float
    mean_confidence: float


def _validate_probs(probs) -> np.ndarray:
    """``probs`` as a float64 (8,) array; raises MalformedProbs unless every
    entry is finite and non-negative and they sum to 1 within 1e-5.

    One min and one sum decide: a NaN, -inf or negative entry fails the
    min, and +inf or a sum that overflows fails the sum rule. The sum is
    only taken once the min has passed, so it never meets a NaN or -inf
    (numpy would warn of an invalid value). Only a rejected input pays for
    the finer check that picks the message.
    """
    p = np.asarray(probs, dtype=np.float64)
    if p.shape != (len(CLASS_NAMES),):
        raise MalformedProbs(f"expected {len(CLASS_NAMES)} class probabilities, got shape {p.shape}")
    if p.min() >= 0.0 and abs(float(p.sum()) - 1.0) <= 1e-5:
        return p
    if not np.all(np.isfinite(p)) or np.any(p < 0):
        raise MalformedProbs("probabilities must be finite and non-negative")
    raise MalformedProbs(f"probabilities sum to {p.sum():.6f}, not 1")


def fsm_step(state: FsmState, class_probs, cfg: FsmConfig) -> tuple[FsmState, GestureClass | None]:
    """Advance the FSM by one frame of class probabilities.

    Returns the next state and the fired gesture class, if any. A fire
    passes through the transient S3: the returned state is already back in
    S1 with the refractory countdown armed.
    """
    p = _validate_probs(class_probs)

    if state.refractory_remaining > 0:
        return FsmState(Phase.S1, None, 0, state.refractory_remaining - 1), None

    best = int(p.argmax())
    best_is_gesture = best != NULL_INDEX and p[best] >= cfg.delta

    if state.phase is Phase.S1:
        if best_is_gesture:
            return _enter_streak(GestureClass(CLASS_NAMES[best]), cfg)
        return FsmState(), None

    # S2: the candidate's own probability decides streak continuation
    cand_index = CLASS_NAMES.index(state.candidate.value)
    if p[cand_index] >= cfg.delta:
        count = state.consecutive_count + 1
        if count >= cfg.n_consecutive:
            return FsmState(Phase.S1, None, 0, cfg.refractory), state.candidate
        return FsmState(state.phase, state.candidate, count, state.refractory_remaining), None
    if best_is_gesture:
        return _enter_streak(GestureClass(CLASS_NAMES[best]), cfg)
    return FsmState(), None


def _enter_streak(gesture: GestureClass, cfg: FsmConfig) -> tuple[FsmState, GestureClass | None]:
    if cfg.n_consecutive == 1:
        return FsmState(Phase.S1, None, 0, cfg.refractory), gesture
    return FsmState(Phase.S2, gesture, 1, 0), None
