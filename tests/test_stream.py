"""Online runtime: buffering, determinism, and swipe progress readout."""

import numpy as np
import pytest

from microgext import synth
from microgext.fsm import FsmConfig
from microgext.skeleton import T_WINDOW, Handedness, MixedHandedness
from microgext.stream import OutOfOrderFrame, StreamRuntime, latency_percentiles, swipe_progress
from microgext.synth import POSES, GestureClass, SubjectParams

from .frames import build_frame

CLEAN = SubjectParams(subject_id=0, pose_jitter_std=0.0)
IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def stub_predictor(probs_fn):
    """Predictor returning scripted class probabilities and flat states."""

    def predict(window):
        return probs_fn(), np.zeros((T_WINDOW, 5))

    return predict


def confident(cls: GestureClass, peak=0.97):
    idx = synth.CLASS_NAMES.index(cls.value)
    p = np.full(8, (1 - peak) / 7)
    p[idx] = peak
    return p


def pose_frames(pose_name: str, n: int, start_t: float = 0.0, rng=None):
    pose = POSES[pose_name]
    return [
        build_frame(pose, start_t + i / 72.0, np.zeros(3), IDENTITY, CLEAN, rng)
        for i in range(n)
    ]


class TestPushFrame:
    def test_warmup_no_inference(self):
        calls = []

        def predict(window):
            calls.append(1)
            return confident(GestureClass.FIST), np.zeros((T_WINDOW, 5))

        rt = StreamRuntime(predict)
        for frame in pose_frames("rest", T_WINDOW - 1):
            assert rt.push_frame(frame) is None
        assert calls == []

    def test_event_after_n_confident_windows(self):
        rt = StreamRuntime(stub_predictor(lambda: confident(GestureClass.FIST)))
        events = [rt.push_frame(f) for f in pose_frames("fist", T_WINDOW + 10)]
        fired = [e for e in events if e is not None]
        assert len(fired) == 1
        assert fired[0].gesture is GestureClass.FIST
        assert fired[0].mean_confidence >= rt.cfg.delta
        # the first full window is at index T-1 and counts as streak frame 1,
        # so the fire lands N-1 frames later
        assert events.index(fired[0]) == (T_WINDOW - 1) + (rt.cfg.n_consecutive - 1)

    def test_ring_buffer_capped(self):
        shapes = []

        def predict(window):
            shapes.append(window.shape)
            return confident(GestureClass.NULL), np.zeros((T_WINDOW, 5))

        rt = StreamRuntime(predict)
        for frame in pose_frames("rest", 50):
            rt.push_frame(frame)
        assert shapes == [(T_WINDOW, 11, 7)] * (50 - T_WINDOW + 1)

    def test_out_of_order_rejected(self):
        rt = StreamRuntime(stub_predictor(lambda: confident(GestureClass.NULL)))
        frames = pose_frames("rest", 3)
        rt.push_frame(frames[0])
        rt.push_frame(frames[1])
        with pytest.raises(OutOfOrderFrame):
            rt.push_frame(frames[1])

    def test_left_hand_rejected(self):
        rt = StreamRuntime(stub_predictor(lambda: confident(GestureClass.NULL)))
        frame = build_frame(POSES["rest"], 0.0, np.zeros(3), IDENTITY, CLEAN, None, Handedness.LEFT)
        with pytest.raises(MixedHandedness):
            rt.push_frame(frame)

    def test_replay_determinism(self, tiny_trained):
        params, _ = tiny_trained
        rng = np.random.Generator(np.random.PCG64(0))
        frames = pose_frames("fist", 60, rng=rng)

        def run():
            rt = StreamRuntime(params, FsmConfig())
            return [
                (e.gesture.value, e.fired_at)
                for e in (rt.push_frame(f) for f in frames)
                if e is not None
            ]

        assert run() == run()


class TestSwipeProgress:
    def logits_for(self, probs):
        logits = np.zeros((T_WINDOW, 5))
        logits[-1] = np.log(np.asarray(probs) + 1e-12)
        return logits

    def test_state_zero(self):
        u = swipe_progress(self.logits_for([1, 0, 0, 0, 0]))
        assert u == pytest.approx(0.0, abs=1e-9)

    def test_state_three(self):
        u = swipe_progress(self.logits_for([0, 0, 0, 1, 0]))
        assert u == pytest.approx(1.0, abs=1e-9)

    def test_expectation_mixture(self):
        u = swipe_progress(self.logits_for([0.5, 0.5, 0, 0, 0]))
        assert u == pytest.approx(1.0 / 6.0)

    def test_not_swiping_returns_none(self):
        assert swipe_progress(self.logits_for([0.1, 0.1, 0.1, 0.1, 0.6])) is None


class TestLatency:
    def test_percentiles_present_and_warmup_excluded(self):
        rt = StreamRuntime(stub_predictor(lambda: confident(GestureClass.NULL)))
        for frame in pose_frames("rest", 120):
            rt.push_frame(frame)
        stats = latency_percentiles(rt.latencies_ms)
        assert set(stats) == {"p50", "p95", "p99"}
        assert stats["p50"] <= stats["p95"] <= stats["p99"]
        assert len(rt.latencies_ms) == 120
