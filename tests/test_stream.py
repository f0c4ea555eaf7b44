"""Online runtime: buffering, the incremental forward, determinism, swipe
progress readout and the latency histogram."""

from collections import deque

import numpy as np
import pytest

from microgext import calibration, network, scenario, stream, synth
from microgext.fsm import FsmConfig
from microgext.network import NonFiniteActivation, ShapeMismatch
from microgext.skeleton import T_WINDOW, Handedness, MixedHandedness, features_from_arrays
from microgext.stream import (
    LatencyHistogram,
    ModelPredictor,
    OutOfOrderFrame,
    StreamRuntime,
    latency_percentiles,
    swipe_progress,
)
from microgext.synth import POSES, GestureClass, SubjectParams

from .frames import build_frame

CLEAN = SubjectParams(subject_id=0, pose_jitter_std=0.0)
IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


class StubPredictor:
    """Scripted class probabilities and flat sub-states; records every
    pushed frame's feature shape and counts full-window calls."""

    def __init__(self, probs_fn):
        self.probs_fn = probs_fn
        self.pushed = []
        self.calls = 0

    def push(self, features):
        self.pushed.append(features.shape)

    def __call__(self):
        self.calls += 1
        return self.probs_fn(), np.zeros((T_WINDOW, 5))


class WindowPredictor:
    """Reference predictor: re-runs ``forward_batch`` on the stacked
    features of the last T pushed frames on every call."""

    def __init__(self, params):
        self.params = params
        self.window = deque(maxlen=T_WINDOW)

    def push(self, features):
        self.window.append(features)

    def __call__(self):
        out = network.forward_batch(self.params, np.stack(self.window)[None])
        return out["class_probs"][0], out["state_logits"][0]


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
        predictor = StubPredictor(lambda: confident(GestureClass.FIST))
        rt = StreamRuntime(predictor)
        for frame in pose_frames("rest", T_WINDOW - 1):
            assert rt.push_frame(frame) is None
        assert predictor.calls == 0
        assert len(predictor.pushed) == T_WINDOW - 1

    def test_event_after_n_confident_windows(self):
        rt = StreamRuntime(StubPredictor(lambda: confident(GestureClass.FIST)))
        events = [rt.push_frame(f) for f in pose_frames("fist", T_WINDOW + 10)]
        fired = [e for e in events if e is not None]
        assert len(fired) == 1
        assert fired[0].gesture is GestureClass.FIST
        assert fired[0].mean_confidence >= rt.cfg.delta
        # the first full window is at index T-1 and counts as streak frame 1,
        # so the fire lands N-1 frames later
        assert events.index(fired[0]) == (T_WINDOW - 1) + (rt.cfg.n_consecutive - 1)

    def test_ring_buffer_capped(self):
        # every push hands over one frame's features; every full window
        # makes exactly one call
        predictor = StubPredictor(lambda: confident(GestureClass.NULL))
        rt = StreamRuntime(predictor)
        for frame in pose_frames("rest", 50):
            rt.push_frame(frame)
        assert predictor.pushed == [(11, 7)] * 50
        assert predictor.calls == 50 - T_WINDOW + 1

    def test_out_of_order_rejected(self):
        rt = StreamRuntime(StubPredictor(lambda: confident(GestureClass.NULL)))
        frames = pose_frames("rest", 3)
        rt.push_frame(frames[0])
        rt.push_frame(frames[1])
        with pytest.raises(OutOfOrderFrame):
            rt.push_frame(frames[1])

    def test_nan_timestamp_cannot_pass_order_guard(self):
        # a NaN timestamp compares false both ways, so a NaN frame between
        # 5 and 0 would let the frame at 0 past the order guard
        rt = StreamRuntime(StubPredictor(lambda: confident(GestureClass.NULL)))
        rt.push_frame(pose_frames("rest", 1, start_t=5.0)[0])
        with pytest.raises(ValueError, match="timestamps must be finite"):
            pose_frames("rest", 1, start_t=np.nan)
        with pytest.raises(OutOfOrderFrame):
            rt.push_frame(pose_frames("rest", 1, start_t=0.0)[0])

    def test_left_hand_rejected(self):
        rt = StreamRuntime(StubPredictor(lambda: confident(GestureClass.NULL)))
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
        rt = StreamRuntime(StubPredictor(lambda: confident(GestureClass.NULL)))
        for frame in pose_frames("rest", 120):
            rt.push_frame(frame)
        stats = latency_percentiles(rt.latency)
        assert set(stats) == {"p50", "p95", "p99"}
        assert 0.0 < stats["p50"] <= stats["p95"] <= stats["p99"]
        assert rt.latency.count == 120 - T_WINDOW

    def test_percentiles_read_bucket_upper_edges(self):
        hist = LatencyHistogram()
        samples = np.geomspace(0.05, 40.0, 1000)
        for ms in samples:
            hist.record(float(ms))
        assert hist.count == 1000
        stats = latency_percentiles(hist)
        for name, q in (("p50", 50), ("p95", 95), ("p99", 99)):
            nearest_rank = samples[int(np.ceil(q / 100 * len(samples))) - 1]
            assert nearest_rank <= stats[name] <= nearest_rank * LatencyHistogram.RATIO * (1 + 1e-12)

    def test_out_of_range_latencies_clamp(self):
        hist = LatencyHistogram()
        hist.record(0.0)
        assert latency_percentiles(hist)["p99"] == pytest.approx(LatencyHistogram.LO_MS)
        hist.record(1e9)
        assert latency_percentiles(hist)["p99"] >= LatencyHistogram.HI_MS
        assert len(hist.counts) == LatencyHistogram.N_BUCKETS

    def test_empty_reads_zero(self):
        assert latency_percentiles(LatencyHistogram()) == {"p50": 0.0, "p95": 0.0, "p99": 0.0}


@pytest.fixture(scope="module")
def default_sessions():
    """The default script compiled for script seeds 7-14."""
    return [scenario.compile_scenario(scenario.default_scenario(seed)) for seed in range(7, 15)]


class TestIncrementalForward:
    # TAU_LO is where fitted temperatures sit, the benchmark checkpoint's
    # among them; 1/tau scales the logits' rounding by 20 there
    @pytest.mark.parametrize("hidden, tau, n_sessions", [
        pytest.param(32, 1.0, 8, id="1.0"),
        pytest.param(32, 0.6, 8, id="0.6"),
        pytest.param(32, calibration.TAU_LO, 8, id="tau_lo"),
        pytest.param(256, calibration.TAU_LO, 2, id="h256-tau_lo"),
    ])
    def test_matches_forward_batch_on_every_frame(self, default_sessions, hidden, tau, n_sessions):
        params = network.init_params(network.HyperParams(hidden=hidden), seed=4).with_tau(tau)
        for frames, _ in default_sessions[:n_sessions]:
            features = [
                features_from_arrays(f.positions, f.orientations)
                for f in frames if f.handedness is Handedness.RIGHT
            ]
            incremental = ModelPredictor(params)
            for i, feat in enumerate(features):
                incremental.push(feat)
                if i < T_WINDOW - 1:
                    continue
                probs, state_logits = incremental()
                out = network.forward_batch(params, np.stack(features[i - T_WINDOW + 1 : i + 1])[None])
                np.testing.assert_allclose(probs, out["class_probs"][0], rtol=0, atol=1e-12)
                np.testing.assert_allclose(state_logits, out["state_logits"][0], rtol=0, atol=1e-10)

    def test_sessions_match_window_path(self, tiny_trained, default_sessions):
        params, _ = tiny_trained
        fired = 0
        for (frames, _), seed in zip(default_sessions, range(7, 15)):
            sc = scenario.default_scenario(seed)
            runs = [
                scenario.run_session(predictor, frames, cfg=sc.fsm_config(), initial_text=sc.initial_text,
                                     granularity=sc.granularity, ctx=sc.context())
                for predictor in (params, WindowPredictor(params))
            ]
            got, want = ([(e.gesture, e.fired_at, e.mean_confidence) for e in r.events] for r in runs)
            assert [g[:2] for g in got] == [w[:2] for w in want]
            np.testing.assert_allclose([g[2] for g in got], [w[2] for w in want], rtol=0, atol=1e-12)
            assert runs[0].commands == runs[1].commands
            assert runs[0].final_document == runs[1].final_document
            fired += len(got)
        assert fired > 0

    def test_a_generator_replays_as_the_list(self, tiny_trained, default_sessions):
        params, _ = tiny_trained
        frames, _ = default_sessions[0]
        sc = scenario.default_scenario(7)
        runs = [
            scenario.run_session(params, source, cfg=sc.fsm_config(), initial_text=sc.initial_text,
                                 granularity=sc.granularity, ctx=sc.context())
            for source in (frames, (f for f in frames))
        ]
        assert runs[0].events
        assert runs[1].events == runs[0].events
        assert runs[1].commands == runs[0].commands
        assert runs[1].final_document == runs[0].final_document

    def test_rejects_wrong_feature_shape(self):
        predictor = ModelPredictor(network.init_params(network.HyperParams(hidden=8), seed=0))
        with pytest.raises(ShapeMismatch):
            predictor.push(np.zeros((T_WINDOW, 11, 7)))

    @pytest.mark.parametrize("bias", ["b_class", "b_state"])
    def test_non_finite_activation_raised(self, bias):
        params = network.init_params(network.HyperParams(hidden=8), seed=0)
        predictor = ModelPredictor(params)
        for _ in range(T_WINDOW):
            predictor.push(np.zeros((11, 7)))
        params.tensors[bias][0] = np.inf  # poison after construction
        with pytest.raises(NonFiniteActivation):
            predictor()
        with pytest.raises(NonFiniteActivation):
            network.forward_batch(params, np.zeros((1, *network.INPUT_SHAPE)))


class TestInferenceThreadCap:
    def test_pins_one_thread_and_restores(self):
        calls = stream._openblas_thread_calls()
        if calls is None:
            pytest.skip("numpy's bundled OpenBLAS is not present")
        setter, getter = calls
        before = getter()
        with stream.inference_thread_cap():
            assert getter() == 1
        assert getter() == before
