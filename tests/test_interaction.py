"""Gesture-to-command binding, pinch hold, and the left-hand mode menu."""

import gc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from microgext.editor import CommandKind, Granularity
from microgext.fsm import GestureEvent
from microgext.interaction import (
    EditorContext,
    MenuPhase,
    ModeSwitchState,
    PinchHoldDetector,
    _in_contact,
    bind_event,
    detect_pinch_hold,
    is_spread_fingers,
    is_thumb_up,
    mode_switch_step,
    roll_to_mode,
    wrist_roll,
)
from microgext.scenario import compile_scenario, default_scenario
from microgext.skeleton import INDEX_TIP, THUMB_TIP, HandFrame, Handedness, frames_from_arrays
from microgext.synth import PINCH_CONTACT_M, POSES, GestureClass, SubjectParams
from microgext import quat

from . import pinch_reference
from .frames import build_frame

CLEAN = SubjectParams(subject_id=0, pose_jitter_std=0.0)
IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def event(gesture):
    return GestureEvent(gesture=gesture, fired_at=1.0, mean_confidence=0.99)


class TestBindEvent:
    @pytest.mark.parametrize(
        "gesture,kind",
        [
            (GestureClass.SCISSOR, CommandKind.CUT),
            (GestureClass.RING, CommandKind.COPY),
            (GestureClass.OPEN, CommandKind.UNDO),
            (GestureClass.FIST, CommandKind.DELETE),
            (GestureClass.VERTICAL, CommandKind.SELECT_ALL),
            (GestureClass.PINKY, CommandKind.PASTE),
        ],
    )
    def test_static_mappings(self, gesture, kind):
        assert bind_event(event(gesture), EditorContext()).kind is kind

    def test_swipe_moves_caret_when_not_armed(self):
        cmd = bind_event(event(GestureClass.SWIPE), EditorContext(selection_armed=False))
        assert cmd.kind is CommandKind.MOVE_CARET

    def test_swipe_selects_when_armed(self):
        cmd = bind_event(event(GestureClass.SWIPE), EditorContext(selection_armed=True))
        assert cmd.kind is CommandKind.SELECT_RANGE

    @pytest.mark.parametrize("armed", [False, True])
    @pytest.mark.parametrize("direction", [1, -1])
    def test_swipe_is_one_unit_in_the_given_direction(self, armed, direction):
        cmd = bind_event(event(GestureClass.SWIPE), EditorContext(selection_armed=armed), direction)
        assert cmd.delta == direction

    def test_null_has_no_binding(self):
        with pytest.raises(ValueError):
            bind_event(event(GestureClass.NULL), EditorContext())


def frames_with_contact(n_contact, n_total, rate=72.0):
    """Right-hand frames: pinch contact for the last n_contact frames."""
    frames = []
    for i in range(n_total):
        pose = POSES["pinch"] if i >= n_total - n_contact else POSES["rest"]
        frames.append(build_frame(pose, i / rate, np.zeros(3), IDENTITY, CLEAN, None))
    return frames


def detector_decisions(frames):
    """detect_pinch_hold's decision after each frame, fed one at a time."""
    detector = PinchHoldDetector()
    return [detect_pinch_hold(detector, f) for f in frames]


_REST = build_frame(POSES["rest"], 0.0, np.zeros(3), IDENTITY, CLEAN, None)
_TIP_AXIS = np.array([1.0, 2.0, 2.0]) / 3.0


def tip_stream(timestamps, distances):
    """Right-hand rest frames whose thumb tip sits each frame's distance
    from the index tip."""
    n = len(timestamps)
    positions = np.repeat(_REST.positions[None], n, axis=0)
    positions[:, THUMB_TIP] = positions[:, INDEX_TIP] + np.asarray(distances)[:, None] * _TIP_AXIS
    orientations = np.repeat(_REST.orientations[None], n, axis=0)
    return frames_from_arrays(timestamps, Handedness.RIGHT, positions, orientations)


class TestPinchHold:
    def test_two_seconds_of_contact(self):
        decisions = detector_decisions(frames_with_contact(144, 180))
        assert decisions[-1] is True
        assert decisions[-2] is False

    def test_short_contact_rejected(self):
        frames = frames_with_contact(137, 180)  # just over 1.9 s
        assert detector_decisions(frames)[-1] is False

    def test_contact_then_release_rejected(self):
        frames = frames_with_contact(144, 180)
        frames += [build_frame(POSES["rest"], 180 / 72.0, np.zeros(3), IDENTITY, CLEAN, None)]
        assert detector_decisions(frames)[-1] is False

    def test_intermittent_contact_rejected(self):
        frames = []
        for i in range(200):
            pose = POSES["pinch"] if i % 2 == 0 else POSES["rest"]
            frames.append(build_frame(pose, i / 72.0, np.zeros(3), IDENTITY, CLEAN, None))
        assert detector_decisions(frames)[-1] is False

    def test_matches_reference_on_default_scripts(self):
        holding = 0
        for seed in range(7, 15):
            frames, _ = compile_scenario(default_scenario(seed))
            right = [f for f in frames if f.handedness is Handedness.RIGHT]
            want = pinch_reference.decisions(right)
            assert detector_decisions(right) == want
            holding += sum(want)
        assert holding > 0

    @settings(max_examples=40, deadline=None)
    @given(
        segments=st.lists(
            st.tuples(st.integers(1, 220), st.sampled_from(["contact", "apart", "edge"])), min_size=1, max_size=3
        ),
        rate=st.sampled_from([72.0, 60.0, 90.0]),
        jitter=st.sampled_from([0.0, 0.2, 0.9]),
        breaks=st.lists(st.tuples(st.integers(0, 659), st.floats(0.05, 1.5)), max_size=3),
        t0=st.floats(0.0, 1e4),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(segments=[(36, "apart"), (150, "contact")], rate=72.0, jitter=0.0, breaks=[], t0=0.0, seed=0)
    @example(segments=[(400, "contact")], rate=72.0, jitter=0.0, breaks=[], t0=0.0, seed=0)
    def test_matches_reference_on_random_streams(self, segments, rate, jitter, breaks, t0, seed):
        """Contact runs, some longer than the window, with tips near the
        contact threshold, jittered timestamps and tracking gaps. The first
        example is the exact 144-frame hold at 72 Hz."""
        rng = np.random.default_rng(seed)
        kinds = [kind for length, kind in segments for _ in range(length)]
        n = len(kinds)
        distance = {"contact": lambda: 0.005, "apart": lambda: 0.05, "edge": lambda: rng.uniform(0.0149, 0.0151)}
        ts = (np.arange(n) + jitter * rng.uniform(-0.5, 0.5, n)) / rate
        for at, seconds in breaks:
            ts[at % n:] += seconds
        frames = tip_stream(t0 + ts, [distance[k]() for k in kinds])
        assert detector_decisions(frames) == pinch_reference.decisions(frames)

    @pytest.mark.parametrize("lead,e,held", [(1, 1e-4, False), (1, 1e-10, True), (2, 1e-4, True)])
    def test_median_gap_and_tolerance(self, lead, e, held):
        """``lead`` apart frames 0.5 s apart, then 144 in contact, whose 143
        gaps are 72 of 1/72 - e and 71 of 1/72 + e. One lead frame makes an
        even gap count whose two middle gaps differ, so the median is their
        mean and the hold lasts 2 s - e, which counts only within the 1e-9
        tolerance. Two make an odd count whose median is 1/72 + e: 2 s."""
        gaps = np.r_[[0.5] * lead, np.tile([1 / 72 - e, 1 / 72 + e], 72)[:-1]]
        frames = tip_stream(np.cumsum(np.r_[0.0, gaps]), [0.05] * lead + [0.005] * 144)
        decisions = detector_decisions(frames)
        assert decisions == pinch_reference.decisions(frames)
        assert decisions[-1] is held and not any(decisions[:-1])

    def test_one_frame_contact_rounds_as_stacked_frames(self):
        """Tips 1.5 cm apart in random directions, where rounding decides
        contact: each frame alone is judged as the stacked reference judges it."""
        rng = np.random.default_rng(0)
        u = rng.normal(size=(2000, 3))
        offsets = u / np.linalg.norm(u, axis=-1, keepdims=True) * PINCH_CONTACT_M
        positions = np.zeros((len(offsets), 11, 3))
        positions[:, THUMB_TIP] = offsets
        want = pinch_reference.in_contact(positions)
        assert 0 < want.sum() < len(want)
        assert [_in_contact(p) for p in positions] == want.tolist()

    def test_state_stays_bounded(self):
        n = 10_000
        frames = tip_stream(np.arange(n) / 72.0, [0.005] * n)
        detector = PinchHoldDetector()
        decisions = [detect_pinch_hold(detector, f) for f in frames]
        assert decisions.index(True) == 143 and all(decisions[143:])
        assert len(detector.times) <= 180
        assert len(detector.gaps) <= 179
        held = gc.get_referents(detector)
        held += [x for h in held for x in gc.get_referents(h)]
        assert not any(isinstance(x, HandFrame) for x in held)


def left_frame(pose_name: str, roll_rad: float, t=0.0):
    q = quat.from_axis_angle(np.array([0.0, 0.0, 1.0]), roll_rad)
    return build_frame(POSES[pose_name], t, np.zeros(3), q, CLEAN, None, Handedness.LEFT)


class TestModeSwitch:
    def test_pose_detectors(self):
        assert is_thumb_up(left_frame("thumb_up", 0.0))
        assert not is_thumb_up(left_frame("rest", 0.0))
        assert is_spread_fingers(left_frame("spread_four", 0.0))
        assert not is_spread_fingers(left_frame("thumb_up", 0.0))

    def test_wrist_roll_recovered(self):
        for roll in (-1.2, -0.4, 0.0, 0.7, 1.3):
            got = wrist_roll(left_frame("rest", roll))
            assert got == pytest.approx(roll, abs=1e-6)

    def test_sector_arithmetic(self):
        assert roll_to_mode(np.radians(-80)) is Granularity.CHARACTER
        assert roll_to_mode(np.radians(-50)) is Granularity.CHARACTER
        assert roll_to_mode(np.radians(-30)) is Granularity.WORD
        assert roll_to_mode(np.radians(10)) is Granularity.SENTENCE
        assert roll_to_mode(np.radians(80)) is Granularity.PARAGRAPH
        # clamps outside the range
        assert roll_to_mode(np.radians(-120)) is Granularity.CHARACTER
        assert roll_to_mode(np.radians(120)) is Granularity.PARAGRAPH

    def test_menu_flow(self):
        state = ModeSwitchState()
        state, cmd = mode_switch_step(state, left_frame("thumb_up", np.radians(-80)))
        assert state.phase is MenuPhase.MENU_OPEN and cmd is None
        assert state.highlighted is Granularity.CHARACTER
        # roll to the Paragraph sector while the menu stays open
        state, cmd = mode_switch_step(state, left_frame("thumb_up", np.radians(80)))
        assert state.highlighted is Granularity.PARAGRAPH and cmd is None
        # spread confirms and closes
        state, cmd = mode_switch_step(state, left_frame("spread_four", np.radians(80)))
        assert cmd is not None and cmd.kind is CommandKind.SET_GRANULARITY
        assert cmd.mode is Granularity.PARAGRAPH
        assert state.phase is MenuPhase.IDLE and state.highlighted is None

    def test_spread_while_idle_does_nothing(self):
        state, cmd = mode_switch_step(ModeSwitchState(), left_frame("spread_four", 0.0))
        assert cmd is None and state.phase is MenuPhase.IDLE

    def test_highlight_requires_open_menu(self):
        with pytest.raises(ValueError):
            ModeSwitchState(MenuPhase.IDLE, Granularity.WORD, 0.0)
