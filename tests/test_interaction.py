"""Gesture-to-command binding, pinch hold, and the left-hand mode menu."""

import numpy as np
import pytest

from microgext.editor import CommandKind, Granularity
from microgext.fsm import GestureEvent
from microgext.interaction import (
    EditorContext,
    MenuPhase,
    ModeSwitchState,
    bind_event,
    detect_pinch_hold,
    is_spread_fingers,
    is_thumb_up,
    mode_switch_step,
    roll_to_mode,
    wrist_roll,
)
from microgext.skeleton import Handedness
from microgext.synth import POSES, GestureClass, SubjectParams
from microgext import quat

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


class TestPinchHold:
    def test_two_seconds_of_contact(self):
        frames = frames_with_contact(144, 180)
        assert detect_pinch_hold(frames) is True

    def test_short_contact_rejected(self):
        frames = frames_with_contact(137, 180)  # just over 1.9 s
        assert detect_pinch_hold(frames) is False

    def test_contact_then_release_rejected(self):
        frames = frames_with_contact(144, 180)
        frames += [build_frame(POSES["rest"], 180 / 72.0, np.zeros(3), IDENTITY, CLEAN, None)]
        assert detect_pinch_hold(frames) is False

    def test_intermittent_contact_rejected(self):
        frames = []
        for i in range(200):
            pose = POSES["pinch"] if i % 2 == 0 else POSES["rest"]
            frames.append(build_frame(pose, i / 72.0, np.zeros(3), IDENTITY, CLEAN, None))
        assert detect_pinch_hold(frames) is False


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
