"""Gesture-to-command binding and two-hand interaction mechanics.

Right hand: fired gesture events map to editing commands. The Swipe event
resolves to caret movement, or to range selection while selection mode is
armed by a sustained pinch (thumb and index held together for two seconds).
The pinch detector keeps a run length and the trailing window's timestamps
and sorted frame gaps, so its cost per frame does not grow with the hold.
Each fired swipe moves one unit at the current granularity; the runner
supplies its direction from the trend of the whole swipe episode.

Left hand: a thumb-up pose opens the granularity menu; while it is open,
wrist roll sweeps a highlight across the four modes (45 degree sectors over
-90..+90) and spreading the four fingers confirms, emitting SetGranularity.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from . import quat
from .editor import CommandKind, EditCommand, Granularity
from .fsm import GestureEvent
from .skeleton import (
    INDEX_TIP,
    MIDDLE_TIP,
    PINKY_TIP,
    RING_TIP,
    THUMB_TIP,
    WRIST,
    HandFrame,
)
from .synth import FRAME_RATE, PINCH_CONTACT_M, GestureClass

PINCH_HOLD_SECONDS = 2.0
PINCH_WINDOW_FRAMES = int(FRAME_RATE * 2.5)  # the trailing window a hold is judged in: 180 frames
FINGER_EXTENDED_M = 0.085  # fingertip-to-wrist distance thresholds
FINGER_FOLDED_M = 0.070
THUMB_EXTENDED_M = 0.080

GESTURE_COMMANDS = {
    GestureClass.SCISSOR: CommandKind.CUT,
    GestureClass.RING: CommandKind.COPY,
    GestureClass.OPEN: CommandKind.UNDO,
    GestureClass.FIST: CommandKind.DELETE,
    GestureClass.VERTICAL: CommandKind.SELECT_ALL,
    GestureClass.PINKY: CommandKind.PASTE,
}

MODE_ORDER = (
    Granularity.CHARACTER,
    Granularity.WORD,
    Granularity.SENTENCE,
    Granularity.PARAGRAPH,
)


@dataclass
class EditorContext:
    """Session-level interaction state consulted when binding events."""

    selection_armed: bool = False


def bind_event(event: GestureEvent, ctx: EditorContext, direction: int = 1) -> EditCommand:
    """Total mapping from a fired gesture event to an editing command.

    A Swipe binds to one unit in ``direction`` (+1 or -1), which the runner
    takes from the whole swipe episode; other gestures ignore it.
    """
    if event.gesture in GESTURE_COMMANDS:
        return EditCommand(GESTURE_COMMANDS[event.gesture])
    if event.gesture is GestureClass.SWIPE:
        if ctx.selection_armed:
            return EditCommand.select_range(direction)
        return EditCommand.move_caret(direction)
    raise ValueError(f"no command binding for {event.gesture}")


# ---------------------------------------------------------------------------
# Pinch hold
# ---------------------------------------------------------------------------

def _in_contact(positions: np.ndarray) -> bool:
    """Thumb-index tip contact of one frame's (J, 3) positions."""
    # with an axis, norm sums squares as it does for stacked frames; without
    # one it takes a dot product, which may round differently
    return bool(np.linalg.norm(positions[THUMB_TIP] - positions[INDEX_TIP], axis=-1) < PINCH_CONTACT_M)


@dataclass(eq=False, slots=True)
class PinchHoldDetector:
    """What ``detect_pinch_hold`` keeps of the right-hand frames it has seen:
    the length of the current contact run, the timestamps of the trailing
    ``PINCH_WINDOW_FRAMES`` frames, and those frames' gaps in sorted order."""

    run: int = 0
    times: deque[float] = field(default_factory=lambda: deque(maxlen=PINCH_WINDOW_FRAMES))
    gaps: list[float] = field(default_factory=list)


def detect_pinch_hold(detector: PinchHoldDetector, frame: HandFrame) -> bool:
    """Take in the newest right-hand frame; True iff thumb and index tips are
    in continuous contact (< 1.5 cm) over the trailing run of frames spanning
    at least 2 seconds.

    The run must still be in contact at the newest frame and is clipped at
    the oldest frame of the trailing window. Duration counts whole frame
    periods (contact span plus the window's median frame gap), so 144
    contact frames at 72 Hz qualify exactly. Each call costs the same
    however long the hold has lasted.
    """
    times, gaps = detector.times, detector.gaps
    t = frame.timestamp
    if times:
        if len(times) == PINCH_WINDOW_FRAMES:
            del gaps[bisect_left(gaps, times[1] - times[0])]
        insort(gaps, t - times[-1])
    times.append(t)
    detector.run = detector.run + 1 if _in_contact(frame.positions) else 0
    n = len(times)
    if n < 2 or not detector.run:
        return False
    mid = len(gaps) // 2
    dt = gaps[mid] if len(gaps) % 2 else (gaps[mid - 1] + gaps[mid]) / 2
    duration = (t - times[n - min(detector.run, n)]) + dt
    return duration >= PINCH_HOLD_SECONDS - 1e-9


# ---------------------------------------------------------------------------
# Left-hand mode switching
# ---------------------------------------------------------------------------

class MenuPhase(Enum):
    IDLE = "Idle"
    MENU_OPEN = "MenuOpen"


@dataclass(frozen=True)
class ModeSwitchState:
    phase: MenuPhase = MenuPhase.IDLE
    highlighted: Granularity | None = None
    wrist_roll: float = 0.0

    def __post_init__(self):
        if self.phase is MenuPhase.IDLE and self.highlighted is not None:
            raise ValueError("highlight only exists while the menu is open")


def _tip_wrist_distances(frame: HandFrame) -> np.ndarray:
    pos = frame.positions
    return np.linalg.norm(pos[[THUMB_TIP, INDEX_TIP, MIDDLE_TIP, RING_TIP, PINKY_TIP]] - pos[WRIST], axis=1)


def is_thumb_up(frame: HandFrame) -> bool:
    d = _tip_wrist_distances(frame)
    return d[0] > THUMB_EXTENDED_M and bool(np.all(d[1:] < FINGER_FOLDED_M))


def is_spread_fingers(frame: HandFrame) -> bool:
    d = _tip_wrist_distances(frame)
    return bool(np.all(d[1:] > FINGER_EXTENDED_M))


def wrist_roll(frame: HandFrame) -> float:
    """Signed roll in radians: the hand's lateral axis measured against the
    world x axis in the xy plane (forearm assumed roughly along world z)."""
    x_axis = quat.rotate(frame.orientations[WRIST], np.array([1.0, 0.0, 0.0]))
    return float(np.arctan2(x_axis[1], x_axis[0]))


def roll_to_mode(roll: float) -> Granularity:
    """Quantize roll into 4 equal 45 degree sectors over [-90, +90]."""
    deg = np.degrees(roll)
    sector = int(np.clip((deg + 90.0) // 45.0, 0, 3))
    return MODE_ORDER[sector]


def mode_switch_step(
    state: ModeSwitchState, left_frame: HandFrame
) -> tuple[ModeSwitchState, EditCommand | None]:
    """Advance the left-hand menu machine by one frame.

    Idle + thumb-up opens the menu; while open, roll drives the highlight
    and spread-fingers confirms, emitting SetGranularity and closing.
    """
    roll = wrist_roll(left_frame)
    if state.phase is MenuPhase.IDLE:
        if is_thumb_up(left_frame):
            return ModeSwitchState(MenuPhase.MENU_OPEN, roll_to_mode(roll), roll), None
        return replace(state, wrist_roll=roll), None

    if is_spread_fingers(left_frame):
        chosen = state.highlighted or roll_to_mode(roll)
        return ModeSwitchState(MenuPhase.IDLE, None, roll), EditCommand.set_granularity(chosen)
    return ModeSwitchState(MenuPhase.MENU_OPEN, roll_to_mode(roll), roll), None
