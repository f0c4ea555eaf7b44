"""Gesture-to-command binding and two-hand interaction mechanics.

Right hand: fired gesture events map to editing commands. The Swipe event
resolves to caret movement, or to range selection while selection mode is
armed by a sustained pinch (thumb and index held together for two seconds).
Each fired swipe moves one unit at the current granularity; the runner
supplies its direction from the trend of the whole swipe episode.

Left hand: a thumb-up pose opens the granularity menu; while it is open,
wrist roll sweeps a highlight across the four modes (45 degree sectors over
-90..+90) and spreading the four fingers confirms, emitting SetGranularity.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
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
from .synth import PINCH_CONTACT_M, GestureClass

PINCH_HOLD_SECONDS = 2.0
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

def _in_contact(positions: np.ndarray):
    """Thumb-index tip contact of one frame (J, 3) or of stacked frames (N, J, 3)."""
    return np.linalg.norm(positions[..., THUMB_TIP, :] - positions[..., INDEX_TIP, :], axis=-1) < PINCH_CONTACT_M


def detect_pinch_hold(frames: Sequence[HandFrame]) -> bool:
    """True iff thumb and index tips are in continuous contact (< 1.5 cm)
    over the trailing run of frames spanning at least 2 seconds.

    The run must still be in contact at the newest frame; duration counts
    whole frame periods (contact span plus one median frame gap), so 144
    contact frames at 72 Hz qualify exactly.
    """
    if len(frames) < 2 or not _in_contact(frames[-1].positions):
        return False
    ts = np.array([f.timestamp for f in frames])
    contact = _in_contact(np.stack([f.positions for f in frames]))
    run_start = len(frames) - 1
    while run_start > 0 and contact[run_start - 1]:
        run_start -= 1
    dt = float(np.median(np.diff(ts)))
    duration = (ts[-1] - ts[run_start]) + dt
    return bool(duration >= PINCH_HOLD_SECONDS - 1e-9)


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
