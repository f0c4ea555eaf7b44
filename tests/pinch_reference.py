"""Stack-and-scan pinch-hold detection, the oracle for the incremental one.

It judges a hold from the whole trailing window at once: it stacks the
window's positions, scans back from the newest frame for the contact run and
takes the median of the window's frame gaps with numpy. The runtime's
``interaction.detect_pinch_hold`` keeps a run length and sorted gaps instead
and must decide the same on every frame.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence

import numpy as np

from microgext.interaction import PINCH_HOLD_SECONDS, PINCH_WINDOW_FRAMES
from microgext.skeleton import INDEX_TIP, THUMB_TIP, HandFrame
from microgext.synth import PINCH_CONTACT_M


def in_contact(positions: np.ndarray):
    """Thumb-index tip contact of one frame (J, 3) or of stacked frames (N, J, 3)."""
    return np.linalg.norm(positions[..., THUMB_TIP, :] - positions[..., INDEX_TIP, :], axis=-1) < PINCH_CONTACT_M


def detect_pinch_hold(frames: Sequence[HandFrame]) -> bool:
    """True iff thumb and index tips are in continuous contact over the
    trailing run of ``frames`` spanning at least 2 seconds: the run's span
    plus one median frame gap of ``frames``."""
    if len(frames) < 2 or not in_contact(frames[-1].positions):
        return False
    ts = np.array([f.timestamp for f in frames])
    contact = in_contact(np.stack([f.positions for f in frames]))
    run_start = len(frames) - 1
    while run_start > 0 and contact[run_start - 1]:
        run_start -= 1
    dt = float(np.median(np.diff(ts)))
    duration = (ts[-1] - ts[run_start]) + dt
    return bool(duration >= PINCH_HOLD_SECONDS - 1e-9)


def decisions(frames: Iterable[HandFrame]) -> list[bool]:
    """The reference decision after each frame, judged over the trailing
    window of ``PINCH_WINDOW_FRAMES`` frames as the runtime keeps it."""
    window: deque[HandFrame] = deque(maxlen=PINCH_WINDOW_FRAMES)
    out = []
    for frame in frames:
        window.append(frame)
        out.append(detect_pinch_hold(window))
    return out
