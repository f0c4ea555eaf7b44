"""Declarative interaction scripts compiled to synthetic frame streams.

A scenario is a sequence of steps (rest, gesture, swipe, pinch_hold,
mode_switch) executed on a 72 Hz clock. The right hand streams continuously,
blending between the neutral pose and each step's pose; the left hand emits
frames only during mode-switch steps. Compilation is deterministic given the
scenario seed, and the compiler also produces the expected editing-command
sequence, which is the oracle the end-to-end test replays directly through
the document engine.

run_session() drives the full online pipeline: right-hand frames feed the
pinch-hold detector and the FSM runtime, left-hand frames feed the
mode-switch machine, fired events bind to commands, and commands apply to
the document in timestamp order.
"""

from __future__ import annotations

import json
import math
import numbers
from collections import deque
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import quat
from .editor import Document, EditCommand, EditError, Granularity
from .editor import apply as apply_command
from .fsm import FsmConfig, GestureEvent
from .interaction import (
    EditorContext,
    ModeSwitchState,
    GESTURE_COMMANDS,
    bind_event,
    detect_pinch_hold,
    mode_switch_step,
)
from .skeleton import HandFrame, Handedness
from .stream import LatencyHistogram, StreamRuntime, inference_thread_cap, latency_percentiles
from .synth import (
    FRAME_RATE,
    POSES,
    STATIC_POSE_BY_GESTURE,
    GestureClass,
    PoseParams,
    PoseTrack,
    SubjectParams,
    _smoothstep,
    assemble_clip_arrays,
    stable_hash,
)

_SECTOR_CENTERS = {
    Granularity.CHARACTER: -67.5,
    Granularity.WORD: -22.5,
    Granularity.SENTENCE: 22.5,
    Granularity.PARAGRAPH: 67.5,
}

_BLEND_S = 0.18
_RIGHT_BASE = np.array([0.12, 1.20, 0.35])
_LEFT_BASE = np.array([-0.15, 1.20, 0.35])


@dataclass(frozen=True)
class ScenarioStep:
    kind: str  # rest | gesture | swipe | pinch_hold | mode_switch
    gesture: GestureClass | None = None
    mode: Granularity | None = None
    duration: float = 0.5  # rest / pinch hold length
    hold: float = 0.35  # gesture hold length
    u_from: float = 0.05
    u_to: float = 0.65
    move_time: float = 0.35
    pre_rest: float = 0.8


@dataclass(frozen=True)
class Scenario:
    initial_text: str
    granularity: Granularity = Granularity.CHARACTER
    seed: int = 7
    steps: tuple[ScenarioStep, ...] = ()
    jitter_std: float = 0.0006
    # scripted actions leave a preparation pause between commands, so the
    # post-fire lockout can safely cover a whole action
    fsm_refractory: int = 60

    def subject(self) -> SubjectParams:
        return SubjectParams(subject_id=-1, pose_jitter_std=self.jitter_std)

    def fsm_config(self) -> FsmConfig:
        return FsmConfig(refractory=self.fsm_refractory)

    def context(self) -> EditorContext:
        return EditorContext()


class BadScenario(ValueError):
    """A scenario script or Scenario that cannot be compiled."""


class UnknownScenarioKey(BadScenario):
    pass


_STEP_KINDS = ("rest", "gesture", "swipe", "pinch_hold", "mode_switch")
_FIELD_TYPES = {"str": str, "int": numbers.Integral, "float": numbers.Real}


def _check(obj, where: str) -> None:
    """Scalar fields must have their annotated type, numbers must be finite
    and not negative, and each step must be a kind that compiles."""
    for f in fields(obj):
        value, want = getattr(obj, f.name), _FIELD_TYPES.get(f.type)
        if want is not None and (isinstance(value, bool) or not isinstance(value, want)):
            raise BadScenario(f"{where}: {f.name} must be {f.type}, got {value!r}")
        if want in (numbers.Integral, numbers.Real) and not (math.isfinite(value) and value >= 0):
            raise BadScenario(f"{where}: {f.name} must be finite and not negative, got {value!r}")
    if isinstance(obj, Scenario):
        for i, step in enumerate(obj.steps):
            _check(step, f"step {i}")
    elif obj.kind not in _STEP_KINDS:
        raise BadScenario(f"{where}: unknown kind {obj.kind!r}, expected one of {_STEP_KINDS}")
    elif obj.kind == "gesture" and obj.gesture not in STATIC_POSE_BY_GESTURE:
        names = [g.value for g in STATIC_POSE_BY_GESTURE]
        raise BadScenario(f"{where}: a gesture step needs a gesture in {names}, got {obj.gesture}")
    elif obj.kind == "mode_switch" and obj.mode is None:
        raise BadScenario(f"{where}: a mode_switch step needs a mode")


def _build(cls, raw, where: str, **enums):
    """``cls`` from a JSON object: absent keys take the field defaults, and
    ``enums`` names the Enum that parses a key's value."""
    if not isinstance(raw, dict):
        raise BadScenario(f"{where} must be a JSON object, got {raw!r}")
    unknown = set(raw) - {f.name for f in fields(cls)}
    if unknown:
        raise UnknownScenarioKey(f"unknown {where} keys: {sorted(unknown)}")
    try:
        return cls(**{k: enums[k](v) if k in enums else v for k, v in raw.items()})
    except (TypeError, ValueError) as exc:  # a required key is missing or a value is no member
        raise BadScenario(f"{where}: {exc}") from None


def load_scenario(path) -> Scenario:
    """Parse a scenario script. Absent keys take the Scenario and
    ScenarioStep defaults; a script that cannot be compiled (including a
    misspelt or retired key) raises BadScenario."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except ValueError as exc:  # not UTF-8 or not JSON
        raise BadScenario(str(exc)) from exc
    if not isinstance(raw, dict) or not isinstance(raw.get("steps", []), list):
        raise BadScenario("a scenario is a JSON object whose steps are a list")
    steps = tuple(_build(ScenarioStep, s, f"step {i}", gesture=GestureClass, mode=Granularity)
                  for i, s in enumerate(raw.get("steps", [])))
    sc = _build(Scenario, dict(raw, steps=steps), "scenario", granularity=Granularity)
    _check(sc, "scenario")
    return sc


def _frames(seconds: float) -> int:
    return max(1, int(round(seconds * FRAME_RATE)))


def _smooth(n: int) -> np.ndarray:
    return _smoothstep(np.linspace(0.0, 1.0, n))


def compile_scenario(sc: Scenario):
    """Build the merged frame timeline and the expected command sequence.

    Returns (frames, expected): frames are right- and left-hand HandFrames
    sorted by timestamp; expected is the list of EditCommands the session
    should produce (one unit per swipe, signed by its scripted direction).
    """
    _check(sc, "scenario")
    rest = POSES["rest"]
    tracks: list[PoseTrack] = []
    left_segments = []  # (start frame, menu frames, spread frames, target mode)
    expected: list[EditCommand] = []
    selection_armed = False
    n_total = 0

    def extend(track: PoseTrack):
        nonlocal n_total
        tracks.append(track)
        n_total += len(track.spread)

    def extend_const(pose: PoseParams, n: int):
        extend(PoseTrack.constant(pose, n))

    def extend_blend(a: PoseParams, b: PoseParams, n: int):
        extend(PoseTrack.blend(a, b, _smooth(n)))

    for step in sc.steps:
        extend_const(rest, _frames(step.pre_rest))
        if step.kind == "rest":
            extend_const(rest, _frames(step.duration))
        elif step.kind == "gesture":
            pose = POSES[STATIC_POSE_BY_GESTURE[step.gesture]]
            extend_blend(rest, pose, _frames(_BLEND_S))
            extend_const(pose, _frames(step.hold))
            extend_blend(pose, rest, _frames(_BLEND_S))
            expected.append(EditCommand(GESTURE_COMMANDS[step.gesture]))
        elif step.kind == "swipe":
            start = replace(POSES["swipe"], thumb_u=step.u_from)
            end = replace(POSES["swipe"], thumb_u=step.u_to)
            extend_blend(rest, start, _frames(_BLEND_S))
            n_move = _frames(step.move_time)
            base = PoseTrack.constant(start, n_move)
            u = step.u_from + (step.u_to - step.u_from) * _smooth(n_move)
            extend(PoseTrack(base.curls, base.spread, thumb_u=u, thumb_w=base.thumb_w))
            extend_const(end, _frames(step.hold))
            extend_blend(end, rest, _frames(_BLEND_S))
            delta = 1 if step.u_to >= step.u_from else -1
            if selection_armed:
                expected.append(EditCommand.select_range(delta))
                selection_armed = False
            else:
                expected.append(EditCommand.move_caret(delta))
        elif step.kind == "pinch_hold":
            pinch = POSES["pinch"]
            extend_blend(rest, pinch, _frames(0.15))
            extend_const(pinch, _frames(step.duration))
            extend_blend(pinch, rest, _frames(0.15))
            selection_armed = True
        elif step.kind == "mode_switch":
            n_menu = _frames(0.5)
            n_spread = _frames(0.3)
            left_segments.append((n_total, n_menu, n_spread, step.mode))
            extend_const(rest, n_menu + n_spread)
            expected.append(EditCommand.set_granularity(step.mode))
    extend_const(rest, _frames(1.0))
    return _assemble(sc, tracks, left_segments, expected)


def _assemble(sc: Scenario, tracks, left_segments, expected):
    subject = sc.subject()
    track = PoseTrack.concat(tracks)
    n = len(track.spread)
    t = np.arange(n) / FRAME_RATE
    rng = np.random.Generator(np.random.PCG64(stable_hash(sc.seed, "scenario-right")))
    wrist_pos = np.tile(_RIGHT_BASE, (n, 1))
    base_q = quat.from_axis_angle(np.array([0.0, 1.0, 0.0]), 0.3)
    wrist_quat = np.tile(base_q, (n, 1))
    ts, pos, ori = assemble_clip_arrays(track, t, wrist_pos, wrist_quat, subject, rng)
    right = [HandFrame(float(ts[i]), Handedness.RIGHT, pos[i], ori[i]) for i in range(n)]

    left: list[HandFrame] = []
    lrng = np.random.Generator(np.random.PCG64(stable_hash(sc.seed, "scenario-left")))
    for start_frame, n_menu, n_spread, mode in left_segments:
        target = np.radians(_SECTOR_CENTERS[mode])
        rolls = np.concatenate([target * _smooth(n_menu), np.full(n_spread, target)])
        poses = [POSES["thumb_up"]] * n_menu + [POSES["spread_four"]] * n_spread
        ltrack = PoseTrack.concat([PoseTrack.constant(p, 1) for p in poses])
        lt = (start_frame + np.arange(n_menu + n_spread) + 0.5) / FRAME_RATE
        lq = np.stack([quat.from_axis_angle(np.array([0.0, 0.0, 1.0]), r) for r in rolls])
        lpos = np.tile(_LEFT_BASE, (len(lt), 1))
        lts, lp, lo = assemble_clip_arrays(ltrack, lt, lpos, lq, subject, lrng)
        left.extend(HandFrame(float(lts[i]), Handedness.LEFT, lp[i], lo[i]) for i in range(len(lt)))

    frames = sorted(right + left, key=lambda f: f.timestamp)
    return frames, expected


@dataclass
class SessionResult:
    events: list[GestureEvent] = field(default_factory=list)
    commands: list[EditCommand] = field(default_factory=list)
    command_times: list[float] = field(default_factory=list)
    command_errors: list[str] = field(default_factory=list)
    final_document: Document | None = None
    right_frames: int = 0
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)

    def command_log(self) -> list[tuple[float, EditCommand]]:
        return list(zip(self.command_times, self.commands))

    def latency_summary(self) -> dict[str, float]:
        return latency_percentiles(self.latency)


class _SwipeEpisode:
    """Tracks the thumb's progress over one whole swipe.

    The FSM fires early (as soon as the pose is confirmed), before the user
    has actually moved. Binding at fire time would therefore measure the
    landing, not the swipe, so the command is deferred: progress u is
    sampled every frame until the thumb leaves the rail, and the direction
    comes from a least squares trend over the whole trajectory, which
    averages out per-frame noise.
    """

    END_AFTER_MISSES = 3

    def __init__(self, event: GestureEvent):
        self.event = event
        self.us: list[float] = []
        self.misses = 0

    def observe(self, u: float | None) -> bool:
        """Feed one frame's progress; returns True when the episode ended."""
        if u is None:
            self.misses += 1
            return self.misses >= self.END_AFTER_MISSES
        self.misses = 0
        self.us.append(u)
        return False

    def direction(self) -> int:
        if len(self.us) < 2:
            return 1
        slope = np.polyfit(np.arange(len(self.us)), np.asarray(self.us), 1)[0]
        return -1 if slope < 0 else 1


def run_session(
    predictor,
    frames: list[HandFrame],
    cfg: FsmConfig | None = None,
    initial_text: str = "",
    granularity: Granularity = Granularity.CHARACTER,
    ctx: EditorContext | None = None,
) -> SessionResult:
    """Replay a frame timeline through the full online pipeline.

    Right-hand frames feed the pinch-hold detector and the FSM; left-hand
    frames feed the mode-switch machine. Non-swipe events bind immediately;
    swipe events open an episode whose command is emitted once the thumb
    leaves the index rail.
    """
    runtime = StreamRuntime(predictor, cfg)
    ctx = ctx or EditorContext()
    mode_state = ModeSwitchState()
    doc = Document.create(initial_text, granularity)
    result = SessionResult()
    recent_right: deque[HandFrame] = deque(maxlen=int(FRAME_RATE * 2.5))
    armed_at_release = False
    episode: _SwipeEpisode | None = None
    now = frames[0].timestamp if frames else 0.0

    def flush_episode() -> None:
        nonlocal doc, episode
        if episode is None:
            return
        command = bind_event(episode.event, ctx, episode.direction())
        ctx.selection_armed = False
        episode = None
        doc = _apply(doc, command, result, now)

    with inference_thread_cap():
        for frame in frames:
            now = frame.timestamp
            if frame.handedness is Handedness.LEFT:
                mode_state, command = mode_switch_step(mode_state, frame)
                if command is not None:
                    doc = _apply(doc, command, result, now)
                continue

            result.right_frames += 1
            recent_right.append(frame)
            pinching_now = detect_pinch_hold(recent_right)
            if pinching_now and not armed_at_release:
                ctx.selection_armed = True
            armed_at_release = pinching_now

            event = runtime.push_frame(frame)
            if episode is not None and episode.observe(runtime.last_swipe_u):
                flush_episode()
            if event is not None:
                result.events.append(event)
                if event.gesture is GestureClass.SWIPE:
                    flush_episode()
                    episode = _SwipeEpisode(event)
                    if runtime.last_swipe_u is not None:
                        episode.observe(runtime.last_swipe_u)
                else:
                    flush_episode()
                    doc = _apply(doc, bind_event(event, ctx), result, now)

    flush_episode()
    result.final_document = doc
    result.latency = runtime.latency
    return result


def _apply(doc: Document, command: EditCommand, result: SessionResult, timestamp: float) -> Document:
    result.commands.append(command)
    result.command_times.append(timestamp)
    try:
        return apply_command(doc, command)
    except EditError as exc:
        result.command_errors.append(f"{command.kind.value}: {exc}")
        return doc


def default_scenario(seed: int = 7) -> Scenario:
    """The eight-command reference script: one mode switch plus eight fired
    gestures (two swipes for navigation and selection, then the six static
    commands), composed so every command is legal when it arrives.

    Swipes map to one unit per fired event, so the expected deltas do not
    depend on any particular model's sub-state calibration.
    """
    return Scenario(
        initial_text="The quick brown fox jumps over the lazy dog. Pack my box.\n\nSecond paragraph for keeps.",
        granularity=Granularity.CHARACTER,
        seed=seed,
        steps=(
            ScenarioStep(kind="mode_switch", mode=Granularity.WORD),
            ScenarioStep(kind="swipe", u_from=0.05, u_to=0.6, move_time=0.3, hold=0.1),
            ScenarioStep(kind="pinch_hold", duration=2.2),
            ScenarioStep(kind="swipe", u_from=0.05, u_to=0.6, move_time=0.3, hold=0.1),
            ScenarioStep(kind="gesture", gesture=GestureClass.RING),
            ScenarioStep(kind="gesture", gesture=GestureClass.SCISSOR),
            ScenarioStep(kind="gesture", gesture=GestureClass.PINKY),
            ScenarioStep(kind="gesture", gesture=GestureClass.VERTICAL),
            ScenarioStep(kind="gesture", gesture=GestureClass.FIST),
            ScenarioStep(kind="gesture", gesture=GestureClass.OPEN),
        ),
    )
