"""live_session: the default 8-command script replayed live at hidden 256.

Set-up loads the hidden-256 checkpoint (see ``checkpoint.py``) and compiles
``SESSIONS_PER_PASS`` scenarios: the built-in default script with script
seeds drawn from ``SCRIPT_SEEDS`` by the workload seed, each with an
editing text drawn from the workload seed. One round is one
``scenario.run_session`` call; a pass replays each compiled session once,
and a run makes at least ``MIN_PASSES`` passes, so every frame is replayed
and timed at least twice.

Frames are replayed in a closed loop: each frame goes in as soon as the
previous one is done. A real 72 Hz source sends one frame every 13.9 ms, so
while a frame takes a few milliseconds no backlog can form and service time
is the latency. An operation is one right-hand frame, timed as
``run_session`` draws each frame from the sequence the benchmark hands it:
one clock reading per frame drawn. The count of frames over the 13.9 ms
budget is reported beside the metrics.

Before the timed rounds, a warm-up pushes ``WARMUP_FRAMES`` frames through a
fresh ``StreamRuntime``. Its first 20 inference frames are the process's
cold start (``stream.first20_ms``), which is random today and so kept out of
the end-to-end metrics.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

import checkpoint
import harness

SCRIPT_SEEDS = (7, 8, 9, 10, 11, 12, 13, 14)
SESSIONS_PER_PASS = 2
MIN_PASSES = 2
WARMUP_FRAMES = 80
T_WINDOW = 20
FRAME_RATE = 72.0
TRAILING_REST_S = 1.0  # compile_scenario closes every timeline with 1 s of rest

# the paper's gesture-to-command binding, written out apart from the program
BINDING = {"Scissor": "Cut", "Ring": "Copy", "Open": "Undo", "Fist": "Delete",
           "Vertical": "SelectAll", "Pinky": "Paste"}
_WORDS = ("alpha", "brisk", "cedar", "delta", "ember", "fable", "grove", "haven", "ivory",
          "jolly", "koala", "lemon", "maple", "noble", "ocean", "pixel", "quartz", "raven",
          "solar", "tiger", "umber", "vivid", "willow", "xenon", "yodel", "zephyr")


def session_text(rng: np.random.Generator) -> str:
    """A short two-paragraph text; every script command is legal on it."""
    def sentence(n: int) -> str:
        words = [_WORDS[i] for i in rng.integers(0, len(_WORDS), n)]
        return " ".join(words).capitalize() + "."

    return f"{sentence(5)} {sentence(3)}\n\n{sentence(4)}"


class ClockedFrames(list):
    """The frame list ``run_session`` iterates, reading the clock as each
    frame is drawn and once after the last. With a tracer it also reads the
    tracer's top-level total, so a frame's self time can be derived."""

    def __init__(self, frames, tracer=None):
        super().__init__(frames)
        self.tracer = tracer
        self.stamps: list[float] = []
        self.traced: list[float] = []

    def __iter__(self):
        clock, stamps, traced, tracer = time.perf_counter, self.stamps, self.traced, self.tracer
        for frame in list.__iter__(self):
            stamps.append(clock())
            if tracer is not None:
                traced.append(tracer.top_level_s)
            yield frame
        stamps.append(clock())
        if tracer is not None:
            traced.append(tracer.top_level_s)


def script_expectation(sc):
    """Gestures that should fire and commands that should result, read off
    the script's steps with the paper's binding."""
    gestures, commands, armed = [], [], False
    for step in sc.steps:
        if step.kind == "mode_switch":
            commands.append(("SetGranularity", 0, step.mode.value))
        elif step.kind == "pinch_hold":
            armed = True
        elif step.kind == "swipe":
            gestures.append("Swipe")
            commands.append(("SelectRange" if armed else "MoveCaret", 1 if step.u_to >= step.u_from else -1, None))
            armed = False
        elif step.kind == "gesture":
            gestures.append(step.gesture.value)
            commands.append((BINDING[step.gesture.value], 0, None))
    return gestures, commands


def leading_rest_s(sc) -> float:
    """A lower bound on how long the right hand rests before its first
    action: the pre-rests and rests up to the first right-hand step."""
    total = 0.0
    for step in sc.steps:
        total += step.pre_rest
        if step.kind == "rest":
            total += step.duration
        elif step.kind != "mode_switch":
            break
    return total


def _command_tuple(cmd):
    return (cmd.kind.value, cmd.delta, cmd.mode.value if cmd.mode is not None else None)


def check_session(sc, frames, expected, result, ref) -> list[str]:
    """Every way one session's outputs can be wrong, as messages."""
    tag = f"script seed {sc.seed}"
    errors = []
    want_gestures, want_commands = script_expectation(sc)
    if [_command_tuple(c) for c in expected] != want_commands:
        errors.append(f"{tag}: compiled expectation {[_command_tuple(c) for c in expected]} != script {want_commands}")
    fired = [e.gesture.value for e in result.events]
    if fired != want_gestures:
        errors.append(f"{tag}: fired {fired}, script has {want_gestures}")
    got = [_command_tuple(c) for c in result.commands]
    if got != [_command_tuple(c) for c in expected]:
        errors.append(f"{tag}: commands {got} != compiled expectation")
    if result.command_errors:
        errors.append(f"{tag}: command errors {result.command_errors}")

    lead_end = frames[0].timestamp + leading_rest_s(sc)
    tail_start = frames[-1].timestamp - TRAILING_REST_S
    window_s = (T_WINDOW - 1) / FRAME_RATE
    for e in result.events:
        if e.fired_at < lead_end or e.fired_at - window_s > tail_start:
            errors.append(f"{tag}: {e.gesture.value} fired at {e.fired_at:.3f} s, inside the leading or trailing rest")

    state = ref.new_state(sc.initial_text, sc.granularity.value)
    try:
        for kind, delta, mode in [_command_tuple(c) for c in expected]:
            ref.apply_ref(state, kind, delta, mode)
    except ref.RefError as exc:
        errors.append(f"{tag}: the reference editor rejects the expected commands ({exc})")
    doc = result.final_document
    if doc is None or (doc.text, doc.caret, doc.selection, doc.clipboard) != (
        state["text"], state["caret"], state["selection"], state["clipboard"]
    ):
        errors.append(f"{tag}: final document differs from the reference replay")
    return errors


def _trace(tracer):
    from microgext import editor, network, scenario, session_io, stream

    tracer.wrap(session_io, "load_checkpoint", "session_io.load_checkpoint")
    tracer.wrap(scenario, "compile_scenario", "scenario.compile")
    tracer.wrap(stream, "features_from_arrays", "skeleton.featurize")
    tracer.wrap(network, "forward_batch", harness.forward_label)
    tracer.wrap(stream.ModelPredictor, "__call__", "stream.predictor")
    tracer.wrap(stream.StreamRuntime, "push_frame", "stream.push_frame")
    tracer.wrap(stream, "fsm_step", "fsm.step")
    tracer.wrap(scenario, "detect_pinch_hold", "interaction.pinch")
    tracer.wrap(scenario, "mode_switch_step", "interaction.mode_switch")
    tracer.wrap(scenario, "bind_event", "interaction.bind")
    tracer.wrap(scenario, "apply_command", harness.apply_label)
    tracer.wrap(editor, "segment", "editor.segment")


def run(seed: int, seconds: float, tracer=None, sessions: int = SESSIONS_PER_PASS, min_passes: int = MIN_PASSES,
        params=None) -> harness.Outcome:
    """``params`` replaces the cached checkpoint (the benchmark's tests use
    it to feed a model that should fail the checks)."""
    harness.import_program()
    from microgext import scenario, session_io, stream

    ref = harness.load_reference_editor()
    ckpt = checkpoint.ensure() if params is None else None
    if tracer is not None:
        _trace(tracer)
    rng = np.random.default_rng(seed)
    chosen = [SCRIPT_SEEDS[int(i)] for i in rng.choice(len(SCRIPT_SEEDS), sessions, replace=False)]
    texts = [session_text(rng) for _ in chosen]

    def build():
        model = params if params is not None else session_io.load_checkpoint(ckpt)
        items = []
        for script_seed, text in zip(chosen, texts):
            sc = replace(scenario.default_scenario(script_seed), initial_text=text)
            frames, expected = scenario.compile_scenario(sc)
            items.append((sc, frames, expected))
        return model, items

    out = harness.Outcome()
    (model, compiled), out.setup_s = harness.timed_setup(build)
    layers = {}
    if tracer is not None:
        layers["session_io.load_checkpoint_ms"] = harness.median_or_zero(
            tracer.durations("session_io.load_checkpoint")) * 1e3
        layers["scenario.compile_s"] = sum(tracer.durations("scenario.compile")) / harness.SETUP_REPEATS

    sc0, frames0, _ = compiled[0]
    warm = [f for f in frames0 if f.handedness.value == "Right"][:WARMUP_FRAMES]
    runtime = stream.StreamRuntime(model, sc0.fsm_config())
    pushes = []
    with stream.inference_thread_cap():
        for frame in warm:
            start = time.perf_counter()
            runtime.push_frame(frame)
            pushes.append(time.perf_counter() - start)
    first20_ms = float(np.mean(pushes[T_WINDOW - 1 : T_WINDOW - 1 + 20])) * 1e3
    if tracer is not None:
        tracer.clear()

    frame_self: list[float] = []
    finished = []

    def do_round(slot: int) -> float:
        sc, frames, expected = compiled[slot]
        clocked = ClockedFrames(frames, tracer)
        start = time.perf_counter()
        result = scenario.run_session(model, clocked, cfg=sc.fsm_config(), initial_text=sc.initial_text,
                                      granularity=sc.granularity, ctx=sc.context())
        elapsed = time.perf_counter() - start
        stamps = np.asarray(clocked.stamps)
        right = np.array([f.handedness.value == "Right" for f in frames])
        spans = np.diff(stamps)[right]
        out.add_round(slot, elapsed, spans * 1e3)
        if tracer is not None:
            frame_self.extend(spans - np.diff(np.asarray(clocked.traced))[right])
        finished.append((sc, frames, expected, result))
        return elapsed

    try:
        harness.run_passes(seconds, len(compiled), min_passes, do_round)
    finally:
        if tracer is not None:
            tracer.close()
    out.peak_rss_mb = harness.peak_rss_mb()

    for sc, frames, expected, result in finished:
        out.errors += check_session(sc, frames, expected, result, ref)
    out.notes = {
        "script_seeds": chosen,
        "frames_over_budget": int(np.sum(out.op_ms() > harness.FRAME_BUDGET_MS)),
        "first20_ms": first20_ms,
        "checkpoint": ckpt.name if ckpt is not None else "supplied",
    }
    if tracer is not None:
        med, ms = harness.median_or_zero, 1e3
        push = tracer.durations("stream.push_frame")
        layers.update({
            "stream.first20_ms": first20_ms,
            "skeleton.featurize_ms": med(tracer.durations("skeleton.featurize")) * ms,
            "network.forward_b1_ms": med(tracer.durations("network.forward_b1")) * ms,
            "stream.predictor_ms": med(tracer.durations("stream.predictor")) * ms,
            "stream.push_frame_p50_ms": harness.percentile(push, 50) * ms,
            "stream.push_frame_p99_ms": harness.percentile(push, 99) * ms,
            "fsm.step_us": med(tracer.durations("fsm.step")) * 1e6,
            "interaction.pinch_ms": med(tracer.durations("interaction.pinch")) * ms,
            "interaction.mode_switch_us": med(tracer.durations("interaction.mode_switch")) * 1e6,
            "scenario.frame_self_ms": med(frame_self) * ms,
            **harness.editor_layers(tracer),
        })
        out.layers = layers
    return out
