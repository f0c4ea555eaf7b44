"""A/B per-frame timing of two source trees in one process, with an A/A floor.

    python3 tools/ab_frames.py PARENT_SRC CHANGE_SRC --checkpoint PATH

PARENT_SRC and CHANGE_SRC are directories that hold the ``microgext``
package (the ``src`` directory of two checkouts). The package has no
absolute self-imports, so the tool loads three copies side by side under
their own names: the parent (A), the change (B) and the parent once more
(A', whose ratio to A is the noise floor of the method). Each copy reads
the checkpoint with its own reader and compiles each script seed of the
built-in default script (``SEEDS``, 7-14) with its own compiler.

Each of ``ROUNDS`` (10) rounds replays every seed once on every copy, through
``scenario.run_session`` as the ``live_session`` benchmark calls it, and
rotates the order of the copies from round to round. A right-hand frame is
timed from the moment the runner draws it to the moment it draws the next
frame. Each frame keeps its minimum over the rounds, which drops most of
the host's noise: the B/A ratio of the p50 and p99 of those minima is
printed next to the A'/A ratio.

It checks that the three copies fire the same events (gesture, time and
the float32 confidence that ``stream`` writes), emit the same commands and
command errors and end on the same document, and exits 1 if they do not.
The ratios are a reading, not a gate.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import sys
import time
from pathlib import Path

import numpy as np

SEEDS = tuple(range(7, 15))
ROUNDS = 10


class Side:
    """One loaded copy of the package: its model, its compiled sessions by
    script seed, and per seed the frame times of each round and the outcome."""

    def __init__(self, label: str, package: str, params, sessions: dict):
        self.label, self.package, self.params, self.sessions = label, package, params, sessions
        self.frame_ms: dict[int, list[np.ndarray]] = {}
        self.outcomes: dict[int, tuple] = {}


def load_package(src: Path, name: str):
    """Import the ``microgext`` package under ``src`` as the top-level package ``name``."""
    root = Path(src).resolve() / "microgext"
    spec = importlib.util.spec_from_file_location(name, root / "__init__.py", submodule_search_locations=[str(root)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def make_side(label: str, src: Path, package: str, checkpoint: Path, seeds) -> Side:
    load_package(src, package)
    scenario = importlib.import_module(f"{package}.scenario")
    session_io = importlib.import_module(f"{package}.session_io")
    sessions = {}
    for seed in seeds:
        sc = scenario.default_scenario(seed)
        sessions[seed] = (sc, scenario.compile_scenario(sc)[0])
    return Side(label, package, session_io.load_checkpoint(checkpoint), sessions)


def outcome(result) -> tuple:
    """What a replay must reproduce: events, commands, errors and the document."""
    events = [(e.gesture.value, e.fired_at, float(np.float32(e.mean_confidence))) for e in result.events]
    commands = [(c.kind.value, c.delta, None if c.mode is None else c.mode.value) for c in result.commands]
    doc = result.final_document
    document = None if doc is None else (doc.text, doc.caret, doc.selection, doc.clipboard)
    return events, commands, list(result.command_errors), document


def replay(side: Side, seed: int) -> None:
    """Replay one session on one side; record its right-hand frame times and outcome."""
    scenario = sys.modules[f"{side.package}.scenario"]
    sc, frames = side.sessions[seed]
    stamps = []

    def clocked():
        for frame in frames:
            stamps.append(time.perf_counter())
            yield frame
        stamps.append(time.perf_counter())

    result = scenario.run_session(side.params, clocked(), cfg=sc.fsm_config(), initial_text=sc.initial_text,
                                  granularity=sc.granularity, ctx=sc.context())
    right = np.array([f.handedness.value == "Right" for f in frames])
    side.frame_ms.setdefault(seed, []).append(np.diff(stamps)[right] * 1e3)
    side.outcomes.setdefault(seed, outcome(result))


def run(parent_src: Path, change_src: Path, checkpoint: Path, seeds, rounds: int) -> list[Side]:
    """Load A, B and A', then replay every seed on each for ``rounds`` rounds."""
    sides = [make_side("A  parent", parent_src, "ab_parent", checkpoint, seeds),
             make_side("B  change", change_src, "ab_change", checkpoint, seeds),
             make_side("A' parent", parent_src, "ab_parent_again", checkpoint, seeds)]
    for r in range(rounds):
        order = sides[r % 3:] + sides[: r % 3]
        for seed in seeds:
            for side in order:
                replay(side, seed)
    return sides


def frame_minima(side: Side) -> np.ndarray:
    """Each right-hand frame's minimum time over the rounds, all seeds in one array (ms)."""
    return np.concatenate([np.min(np.stack(side.frame_ms[seed]), axis=0) for seed in sorted(side.frame_ms)])


def mismatches(sides: list[Side]) -> list[str]:
    """Seeds whose replay differs from the parent's, one message each."""
    base = sides[0]
    return [f"{side.label.split()[0]} differs from A on script seed {seed}"
            for side in sides[1:] for seed in base.outcomes if side.outcomes[seed] != base.outcomes[seed]]


def report(sides: list[Side]) -> list[str]:
    return ratio_lines({side.label: frame_minima(side) for side in sides})


def ratio_lines(minima: dict[str, np.ndarray]) -> list[str]:
    """The p50 and p99 of each side's minima, in the order A, B, A', and
    the B/A and A'/A ratios of both."""
    p50, p99 = ({label: float(np.percentile(values, q)) for label, values in minima.items()} for q in (50, 99))
    a, b, floor = minima
    lines = [f"{'':10s} {'p50 ms':>9s} {'p99 ms':>9s}"]
    lines += [f"{label:10s} {p50[label]:9.4f} {p99[label]:9.4f}" for label in p50]
    lines.append(f"{'B/A':10s} {p50[b] / p50[a]:9.3f} {p99[b] / p99[a]:9.3f}")
    lines.append(f"{'floor A/A':10s} {p50[floor] / p50[a]:9.3f} {p99[floor] / p99[a]:9.3f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--checkpoint", type=Path, required=True, help="the model both trees replay with")
    args = parser.parse_args(argv)

    sides = run(args.parent_src, args.change_src, args.checkpoint, SEEDS, ROUNDS)
    n_frames = len(frame_minima(sides[0]))
    print(f"script seeds {' '.join(map(str, SEEDS))}, {ROUNDS} rounds, "
          f"{n_frames} right-hand frames, per-frame minima over rounds")
    for line in report(sides):
        print(line)
    bad = mismatches(sides)
    for line in bad:
        print(f"MISMATCH {line}")
    print("outputs differ" if bad else "events, commands and final documents equal on every seed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
