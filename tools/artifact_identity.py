"""Check that two source trees produce byte-identical CLI artifacts.

    python3 tools/artifact_identity.py PARENT_SRC CHANGE_SRC [--checkpoints PARENT_MGC CHANGE_MGC]

PARENT_SRC and CHANGE_SRC are directories that hold the ``microgext``
package (the ``src`` directory of two checkouts). Under each tree, in its
own temporary directory, the tool runs the CLI sequence of acceptance
criterion 9:

    synth --n-subjects 2 --reps 2 --null-reps 2 --seed 7
    train --fold-subject 0 --seed 7 --config {"hidden": 16, "max_epochs": 3}
    eval  --fold-subject 0

With ``--checkpoints``, each tree then runs ``stream --script default
--seed S`` for S = 7..14 with its own model: PARENT_MGC under PARENT_SRC and
CHANGE_MGC under CHANGE_SRC (for example each tree's hidden-256 benchmark
model), so two trees whose checkpoint formats differ can still be compared.
Each tree then replays its own recording of the seed-7 run, ``stream
--session stream-7/session.mgs --out replay``, which runs the ``.mgs``
reader end to end. Without ``--checkpoints`` the stream runs are skipped,
and the tool says so: the tiny model trained above does not replay the
script, so its sessions would only compare two failed runs.

It compares ``dataset.mgd``, ``checkpoint.mgc``, ``training_log.json``,
``report.mgr`` and the outputs of every stream run and of the replay byte
for byte, and each command's exit code. A recording carries its run's
inputs, so within the change tree each replay output must also equal the
seed-7 run's own (rows ``change replay/<name> == stream-7/<name>``); that
catches a replay that both trees get wrong alike. It prints one line per
artifact and exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TRAIN_CONFIG = {"hidden": 16, "max_epochs": 3}
STREAM_SEEDS = range(7, 15)
FOLD_ARTIFACTS = ("dataset.mgd", "checkpoint.mgc", "training_log.json", "report.mgr")
STREAM_ARTIFACTS = ("session.mgs", "commands.log", "final_document.txt", "events.json")


def commands(work: Path, checkpoint: Path | None) -> dict[str, list[str]]:
    """The CLI invocations by name, in the order they run."""
    data = ["--dataset", str(work / "dataset.mgd"), "--fold-subject", "0"]
    steps = {
        "synth": ["synth", "--n-subjects", "2", "--reps", "2", "--null-reps", "2", "--seed", "7",
                  "--out", str(work)],
        "train": ["train", *data, "--seed", "7", "--config", str(work / "train_config.json"),
                  "--out", str(work)],
        "eval": ["eval", "--checkpoint", str(work / "checkpoint.mgc"), *data, "--out", str(work)],
    }
    if checkpoint is not None:
        for seed in STREAM_SEEDS:
            steps[f"stream-{seed}"] = ["stream", "--checkpoint", str(checkpoint), "--script", "default",
                                       "--seed", str(seed), "--out", str(work / f"stream-{seed}")]
        steps["replay"] = ["stream", "--checkpoint", str(checkpoint), "--session",
                           str(work / "stream-7" / "session.mgs"), "--out", str(work / "replay")]
    return steps


def run_tree(src: Path, work: Path, checkpoint: Path | None) -> dict[str, int]:
    """Run the sequence with ``src`` on the import path; exit code by command."""
    (work / "train_config.json").write_text(json.dumps(TRAIN_CONFIG))
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    codes = {}
    for name, argv in commands(work, checkpoint).items():
        done = subprocess.run([sys.executable, "-m", "microgext.cli", *argv], env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        codes[name] = done.returncode
    return codes


def artifacts(streams: bool) -> list[str]:
    names = list(FOLD_ARTIFACTS)
    if streams:
        for run in [f"stream-{seed}" for seed in STREAM_SEEDS] + ["replay"]:
            names += [f"{run}/{name}" for name in STREAM_ARTIFACTS]
    return names


def _read(path: Path) -> bytes | None:
    return path.read_bytes() if path.is_file() else None


def compare(parent: Path, change: Path, parent_codes: dict, change_codes: dict,
            streams: bool) -> list[tuple[str, bool]]:
    """(label, identical) per command exit code, per artifact and, with the
    stream runs, per replay output against the change tree's own seed-7
    run; an artifact missing on both sides counts as a difference."""
    rows = [(f"exit {name} {parent_codes[name]} {change_codes[name]}",
             parent_codes[name] == change_codes[name]) for name in parent_codes]
    for name in artifacts(streams):
        a, b = _read(parent / name), _read(change / name)
        rows.append((name, a is not None and a == b))
    for name in STREAM_ARTIFACTS if streams else ():
        a, b = _read(change / "replay" / name), _read(change / "stream-7" / name)
        rows.append((f"change replay/{name} == stream-7/{name}", a is not None and a == b))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--checkpoints", type=Path, nargs=2, metavar=("PARENT_MGC", "CHANGE_MGC"),
                        help="the model each tree replays the stream runs with (default: no stream runs)")
    args = parser.parse_args(argv)
    parent_ckpt, change_ckpt = args.checkpoints or (None, None)
    streams = args.checkpoints is not None

    with tempfile.TemporaryDirectory(prefix="artifact-identity-") as tmp:
        parent, change = Path(tmp, "parent"), Path(tmp, "change")
        parent.mkdir()
        change.mkdir()
        parent_codes = run_tree(args.parent_src, parent, parent_ckpt)
        change_codes = run_tree(args.change_src, change, change_ckpt)
        rows = compare(parent, change, parent_codes, change_codes, streams)
    if not streams:
        print("skipped  stream runs: no --checkpoints given")
    for label, same in rows:
        print(f"{'same' if same else 'DIFFERS':8s} {label}")
    differing = sum(not same for _, same in rows)
    print(f"{len(rows) - differing} of {len(rows)} identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
