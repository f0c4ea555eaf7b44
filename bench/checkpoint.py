"""The hidden-256 checkpoint that ``live_session`` replays its scripts with.

The benchmark makes this model with the program under test, so a change to
training shows up in the live workload too. It trains LOSO fold 0 of the
default dataset at hidden 256 with fixed seeds, calibrates it on the fold's
validation split the way ``microgext train`` does, and saves it. Training
takes minutes, so it never runs inside a timed run: the first run in a
checkout builds it in a child process and caches it under ``bench/.cache``,
keyed by a hash of the recipe, the numpy version and every source file of
the package. Any change to ``src/microgext`` therefore rebuilds it.

The recipe has to reach a model that replays the script, not merely one
that finishes training: a 20-epoch model at this learning rate fires Pinky
during the two-second pinch hold. The live workload checks every session,
so a recipe that stops replaying the script makes that workload fail.

Run ``python3 bench/checkpoint.py`` to build (or confirm) the cached model.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import harness

RECIPE = {
    "n_subjects": 10,
    "reps_per_gesture": 20,
    "null_reps": 20,
    "dataset_seed": 0,
    "fold_subject": 0,
    "hidden": 256,
    "max_epochs": 60,
    "learning_rate": 2e-3,
    "master_seed": 0,
}
CACHE_DIR = harness.BENCH_DIR / ".cache"
BUILD_TIMEOUT_S = 840


def cache_key() -> str:
    import numpy as np

    digest = hashlib.sha256()
    digest.update(json.dumps(RECIPE, sort_keys=True).encode())
    digest.update(np.__version__.encode())
    package = harness.SRC / "microgext"
    for path in sorted(package.rglob("*.py")):
        digest.update(str(path.relative_to(package)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:20]


def checkpoint_path() -> Path:
    return CACHE_DIR / f"live-h256-{cache_key()}.mgc"


def build(path: Path) -> float:
    """Train, calibrate and save the checkpoint; returns seconds taken."""
    import numpy as np

    harness.import_program()
    from microgext import calibration, network, session_io, synth, training

    start = time.perf_counter()
    dataset = synth.make_dataset(
        RECIPE["n_subjects"], RECIPE["reps_per_gesture"], RECIPE["null_reps"], seed=RECIPE["dataset_seed"]
    )
    hp = network.HyperParams(
        hidden=RECIPE["hidden"],
        max_epochs=RECIPE["max_epochs"],
        learning_rate=RECIPE["learning_rate"],
        master_seed=RECIPE["master_seed"],
    )
    fold = RECIPE["fold_subject"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        params, _ = training.train(dataset, fold, hp)
    _, val_clips, _ = training.split_fold(dataset, fold)
    val_fc = [training.featurize_clip(c) for c in val_clips]
    x_val = np.stack([training.center_window(fc) for fc in val_fc])
    y_val = np.array([fc.class_index for fc in val_fc])
    params = calibration.calibrate(params, x_val, y_val)

    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_suffix(".partial")
    session_io.save_checkpoint(params, partial)
    os.replace(partial, path)
    return time.perf_counter() - start


def ensure() -> Path:
    """Path of the cached checkpoint, building it in a child process first
    if this source tree has none yet (the child's memory never counts
    towards a run's peak RSS)."""
    path = checkpoint_path()
    if not path.is_file():
        print(f"building the live_session checkpoint {path.name} (minutes, once per source tree)",
              file=sys.stderr, flush=True)
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve())],
            check=True,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    return path


if __name__ == "__main__":
    target = checkpoint_path()
    if target.is_file():
        print(f"{target} is up to date")
    else:
        seconds = build(target)
        print(f"built {target} in {seconds:.1f} s")
