"""A/B timing of the training step of two source trees in one process, with an A/A floor.

    python3 tools/ab_step.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are directories that hold the ``microgext``
package (the ``src`` directory of two checkouts). As ``tools/ab_frames.py``
does, the tool loads three copies side by side under their own names: the
parent (A), the change (B) and the parent once more (A', whose ratio to A is
the noise floor of the method).

The parent builds the inputs once: fold 0 (subject 0 held out) of the
default synthetic dataset (10 subjects, 20 repetitions per gesture and 20
Null, seed 0), and the first ``STEPS`` batches of the first epoch that
``training.fit`` would draw at the CI configuration (hidden 64, learning
rate 2e-3, master seed 5). Every copy then runs the same steps on those
arrays: ``network.loss_and_grads``, ``training.Adam.step`` and a new
``network.ModelParams``, from the float32 initial parameters ``fit``
starts from. Each of ``ROUNDS`` (20) rounds runs the steps once on every
copy, from the same start, and rotates the order of the copies from round
to round. Each step keeps its minimum over the rounds, and the B/A ratio of
the p50 and p99 of those minima is printed next to the A'/A ratio.

It exits 1 unless the three copies end every round on byte-identical
parameters. The ratios are a reading, not a gate.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import sys
import time
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))  # the tools directory, for ab_frames
from ab_frames import load_package, ratio_lines  # noqa: E402

SUBJECTS, REPS, NULL_REPS, DATASET_SEED, FOLD = 10, 20, 20, 0, 0
CI_HIDDEN, CI_LEARNING_RATE, CI_MASTER_SEED = 64, 2e-3, 5
STEPS = 30
ROUNDS = 20


class Side:
    """One loaded copy of the package: its step functions, per round the
    step times, and the final parameters of each round as bytes."""

    def __init__(self, label: str, package: str):
        self.label = label
        self.network = importlib.import_module(f"{package}.network")
        self.training = importlib.import_module(f"{package}.training")
        self.synth = importlib.import_module(f"{package}.synth")
        self.step_ms: list[np.ndarray] = []
        self.finals: list[dict[str, bytes]] = []

    def hyperparams(self):
        return self.network.HyperParams(hidden=CI_HIDDEN, learning_rate=CI_LEARNING_RATE,
                                        master_seed=CI_MASTER_SEED)

    def initial_params(self):
        """The float32 parameters ``training.fit`` starts fold FOLD from."""
        hp = self.hyperparams()
        params = self.network.init_params(hp, seed=self.synth.stable_hash(hp.master_seed, "init", FOLD))
        return self.network.ModelParams(hp, {k: v.astype(np.float32) for k, v in params.tensors.items()})


def fixed_batches(side: Side, steps: int) -> list[tuple]:
    """The first ``steps`` batches (x, y_class, y_state) of the first epoch
    of fold FOLD, drawn as ``training.fit`` draws them."""
    training, synth = side.training, side.synth
    dataset = synth.make_dataset(SUBJECTS, REPS, NULL_REPS, seed=DATASET_SEED)
    train_clips, _, _ = training.split_fold(dataset, FOLD)
    pool = training.crop_pool(train_clips)
    rng = np.random.Generator(np.random.PCG64(synth.stable_hash(CI_MASTER_SEED, "train", FOLD)))
    crop_rows = training._epoch_crops(pool, rng)
    order = rng.permutation(len(pool.first_row))
    first = itertools.islice(training._batches(len(order), order), steps)
    return [training._crop_batch(pool, crop_rows, idx) for idx in first]


def run_steps(side: Side, batches: list[tuple]) -> None:
    """One round: every batch's step from the initial parameters; records
    each step's time and the final parameters."""
    network, training = side.network, side.training
    params = side.initial_params()
    hp, opt, lr = params.hp, training.Adam(params.tensors), CI_LEARNING_RATE
    times = np.empty(len(batches))
    clock = time.perf_counter
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a batch without a positive pair
        for i, (x, y_class, y_state) in enumerate(batches):
            start = clock()
            _, _, grads = network.loss_and_grads(params, x, y_class, y_state)
            params = network.ModelParams(hp, opt.step(params.tensors, grads, lr), tau=params.tau)
            times[i] = clock() - start
    side.step_ms.append(times * 1e3)
    side.finals.append({name: t.tobytes() for name, t in sorted(params.tensors.items())})


def run(parent_src: Path, change_src: Path, steps: int, rounds: int) -> list[Side]:
    """Load A, B and A', build the batches with A, then run the steps on
    each for ``rounds`` rounds."""
    sides = []
    for label, src, package in (("A  parent", parent_src, "ab_step_parent"),
                                ("B  change", change_src, "ab_step_change"),
                                ("A' parent", parent_src, "ab_step_parent_again")):
        load_package(src, package)
        sides.append(Side(label, package))
    batches = fixed_batches(sides[0], steps)
    for r in range(rounds):
        for side in sides[r % 3:] + sides[: r % 3]:
            run_steps(side, batches)
    return sides


def step_minima(side: Side) -> np.ndarray:
    """Each step's minimum time over the rounds (ms)."""
    return np.min(np.stack(side.step_ms), axis=0)


def mismatches(sides: list[Side]) -> list[str]:
    """Rounds whose final parameters differ from A's first round, one message each."""
    base = sides[0].finals[0]
    return [f"{side.label.split()[0]} ends round {r} on other parameters than A"
            for side in sides for r, final in enumerate(side.finals) if final != base]


def report(sides: list[Side]) -> list[str]:
    return ratio_lines({side.label: step_minima(side) for side in sides})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    args = parser.parse_args(argv)

    sides = run(args.parent_src, args.change_src, STEPS, ROUNDS)
    print(f"fold {FOLD}, hidden {CI_HIDDEN}, {STEPS} steps, {ROUNDS} rounds, per-step minima over rounds")
    for line in report(sides):
        print(line)
    bad = mismatches(sides)
    for line in bad:
        print(f"MISMATCH {line}")
    print("parameters differ" if bad else "parameters byte-identical on every side and round")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
