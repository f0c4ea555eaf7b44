"""loso_train: leave-one-subject-out training, calibration and evaluation.

Set-up synthesizes the default-shaped dataset (10 subjects x 20 reps per
gesture + 20 Null clips each) from the workload seed. One round is one LOSO
fold, run the way ``microgext train`` and ``microgext eval`` run it: train
at the CI configuration (hidden 64, learning rate 2e-3, fixed master seed),
fit the temperature on the fold's validation split, evaluate the held-out
subject. A pass is two folds, whose held-out subjects are the first two of
a seeded permutation of the ten; a run is one pass, or more if its timed
work has not reached ``--seconds``.

An operation is one training step, timed between consecutive calls into
``network.loss_and_grads``; the last step of a fold ends when ``train``
returns. This workload runs the batched forward and the backward pass, Adam,
featurization, calibration and evaluation, and no stream, FSM or editor code.
"""

from __future__ import annotations

import time
import warnings

import numpy as np

import harness

N_SUBJECTS, REPS_PER_GESTURE, NULL_REPS = 10, 20, 20
HIDDEN = 64
LEARNING_RATE = 2e-3
MASTER_SEED = 5
EPOCHS = 13
FOLDS_PER_PASS = 2  # 2 folds x 13 epochs x 39 steps = 1014 steps
ACCURACY_BAR = 0.90
ECE_BINS = 15


def expected_calibration_error(probs: np.ndarray, labels: np.ndarray, n_bins: int = ECE_BINS) -> float:
    """Equal-width-bin ECE, written apart from the program's own."""
    conf = probs.max(axis=1)
    hit = (probs.argmax(axis=1) == labels).astype(np.float64)
    bins = np.minimum((conf * n_bins).astype(np.int64), n_bins - 1)
    total = 0.0
    for b in range(n_bins):
        mask = bins == b
        if mask.any():
            total += mask.mean() * abs(hit[mask].mean() - conf[mask].mean())
    return float(total)


def softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def check_fold(fold, log, raw, calibrated, report, x_val, y_val, x_test, y_test, network) -> list[str]:
    """Every way the fold's outputs can be wrong, as messages."""
    errors = []
    for entry in log:
        if not (np.isfinite(entry["train_loss"]) and np.isfinite(entry["val_loss"])):
            errors.append(f"fold {fold}: non-finite loss logged at epoch {entry['epoch']}")
            break

    logits = network.forward_batch(calibrated, x_test)["class_logits"]
    pred = logits.argmax(axis=1)
    per_class = np.array([(pred[y_test == c] == c).mean() for c in range(logits.shape[1])])
    if per_class.min() < ACCURACY_BAR:
        errors.append(
            f"fold {fold}: held-out per-class accuracy {np.round(per_class, 3).tolist()} below {ACCURACY_BAR}"
        )
    if not np.array_equal(np.asarray(report.per_class_accuracy), per_class):
        errors.append(f"fold {fold}: evaluate() per-class accuracy disagrees with the model's logits")

    tau = calibrated.tau
    val_logits = network.forward_batch(raw, x_val)["class_logits"]
    if not (np.isfinite(tau) and tau > 0):
        errors.append(f"fold {fold}: temperature {tau} is not a positive number")
    else:
        if not np.array_equal((val_logits / tau).argmax(axis=1), val_logits.argmax(axis=1)):
            errors.append(f"fold {fold}: calibration changed a validation argmax")
        before = expected_calibration_error(softmax(val_logits), y_val)
        after = expected_calibration_error(softmax(val_logits / tau), y_val)
        if after > before + 1e-12:
            errors.append(f"fold {fold}: calibration raised ECE {before:.6f} -> {after:.6f}")
    return errors


def _trace(tracer):
    from microgext import calibration, evaluation, network, synth, training

    tracer.wrap(synth, "make_dataset", "synth.make_dataset")
    tracer.wrap(training, "train", "training.train")
    tracer.wrap(training, "featurize_clip", "training.featurize_clip")
    tracer.wrap(training, "features_from_arrays", "skeleton.featurize")
    tracer.wrap(training.Adam, "step", "training.adam_step")
    tracer.wrap(network, "loss_and_grads", "network.loss_and_grads")
    tracer.wrap(network, "forward_batch", harness.forward_label)
    tracer.wrap(calibration, "calibrate", "calibration.calibrate")
    tracer.wrap(evaluation, "evaluate", "evaluation.evaluate")


def run(seed: int, seconds: float, tracer=None, folds_per_pass: int = FOLDS_PER_PASS,
        epochs: int = EPOCHS) -> harness.Outcome:
    harness.import_program()
    from microgext import calibration, evaluation, network, synth, training

    if tracer is not None:
        _trace(tracer)
    out = harness.Outcome()
    dataset, out.setup_s = harness.timed_setup(
        lambda: synth.make_dataset(N_SUBJECTS, REPS_PER_GESTURE, NULL_REPS, seed=seed)
    )
    setup_calls = list(tracer.durations("synth.make_dataset")) if tracer else []
    if tracer:
        tracer.clear()

    hp = network.HyperParams(hidden=HIDDEN, max_epochs=epochs, learning_rate=LEARNING_RATE,
                             master_seed=MASTER_SEED)
    folds = [int(f) for f in np.random.default_rng(seed).permutation(N_SUBJECTS)[:folds_per_pass]]

    # one clock reading per training step, at the name train() looks up
    stamps: list[float] = []
    step = network.loss_and_grads

    def clocked_step(*args, **kwargs):
        stamps.append(time.perf_counter())
        return step(*args, **kwargs)

    network.loss_and_grads = clocked_step
    finished = []

    def do_round(slot: int) -> float:
        fold = folds[slot]
        stamps.clear()
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            raw, log = training.train(dataset, fold, hp)
            stamps.append(time.perf_counter())
            _, val_clips, test_clips = training.split_fold(dataset, fold)
            val_fc = [training.featurize_clip(c) for c in val_clips]
            x_val = np.stack([training.center_window(fc) for fc in val_fc])
            y_val = np.array([fc.class_index for fc in val_fc])
            calibrated = calibration.calibrate(raw, x_val, y_val)
            report = evaluation.evaluate(calibrated, test_clips)
        elapsed = time.perf_counter() - start
        out.add_round(slot, elapsed, np.diff(stamps) * 1e3)
        finished.append((fold, log, raw, calibrated, report, x_val, y_val, test_clips))
        return elapsed

    try:
        harness.run_passes(seconds, folds_per_pass, 1, do_round)
    finally:
        network.loss_and_grads = step
        if tracer is not None:
            tracer.close()
    out.peak_rss_mb = harness.peak_rss_mb()

    for fold, log, raw, calibrated, report, x_val, y_val, test_clips in finished:
        test_fc = [training.featurize_clip(c) for c in test_clips]
        x_test = np.stack([training.center_window(fc) for fc in test_fc])
        y_test = np.array([synth.CLASS_NAMES.index(c.gesture.value) for c in test_clips])
        out.errors += check_fold(fold, log, raw, calibrated, report, x_val, y_val, x_test, y_test, network)

    rounds = len(out.round_s)
    out.notes = {"folds": [f[0] for f in finished], "epochs": epochs, "steps_per_fold": len(out.op_ms()) // rounds,
                 "tau": [round(float(f[3].tau), 6) for f in finished]}
    if tracer is not None:
        out.layers = layer_table(tracer, setup_calls, rounds)
    return out


def layer_table(tracer, setup_calls, rounds: int) -> dict[str, float]:
    ms, med = 1e3, harness.median_or_zero
    return {
        "synth.make_dataset_s": med(setup_calls),
        "skeleton.featurize_ms": med(tracer.durations("skeleton.featurize")) * ms,
        "training.featurize_clip_calls": len(tracer.calls.get("training.featurize_clip", ())) / rounds,
        "network.loss_and_grads_ms": med(tracer.durations("network.loss_and_grads")) * ms,
        "training.adam_step_ms": med(tracer.durations("training.adam_step")) * ms,
        "network.forward_batched_ms": sum(tracer.durations("network.forward_batched")) * ms / rounds,
        "calibration.calibrate_s": sum(tracer.durations("calibration.calibrate")) / rounds,
        "evaluation.evaluate_s": sum(tracer.durations("evaluation.evaluate")) / rounds,
        "training.train_self_s": sum(tracer.self_times("training.train")) / rounds,
    }
