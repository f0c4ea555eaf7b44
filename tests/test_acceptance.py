"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them live).

The recognition criteria run in the CI configuration by default: hidden
width 64, 60 epochs, learning rate 2e-3, per-class accuracy bar 0.90 and a
3-minute fold budget. Set MICROGEXT_ACCEPT_FULL=1 for the full
configuration (hidden 256, bar 0.95, 15-minute fold budget).
"""

import json
import os
import time
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from microgext import calibration, editor, evaluation, network, scenario, stream, synth, training
from microgext.cli import main as cli_main
from microgext.editor import CommandKind, Document, EditCommand, Granularity
from microgext.fsm import FsmConfig

from .test_editor import run_fuzz_case
from .test_fsm import SYMBOLS, exhaustive_state_symbol_equivalence, run_production
from .test_gradcheck import run_gradcheck
from .frames import clip_frames
from .fsm_reference import TableFsm

FULL_MODE = os.environ.get("MICROGEXT_ACCEPT_FULL", "") == "1"
HIDDEN = 256 if FULL_MODE else 64
ACCURACY_BAR = 0.95 if FULL_MODE else 0.90
FOLD_BUDGET_S = 900.0 if FULL_MODE else 180.0
LEARNING_RATE = 2e-3
MAX_EPOCHS = 60
DATASET_SEED = 0
MASTER_SEED = 5
FOLDS = (0, 1, 2)
FRAME_BUDGET_MS = 1000.0 / 72.0  # 13.888.. ms


def report_line(index: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {index} ({name}): {status}{suffix}")


@pytest.fixture(scope="module")
def dataset():
    """The criteria's dataset, synthesized once per module."""
    return synth.make_dataset(10, 20, 20, seed=DATASET_SEED)


@pytest.fixture(scope="module")
def folds(dataset):
    """Train and evaluate the three leave-one-subject-out folds."""
    hp = network.HyperParams(
        hidden=HIDDEN, max_epochs=MAX_EPOCHS, learning_rate=LEARNING_RATE, master_seed=MASTER_SEED
    )
    results = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for fold in FOLDS:
            start = time.perf_counter()
            params, log = training.train(dataset, fold, hp)
            _, val_clips, test_clips = training.split_fold(dataset, fold)
            val_fc = [training.featurize_clip(c) for c in val_clips]
            x_val = np.stack([training.center_window(fc) for fc in val_fc])
            y_val = np.array([fc.class_index for fc in val_fc])
            val_logits = network.forward_batch(params, x_val)["class_logits"]
            params = calibration.calibrate(params, x_val, y_val)
            elapsed = time.perf_counter() - start
            report = evaluation.evaluate(params, test_clips)
            results.append(
                {
                    "fold": fold,
                    "params": params,
                    "report": report,
                    "seconds": elapsed,
                    "val_logits": val_logits,
                    "val_labels": y_val,
                }
            )
    return results


def test_criterion_1_offline_recognition(folds):
    per_class = np.mean([f["report"].per_class_accuracy for f in folds], axis=0)
    times = [f["seconds"] for f in folds]
    ok_acc = bool(np.all(per_class >= ACCURACY_BAR))
    ok_time = all(t <= FOLD_BUDGET_S for t in times)
    detail = (
        f"min class acc {per_class.min():.4f} (bar {ACCURACY_BAR}), "
        f"fold times {[round(t, 1) for t in times]}s (budget {FOLD_BUDGET_S:.0f}s)"
    )
    report_line(1, "offline recognition", ok_acc and ok_time, detail)
    assert ok_acc, dict(zip(synth.CLASS_NAMES, np.round(per_class, 4)))
    assert ok_time, times


def test_criterion_2_state_pattern(folds):
    pooled = np.sum([f["report"].state_confusion for f in folds], axis=0)
    support = pooled.sum(axis=1)
    acc = np.where(support > 0, np.diag(pooled) / np.maximum(support, 1), np.nan)
    ok_dominant = bool(np.all(acc[4] >= acc[:4][support[:4] > 0]))
    sub = pooled[:4, :4].astype(float)
    i, j = np.indices(sub.shape)
    off_tri = float(sub[np.abs(i - j) >= 2].sum() / sub.sum())
    ok_tri = off_tri <= 0.10
    detail = f"state acc {np.round(acc, 3).tolist()}, off-tridiagonal {off_tri:.4f}"
    report_line(2, "state-prediction pattern", ok_dominant and ok_tri, detail)
    assert ok_dominant, acc
    assert ok_tri, off_tri


def test_criterion_3_gradient_correctness():
    start = time.perf_counter()
    errors = run_gradcheck(with_pairs=True)
    elapsed = time.perf_counter() - start
    worst = max(errors.values())
    ok = worst < 1e-3 and elapsed < 30.0
    report_line(3, "gradient correctness", ok, f"max rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-3, errors
    assert elapsed < 30.0


def test_criterion_4_calibration(folds):
    ok_all, details = True, []
    for f in folds:
        logits, labels = f["val_logits"], f["val_labels"]
        tau = f["params"].tau
        ece_before = calibration.ece_for_logits(logits, labels, tau=1.0)
        ece_after = calibration.ece_for_logits(logits, labels, tau=tau)
        argmax_same = np.array_equal((logits / tau).argmax(axis=1), logits.argmax(axis=1))
        ok = ece_after <= ece_before + 1e-6 and argmax_same
        ok_all &= ok
        details.append(f"fold {f['fold']}: {ece_before:.4f}->{ece_after:.4f} tau {tau:.3f}")
    report_line(4, "calibration", ok_all, "; ".join(details))
    assert ok_all, details


def test_criterion_5_fsm_oracle_equivalence():
    cfg = FsmConfig()
    comparisons = exhaustive_state_symbol_equivalence(cfg, max_depth=12)

    # named cases from the gating contract
    ref = TableFsm(cfg.delta, cfg.n_consecutive, cfg.refractory)
    nine_of_ten = [(synth.GestureClass.FIST, 0.97)] * 9 + [(synth.GestureClass.FIST, 0.50)]
    got = run_production(nine_of_ten, cfg)
    assert got == ref.run(nine_of_ten) == [None] * 10

    switch = [(synth.GestureClass.FIST, 0.97)] * 5 + [(synth.GestureClass.OPEN, 0.97)] * 10
    got = run_production(switch, cfg)
    want = ref.run(switch)
    assert [g.value if g else None for g in got] == [w.value if w else None for w in want]
    assert got[-1] is synth.GestureClass.OPEN

    rng = np.random.default_rng(1)
    mismatches = 0
    for _ in range(2000):
        script = [SYMBOLS[k] for k in rng.integers(0, len(SYMBOLS), 12)]
        got = run_production(script, cfg)
        want = ref.run(script)
        if [g.value if g else None for g in got] != [w.value if w else None for w in want]:
            mismatches += 1
    ok = mismatches == 0
    report_line(5, "FSM oracle equivalence", ok, f"{comparisons} state-symbol pairs, 2000 random scripts")
    assert ok


def test_criterion_6_editor_property_suite():
    violations = 0
    for seed in range(10000):
        run_fuzz_case(seed, n_commands=12)

    # targeted invariants on fuzzed documents
    rng = np.random.default_rng(99)
    texts = [
        "alpha beta. gamma delta!\n\nsecond para here",
        "one",
        "",
        "spaces   and... dots?!",
    ]
    for _ in range(2000):
        text = texts[rng.integers(0, len(texts))]
        doc = Document.create(text, list(Granularity)[rng.integers(0, 4)])
        for _ in range(rng.integers(0, 4)):
            doc = editor.apply(doc, EditCommand.move_caret(int(rng.integers(-2, 3))))
        doc_sel = editor.apply(doc, EditCommand(CommandKind.SELECT_ALL))
        if doc.text:
            if doc_sel.selection != (0, len(doc.text)):
                violations += 1
            cut = editor.apply(doc_sel, EditCommand(CommandKind.CUT))
            pair = editor.apply(
                editor.apply(doc_sel, EditCommand(CommandKind.COPY)), EditCommand(CommandKind.DELETE)
            )
            if (cut.text, cut.clipboard) != (pair.text, pair.clipboard):
                violations += 1
            if pair.clipboard != doc_sel.text:  # Delete must not clobber Copy's capture
                violations += 1
            undone = editor.apply(cut, EditCommand(CommandKind.UNDO))
            if (undone.text, undone.caret, undone.selection) != (
                doc_sel.text, doc_sel.caret, doc_sel.selection,
            ):
                violations += 1
    ok = violations == 0
    report_line(6, "editor property suite", ok, "10000 fuzz sequences + invariants")
    assert ok


def test_criterion_7_end_to_end_session(folds):
    params = folds[0]["params"]
    sc = scenario.default_scenario()
    frames, expected = scenario.compile_scenario(sc)
    result = scenario.run_session(
        params, frames, cfg=sc.fsm_config(), initial_text=sc.initial_text,
        granularity=sc.granularity, ctx=sc.context(),
    )

    golden = Document.create(sc.initial_text, sc.granularity)
    for cmd in expected:
        golden = editor.apply(golden, cmd)

    final = result.final_document
    ok_events = len(result.events) == 8
    ok_commands = result.commands == expected and not result.command_errors
    ok_doc = (final.text, final.caret, final.selection, final.clipboard) == (
        golden.text, golden.caret, golden.selection, golden.clipboard,
    )
    # rest segments: nothing may fire before the first action or in the tail
    first_action_start = min(e.fired_at for e in result.events) if result.events else 0.0
    tail_start = frames[-1].timestamp - 0.9
    ok_rest = all(e.fired_at < tail_start for e in result.events) and first_action_start > 1.0
    ok = ok_events and ok_commands and ok_doc and ok_rest
    report_line(
        7, "end-to-end scripted session", ok,
        f"{len(result.events)} events, doc match {ok_doc}",
    )
    assert ok_events, [e.gesture.value for e in result.events]
    assert ok_commands, (result.commands, result.command_errors)
    assert ok_doc
    assert ok_rest


def test_null_clips_false_positive_rate(folds, dataset):
    """Supporting measurement: held-out Null clips streamed through the
    trained recognizer should almost never fire (tracked, per the data
    contract, as a false-positive rate rather than guaranteed zero)."""
    params = folds[0]["params"]
    null_clips = [
        c for c in dataset.clips
        if c.subject_id == FOLDS[0] and c.gesture is synth.GestureClass.NULL
    ]
    fired = 0
    with stream.inference_thread_cap():
        for clip in null_clips:
            runtime = stream.StreamRuntime(params, FsmConfig())
            if any(runtime.push_frame(f) is not None for f in clip_frames(clip)):
                fired += 1
    rate = fired / len(null_clips)
    print(f"null-clip false-positive rate: {rate:.3f} ({fired}/{len(null_clips)})")
    assert rate <= 0.05, rate


def test_criterion_8_realtime_budget():
    params = network.init_params(network.HyperParams(hidden=256), seed=0)
    sc = scenario.Scenario(
        initial_text="",
        seed=0,
        steps=(
            scenario.ScenarioStep(kind="gesture", gesture=synth.GestureClass.FIST, hold=2.0),
            scenario.ScenarioStep(kind="swipe", u_from=0.05, u_to=0.9, move_time=2.0),
            scenario.ScenarioStep(kind="rest", duration=2.0),
        ),
    )
    frames, _ = scenario.compile_scenario(sc)
    right = [f for f in frames if f.handedness.value == "Right"][:720]
    runtime = stream.StreamRuntime(params)
    with stream.inference_thread_cap():
        for frame in right:
            runtime.push_frame(frame)
    stats = stream.latency_percentiles(runtime.latency)
    ok = stats["p99"] < FRAME_BUDGET_MS
    report_line(
        8, "real-time budget", ok,
        f"p50 {stats['p50']:.2f} p95 {stats['p95']:.2f} p99 {stats['p99']:.2f} ms "
        f"(budget {FRAME_BUDGET_MS:.1f} ms, hidden=256)",
    )
    assert ok, stats


def test_criterion_9_cli_determinism(tmp_path):
    runner = CliRunner()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"hidden": 16, "max_epochs": 3}))

    artifacts = {}
    for tag in ("one", "two"):
        base = tmp_path / tag
        r = runner.invoke(cli_main, ["synth", "--n-subjects", "2", "--reps", "2", "--null-reps", "2",
                                     "--seed", "7", "--out", str(base)])
        assert r.exit_code == 0, r.output
        r = runner.invoke(cli_main, ["train", "--dataset", str(base / "dataset.mgd"),
                                     "--fold-subject", "0", "--seed", "7",
                                     "--config", str(cfg), "--out", str(base)])
        assert r.exit_code == 0, r.output
        r = runner.invoke(cli_main, ["eval", "--checkpoint", str(base / "checkpoint.mgc"),
                                     "--dataset", str(base / "dataset.mgd"),
                                     "--fold-subject", "0", "--out", str(base)])
        assert r.exit_code == 0, r.output
        artifacts[tag] = {
            name: (base / name).read_bytes()
            for name in ("dataset.mgd", "checkpoint.mgc", "report.mgr")
        }
    same = {name: artifacts["one"][name] == artifacts["two"][name] for name in artifacts["one"]}
    ok = all(same.values())
    report_line(9, "artifact determinism", ok, str(same))
    assert ok, same
