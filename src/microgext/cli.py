"""Command-line entry point for reproducible desk-scale runs.

Subcommands cover the whole pipeline: synth (generate a dataset file),
train (one leave-one-subject-out fold to a checkpoint), eval (confusions
and calibration gaps to a report) and stream (replay a recording or compile
a scripted scenario through the online recognizer and editor).

Primary outputs (.mgd/.mgc/.mgr/.mgs, final documents) are byte-identical
across runs with equal inputs and seeds; wall-clock measurements go to a
separate timing file. A --config JSON file overrides training
hyperparameters for train, and FSM fields over the script's or the
recording's own FSM settings for stream; each command rejects keys it does
not use and echoes the file into the output directory. Exit codes: 0 ok,
1 failed run assertion, 2 usage error (including an input file that its
reader rejects, such as a malformed scenario script).
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from . import calibration, evaluation, network, scenario as scenario_mod, session_io, synth, training
from .fsm import FsmConfig

_HP_FIELDS = set(network.HyperParams.__dataclass_fields__)
_FSM_FIELDS = set(FsmConfig.__dataclass_fields__)


def _load_config(path, fields: set[str]) -> dict:
    """The --config file's keys, which must all be among the command's
    ``fields``; an empty dict without a file. A file that is not a JSON
    object is a usage error."""
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except ValueError as exc:  # not UTF-8 or not JSON
        raise click.UsageError(f"{path}: not a JSON file: {exc}") from exc
    if not isinstance(raw, dict):
        raise click.UsageError(f"{path}: a config must be a JSON object, got a JSON {type(raw).__name__}")
    unused = set(raw) - fields
    if unused:
        raise click.UsageError(f"{path}: config keys this command does not use: {sorted(unused)}")
    return raw


# the readers' typed errors for a wrong or corrupt input file
_BAD_INPUT = (
    session_io.VersionMismatch,
    session_io.CorruptRecord,
    session_io.HashMismatch,
    session_io.JointOrderMismatch,
    session_io.ClassOrderMismatch,
    network.ShapeMismatch,
    network.NonFiniteActivation,
    scenario_mod.BadScenario,
)


def _read(reader, path):
    """``reader(path)``, with a bad input file reported as a usage error."""
    try:
        return reader(path)
    except _BAD_INPUT as exc:
        raise click.UsageError(f"{path}: {type(exc).__name__}: {exc}") from exc


def _split(dataset, fold_subject):
    try:
        return training.split_fold(dataset, fold_subject)
    except (training.EmptyFold, training.MissingClass) as exc:
        raise click.UsageError(str(exc)) from exc


def _prepare_out(out, config_path=None) -> Path:
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if config_path is not None:
        (out_dir / "config.json").write_bytes(Path(config_path).read_bytes())
    return out_dir


def _write_timing(out_dir: Path, payload: dict) -> None:
    with open(out_dir / "timing.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


@click.group()
def main():
    """Microgesture recognition and gesture-driven text editing."""


@main.command("synth")
@click.option("--n-subjects", default=10, show_default=True)
@click.option("--reps", default=20, show_default=True)
@click.option("--null-reps", default=20, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", default="out", show_default=True, help="Output directory.")
def cmd_synth(n_subjects, reps, null_reps, seed, out):
    """Generate a synthetic labeled dataset (.mgd) and print its histogram."""
    out_dir = _prepare_out(out)
    t0 = time.perf_counter()
    dataset = synth.make_dataset(n_subjects, reps, null_reps, seed=seed)
    path = out_dir / "dataset.mgd"
    session_io.write_dataset(dataset, path)
    counts = {}
    for clip in dataset.clips:
        counts[clip.gesture.value] = counts.get(clip.gesture.value, 0) + 1
    click.echo(f"wrote {len(dataset.clips)} clips to {path}")
    for name in synth.CLASS_NAMES:
        click.echo(f"  {name:>8s}: {counts.get(name, 0)}")
    _write_timing(out_dir, {"synth_seconds": time.perf_counter() - t0})


@main.command("train")
@click.option("--dataset", "dataset_path", type=click.Path(exists=True), required=True)
@click.option("--fold-subject", default=0, show_default=True)
@click.option("--seed", default=0, show_default=True, help="Master training seed.")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out", default="out", show_default=True)
def cmd_train(dataset_path, fold_subject, seed, config_path, out):
    """Train one leave-one-subject-out fold and write a checkpoint (.mgc)."""
    hp_kwargs = _load_config(config_path, _HP_FIELDS)
    hp_kwargs.setdefault("master_seed", seed)
    try:
        hp = network.HyperParams(**hp_kwargs)
    except ValueError as exc:
        raise click.UsageError(f"{config_path}: {exc}") from exc
    out_dir = _prepare_out(out, config_path)
    dataset = _read(session_io.read_dataset, dataset_path)
    train_clips, val_clips, _ = _split(dataset, fold_subject)

    t0 = time.perf_counter()
    val = training.validation_windows(val_clips)
    params, log = training.fit(training.crop_pool(train_clips), val, fold_subject, hp)
    params = calibration.calibrate(params, val.x, val.y_class)
    elapsed = time.perf_counter() - t0

    ckpt = out_dir / "checkpoint.mgc"
    session_io.save_checkpoint(params, ckpt)
    with open(out_dir / "training_log.json", "w", encoding="utf-8") as fh:
        json.dump(log, fh, sort_keys=True, indent=1)
        fh.write("\n")
    _write_timing(out_dir, {"train_seconds": elapsed})
    click.echo(f"fold {fold_subject}: final val loss {log[-1]['val_loss']:.4f}, tau {params.tau:.4f}")
    click.echo(f"wrote {ckpt}")


@main.command("eval")
@click.option("--checkpoint", "ckpt_path", type=click.Path(exists=True), required=True)
@click.option("--dataset", "dataset_path", type=click.Path(exists=True), required=True)
@click.option("--fold-subject", default=0, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", default="out", show_default=True)
def cmd_eval(ckpt_path, dataset_path, fold_subject, seed, out):
    """Evaluate a checkpoint on a held-out subject; writes report.mgr."""
    out_dir = _prepare_out(out)
    params = _read(session_io.load_checkpoint, ckpt_path)
    dataset = _read(session_io.read_dataset, dataset_path)
    _, _, test_clips = _split(dataset, fold_subject)

    t0 = time.perf_counter()
    report = evaluation.evaluate(params, test_clips)
    elapsed = time.perf_counter() - t0

    meta = {"fold_subject": fold_subject, "seed": seed, "n_test_clips": len(test_clips)}
    session_io.emit_report(report, out_dir / "report.mgr", meta=meta)
    table = evaluation.render_report(report)
    (out_dir / "report.txt").write_text(table, encoding="utf-8")
    _write_timing(out_dir, {"eval_seconds": elapsed})
    click.echo(table)
    click.echo(f"wrote {out_dir / 'report.mgr'}")


@main.command("stream")
@click.option("--checkpoint", "ckpt_path", type=click.Path(exists=True), required=True)
@click.option("--session", "session_path", type=click.Path(exists=True), default=None,
              help="Replay a recorded session (.mgs).")
@click.option("--script", "script_path", default=None,
              help="Scenario JSON file, or 'default' for the built-in 8-command script.")
@click.option("--seed", type=int, default=None, help="Script seed of --script default [default: 7].")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out", default="out", show_default=True)
def cmd_stream(ckpt_path, session_path, script_path, seed, config_path, out):
    """Run the online recognizer over a session or scripted scenario."""
    if (session_path is None) == (script_path is None):
        raise click.UsageError("provide exactly one of --session or --script")
    if seed is not None and script_path != "default":
        raise click.UsageError("--seed is used only with --script default")
    fsm_kwargs = _load_config(config_path, _FSM_FIELDS)
    params = _read(session_io.load_checkpoint, ckpt_path)

    if script_path is not None:
        sc = (scenario_mod.default_scenario(7 if seed is None else seed) if script_path == "default"
              else _read(scenario_mod.load_scenario, script_path))
        frames, expected = scenario_mod.compile_scenario(sc)
        base_cfg, initial_text, granularity = sc.fsm_config(), sc.initial_text, sc.granularity
    else:
        frames, base_cfg, initial_text, granularity = _read(session_io.read_session, session_path)
        expected = None
    # the config overrides only the fields it names
    try:
        cfg = replace(base_cfg, **fsm_kwargs)
    except ValueError as exc:
        raise click.UsageError(f"{config_path}: {exc}") from exc
    out_dir = _prepare_out(out, config_path)

    result = scenario_mod.run_session(params, frames, cfg, initial_text, granularity)

    session_io.write_session(out_dir / "session.mgs", frames, cfg, initial_text, granularity)
    session_io.write_command_log(out_dir / "commands.log", result.command_log())
    (out_dir / "final_document.txt").write_text(
        result.final_document.text if result.final_document else "", encoding="utf-8"
    )
    with open(out_dir / "events.json", "w", encoding="utf-8") as fh:
        json.dump(
            [
                {
                    "gesture": e.gesture.value,
                    "fired_at": float(np.float32(e.fired_at)),
                    "mean_confidence": float(np.float32(e.mean_confidence)),
                }
                for e in result.events
            ],
            fh,
            sort_keys=True,
            indent=1,
        )
        fh.write("\n")
    _write_timing(out_dir, {"latency_ms": result.latency_summary()})

    click.echo(f"{len(result.events)} events over {result.right_frames} right-hand frames")
    for ev in result.events:
        click.echo(f"  {ev.fired_at:8.3f}s  {ev.gesture.value:<8s} conf {ev.mean_confidence:.3f}")
    lat = result.latency_summary()
    click.echo(f"latency ms p50 {lat['p50']:.2f}  p95 {lat['p95']:.2f}  p99 {lat['p99']:.2f}")
    if result.command_errors:
        click.echo(f"command errors: {result.command_errors}", err=True)
    if expected is not None and [c for c in result.commands] != expected:
        click.echo("warning: produced commands differ from the scripted expectation", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
