"""Benchmark of the microgext pipeline: one command, three workloads.

    python3 bench/run.py --workload loso_train --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 1

A run of one workload sets up, measures for ``--seconds`` seconds of timed
work (whole passes, at least 1,000 distinct operations), checks the
program's outputs and prints the metrics, one per line, then one JSON line
{"correct", "attempted", "failed", "metrics"} last. ``--trace 0`` gives the
end-to-end metrics; ``--trace 1`` wraps the program's public functions and
gives the per-layer metrics instead. ``--workload all`` runs every workload
in a fresh process, and with ``--trace 1`` a traced run after each untraced
one, reporting the tracing overhead.

Each run writes its full record (metrics, checks, notes and run
environment) to ``bench/out/``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess
import sys
from pathlib import Path

import harness

WORKLOADS = ("loso_train", "live_session", "edit_long_doc")
END_TO_END = ("setup_s", "work_s", "op_p50_ms", "op_p99_ms", "peak_rss_mb")
PER_LAYER = (
    ("skeleton.featurize_ms", "ms"),
    ("training.featurize_clip_calls", "count"),
    ("network.loss_and_grads_ms", "ms"),
    ("training.adam_step_ms", "ms"),
    ("network.forward_batched_ms", "ms"),
    ("network.forward_b1_ms", "ms"),
    ("stream.predictor_ms", "ms"),
    ("stream.push_frame_p50_ms", "ms"),
    ("stream.push_frame_p99_ms", "ms"),
    ("stream.first20_ms", "ms"),
    ("fsm.step_us", "us"),
    ("interaction.pinch_ms", "ms"),
    ("interaction.mode_switch_us", "us"),
    ("scenario.frame_self_ms", "ms"),
    ("calibration.calibrate_s", "s"),
    ("evaluation.evaluate_s", "s"),
    ("training.train_self_s", "s"),
    ("editor.apply_character_p50_ms", "ms"),
    ("editor.apply_character_p99_ms", "ms"),
    ("editor.apply_word_p50_ms", "ms"),
    ("editor.apply_word_p99_ms", "ms"),
    ("editor.apply_sentence_p50_ms", "ms"),
    ("editor.apply_sentence_p99_ms", "ms"),
    ("editor.apply_paragraph_p50_ms", "ms"),
    ("editor.apply_paragraph_p99_ms", "ms"),
    ("editor.segment_calls", "count"),
    ("editor.segment_ms", "ms"),
    ("synth.make_dataset_s", "s"),
    ("scenario.compile_s", "s"),
    ("session_io.load_checkpoint_ms", "ms"),
)


def record_path(workload: str, seed: int, trace: bool) -> Path:
    return harness.OUT_DIR / f"{workload}-seed{seed}{'-trace' if trace else ''}.json"


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import checkpoint

    harness.import_program()
    harness.load_reference_editor()
    checkpoint.ensure()  # every workload, so the first run in a checkout always builds it
    module = importlib.import_module(workload)
    env_before = harness.environment()
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    outcome = module.run(seed, seconds, tracer)

    if trace:
        metrics = {name: {"value": float(outcome.layers.get(name, 0.0)), "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in outcome.end_to_end().items()}
    result = {
        "correct": not outcome.errors,
        "attempted": len(outcome.op_ms()),
        "failed": 0,  # no workload has an operation that fails; an unexpected exception ends the run
        "metrics": metrics,
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "result": result,
        "work_s": harness.median(outcome.round_s), "rounds": len(outcome.round_s),
        "check_failures": outcome.errors, "notes": outcome.notes,
        "environment": {"before": env_before, "after": harness.environment()},
    }
    if trace:
        untraced = record_path(workload, seed, False)
        if untraced.is_file():
            base = json.loads(untraced.read_text())["work_s"]
            record["trace_overhead"] = {"untraced_work_s": base, "traced_work_s": record["work_s"],
                                        "overhead": record["work_s"] / base - 1.0}
    harness.OUT_DIR.mkdir(exist_ok=True)
    record_path(workload, seed, trace).write_text(json.dumps(record, indent=1) + "\n")

    for name, metric in metrics.items():
        print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
    print(f"{workload} attempted {result['attempted']} failed {result['failed']} correct {result['correct']}")
    for key, value in outcome.notes.items():
        print(f"{workload} note {key} {value}")
    if "trace_overhead" in record:
        print(f"{workload} tracing overhead {100 * record['trace_overhead']['overhead']:+.1f}% of work_s")
    for message in outcome.errors:
        print(f"{workload} CHECK FAILED: {message}", file=sys.stderr)
    blas = record["environment"]["after"]["openblas"]
    print(f"{workload} environment nproc {env_before['nproc']}, numpy {env_before['numpy']}, "
          f"BLAS threads {blas['threads'] if blas else 'unknown'}, "
          f"threadpoolctl {'imports' if env_before['threadpoolctl_imports'] else 'missing'}")
    return result


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in a fresh process; traced runs follow untraced ones."""
    summary = {}
    for workload in WORKLOADS:
        for traced in (False, True) if trace else (False,):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(int(traced))],
                stdout=subprocess.PIPE, text=True, check=True,
            )
            sys.stdout.write(proc.stdout)
            summary[f"{workload}{'-trace' if traced else ''}"] = json.loads(proc.stdout.strip().splitlines()[-1])
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, bool(args.trace))
        else:
            result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except harness.MissingProgram as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
