"""All ten leave-one-subject-out folds at the CI configuration, summarized.

    python3 tools/loso_summary.py [SRC]

SRC is a directory that holds the ``microgext`` package (default: the
``src`` directory of this checkout), so the same summary can be made for
two checkouts. With SRC on the import path, in a temporary directory, the
tool runs the CLI the way acceptance criterion 1 trains its folds:

    synth --n-subjects 10 --reps 20 --null-reps 20 --seed 0
    train --fold-subject F --seed 5 --config {"hidden": 64, "max_epochs": 60, "learning_rate": 0.002}
    eval  --fold-subject F

for every held-out subject F = 0..9. It reads each fold's ``report.mgr``
with ``session_io.read_report`` and its calibrated tau from the fold's
checkpoint. It prints the synth command's wall time (``synth_seconds`` from
its ``timing.json``) and peak resident set, then one row per fold (lowest
per-class accuracy, macro accuracy, tau, whether tau sits on
``calibration.TAU_LO`` or ``TAU_HI``, the train command's wall time from
``timing.json`` and its peak resident set), the min and mean over folds of
each class's accuracy, and how many folds hit a tau bound. A fold takes
about half a minute on a 2-core host.

Each command runs in a child process that the tool reaps with
``os.wait4``, so the peak resident set is that one child's ``ru_maxrss``.
Linux carries the tool's own resident set (about 40 MB) into a child as it
starts, so no figure reads below that.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SYNTH_ARGS = {"n-subjects": 10, "reps": 20, "null-reps": 20, "seed": 0}
TRAIN_CONFIG = {"hidden": 64, "max_epochs": 60, "learning_rate": 2e-3}
MASTER_SEED = 5
FOLDS = range(10)


def _cli(src: Path, *argv: str) -> float:
    """Run one CLI command of ``src`` in a child process; returns the
    child's peak resident set in MB."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    with subprocess.Popen([sys.executable, "-m", "microgext.cli", *argv], env=env,
                          stdout=subprocess.DEVNULL) as proc:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)
    return usage.ru_maxrss / 1024.0  # KiB on Linux


def run_folds(src: Path, work: Path, synth_args: dict, config: dict, folds) -> tuple[dict, list[dict]]:
    """Synthesize once, then train and evaluate each fold through the CLI
    of ``src``. Returns the synth command's seconds and peak resident set,
    and one dict per fold with its per-class accuracy, macro accuracy, tau,
    train seconds and train peak resident set. Needs ``microgext`` of
    ``src`` imported."""
    from microgext import session_io

    synth_mb = _cli(src, "synth", *(f"--{k}={v}" for k, v in synth_args.items()), "--out", str(work))
    synth = {"seconds": json.loads((work / "timing.json").read_text())["synth_seconds"], "peak_rss_mb": synth_mb}
    dataset = str(work / "dataset.mgd")
    (work / "config.json").write_text(json.dumps(config))
    rows = []
    for fold in folds:
        out = work / f"fold-{fold}"
        train_mb = _cli(src, "train", "--dataset", dataset, "--fold-subject", str(fold),
                        "--seed", str(MASTER_SEED), "--config", str(work / "config.json"), "--out", str(out))
        train_seconds = json.loads((out / "timing.json").read_text())["train_seconds"]  # eval rewrites it
        _cli(src, "eval", "--checkpoint", str(out / "checkpoint.mgc"), "--dataset", dataset,
             "--fold-subject", str(fold), "--out", str(out))
        report = session_io.read_report(out / "report.mgr")
        rows.append({
            "fold": fold,
            "class_names": report["class_names"],
            "per_class_accuracy": report["per_class_accuracy"],
            "macro_accuracy": report["macro_accuracy"],
            "tau": session_io.load_checkpoint(out / "checkpoint.mgc").tau,
            "train_seconds": train_seconds,
            "train_peak_rss_mb": train_mb,
        })
    return synth, rows


def tau_bound(tau: float, lo: float, hi: float, tol: float) -> str:
    """"TAU_LO" or "TAU_HI" when tau lies within the search tolerance of
    that bound, else ""."""
    if abs(tau - lo) <= tol:
        return "TAU_LO"
    if abs(tau - hi) <= tol:
        return "TAU_HI"
    return ""


def render(synth: dict, rows: list[dict], lo: float, hi: float, tol: float) -> str:
    """The synth figures, the per-fold table, the per-class min and mean
    over folds, and the count of folds whose tau hit a bound."""
    # a class with no test clip reads None in a report, nan here
    acc = np.array([r["per_class_accuracy"] for r in rows], dtype=np.float64)
    lines = [f"synth {synth['seconds']:.2f} s, peak {synth['peak_rss_mb']:.1f} MB", ""]
    lines.append(f"{'fold':>4s} {'min class acc':>13s} {'macro acc':>9s} {'tau':>9s} {'on bound':>8s} {'train s':>7s} "
                 f"{'train MB':>8s}")
    hits = 0
    for r, fold_acc in zip(rows, acc):
        flag = tau_bound(r["tau"], lo, hi, tol)
        hits += bool(flag)
        lines.append(f"{r['fold']:>4d} {np.nanmin(fold_acc):>13.4f} {r['macro_accuracy']:>9.4f} "
                     f"{r['tau']:>9.6f} {flag:>8s} {r['train_seconds']:>7.1f} {r['train_peak_rss_mb']:>8.1f}")
    lines.append("")
    lines.append(f"{'class':>8s} {'min over folds':>14s} {'mean over folds':>15s}")
    for name, column in zip(rows[0]["class_names"], acc.T):
        lines.append(f"{name:>8s} {np.nanmin(column):>14.4f} {np.nanmean(column):>15.4f}")
    lines.append(f"{'all':>8s} {np.nanmin(acc):>14.4f} {np.nanmean(acc):>15.4f}")
    lines.append("")
    lines.append(f"tau on a search bound ({lo} or {hi}, within {tol}) in {hits} of {len(rows)} folds")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path, nargs="?", default=ROOT / "src")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from microgext import calibration

    with tempfile.TemporaryDirectory(prefix="loso-summary-") as tmp:
        synth, rows = run_folds(args.src, Path(tmp), SYNTH_ARGS, TRAIN_CONFIG, FOLDS)
    print(render(synth, rows, calibration.TAU_LO, calibration.TAU_HI, calibration.TAU_TOL))
    return 0


if __name__ == "__main__":
    sys.exit(main())
