"""Summarize paired benchmark runs of a parent and a changed checkout.

    python3 tools/bench_summary.py PARENT_OUT CHANGE_OUT --out BENCH_<n>.json

PARENT_OUT and CHANGE_OUT are the ``bench/out`` directories of two
checkouts, each holding the records that ``bench/run.py`` wrote. Untraced
records of the same workload and seed in both directories form one pair;
run the pairs alternately (parent, change, parent, ...) so that drift of
the host falls on both sides alike.

For each workload and each end-to-end metric of ``BENCHMARK.json`` the
summary gives both sides' median and quartiles, the change's median over
the parent's, and in how many pairs the change was better. It also
summarizes the numeric run notes (such as ``first20_ms``), counts failed
checks and operations, and records the machine (CPU count, numpy version,
BLAS threads) and both git commits. The benchmark's own files are only
read.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def load_records(out_dir: Path) -> dict[tuple[str, int], dict]:
    """Untraced run records by (workload, seed)."""
    records = {}
    for path in sorted(out_dir.glob("*.json")):
        record = json.loads(path.read_text())
        if not record.get("trace"):
            records[(record["workload"], record["seed"])] = record
    return records


def spread(values) -> dict:
    q1, med, q3 = np.percentile(np.asarray(values, dtype=np.float64), [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3), "iqr": float(q3 - q1)}


def git_commit(checkout: Path) -> str | None:
    """HEAD of a git checkout, marked ``+uncommitted`` when tracked files
    differ from it; None outside git."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return None
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return head.stdout.strip() + ("+uncommitted" if dirty else "")


def summarize_workload(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> dict:
    sides = {"parent": [p for p, _ in pairs], "change": [c for _, c in pairs]}
    out = {
        "pairs": len(pairs),
        "seeds": [p["seed"] for p, _ in pairs],
        "correct": {side: all(r["result"]["correct"] for r in runs) for side, runs in sides.items()},
        "failed_ops": {side: sum(r["result"]["failed"] for r in runs) for side, runs in sides.items()},
        "metrics": {},
        "notes": {},
    }
    for metric in metrics:
        name, lower_better = metric["name"], metric["better"] == "lower"
        parent, change = ([r["result"]["metrics"][name]["value"] for r in runs] for runs in sides.values())
        wins = sum((c < p) if lower_better else (c > p) for p, c in zip(parent, change))
        out["metrics"][name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "parent": spread(parent),
            "change": spread(change),
            "change_over_parent": float(np.median(change) / np.median(parent)),
            "change_wins": wins,
        }
    numeric = sorted(
        key for key, value in pairs[0][0]["notes"].items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    )
    for key in numeric:
        out["notes"][key] = {}
        for side, runs in sides.items():
            values = [r["notes"][key] for r in runs]
            out["notes"][key][side] = {**spread(values), "max": max(values), "values": values}
    return out


def environment(records: list[dict]) -> dict:
    """CPU count, numpy version and BLAS threads before and after the runs."""
    def seen(key, pick):
        return sorted({pick(r["environment"][key]) for r in records}, key=str)

    def blas(env):
        return (env.get("openblas") or {}).get("threads")

    return {
        "nproc": seen("before", lambda env: env["nproc"]),
        "numpy": seen("before", lambda env: env["numpy"]),
        "python": seen("before", lambda env: env["python"]),
        "blas_threads_before": seen("before", blas),
        "blas_threads_after": seen("after", blas),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_out", type=Path, help="bench/out of the parent checkout")
    parser.add_argument("change_out", type=Path, help="bench/out of the changed checkout")
    parser.add_argument("--out", type=Path, required=True, help="summary JSON to write")
    parser.add_argument("--parent-commit", default=None, help="default: git HEAD of the parent checkout")
    parser.add_argument("--change-commit", default=None, help="default: git HEAD of the changed checkout")
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load_records(args.parent_out), load_records(args.change_out)
    workloads = {}
    for workload in (w["name"] for w in config["workloads"]):
        keys = sorted(k for k in parent.keys() & change.keys() if k[0] == workload)
        if keys:
            workloads[workload] = summarize_workload([(parent[k], change[k]) for k in keys], config["end_to_end"])
    if not workloads:
        print("no workload has a record in both directories", file=sys.stderr)
        return 1

    paired = [r for rs in (parent, change) for k, r in rs.items() if k[0] in workloads]
    summary = {
        "parent_commit": args.parent_commit or git_commit(args.parent_out.resolve().parent.parent),
        "change_commit": args.change_commit or git_commit(args.change_out.resolve().parent.parent),
        "environment": environment(paired),
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    for workload, block in workloads.items():
        for name, m in block["metrics"].items():
            print(f"{workload} {name}: parent {m['parent']['median']:.4g} change {m['change']['median']:.4g} "
                  f"({m['change_over_parent']:.3f}x), change better in {m['change_wins']}/{block['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
