"""tools/bench_summary.py: pairing, medians, quartiles and wins."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_summary.py"


@pytest.fixture(scope="module")
def summary_tool():
    spec = importlib.util.spec_from_file_location("bench_summary", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_record(out_dir: Path, workload: str, seed: int, p50: float, trace: bool = False):
    out_dir.mkdir(parents=True, exist_ok=True)
    names = ("setup_s", "work_s", "op_p50_ms", "op_p99_ms", "peak_rss_mb")
    record = {
        "workload": workload, "seed": seed, "trace": trace,
        "result": {"correct": True, "attempted": 10, "failed": 0,
                   "metrics": {n: {"value": p50 if n == "op_p50_ms" else 1.0, "unit": "x"} for n in names}},
        "notes": {"first20_ms": p50 * 2, "script_seeds": [7, 8]},
        "environment": {side: {"nproc": 2, "numpy": "2.0", "python": "3.11", "openblas": {"threads": 2}}
                        for side in ("before", "after")},
    }
    name = f"{workload}-seed{seed}{'-trace' if trace else ''}.json"
    (out_dir / name).write_text(json.dumps(record))


def test_pairs_by_workload_and_seed(summary_tool, tmp_path):
    for seed, (before, after) in enumerate([(1.0, 0.3), (1.2, 0.4), (0.9, 1.0), (1.1, 0.35)]):
        write_record(tmp_path / "parent", "live_session", seed, before)
        write_record(tmp_path / "change", "live_session", seed, after)
    write_record(tmp_path / "parent", "live_session", 99, 5.0)  # unpaired: ignored
    write_record(tmp_path / "change", "live_session", 0, 9.0, trace=True)  # traced: ignored
    out = tmp_path / "BENCH.json"
    assert summary_tool.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--out", str(out),
                              "--parent-commit", "aaa", "--change-commit", "bbb"]) == 0
    summary = json.loads(out.read_text())
    block = summary["workloads"]["live_session"]
    assert block["pairs"] == 4 and block["seeds"] == [0, 1, 2, 3]
    p50 = block["metrics"]["op_p50_ms"]
    assert p50["parent"]["median"] == pytest.approx(1.05)
    assert p50["change"]["median"] == pytest.approx(0.375)
    assert p50["parent"]["q1"] <= p50["parent"]["median"] <= p50["parent"]["q3"]
    assert p50["change_wins"] == 3
    assert block["metrics"]["setup_s"]["change_wins"] == 0  # ties are not wins
    assert block["notes"]["first20_ms"]["change"]["max"] == pytest.approx(2.0)
    assert "script_seeds" not in block["notes"]
    assert summary["parent_commit"] == "aaa" and summary["change_commit"] == "bbb"
    assert summary["environment"]["blas_threads_after"] == [2]
    assert "loso_train" not in summary["workloads"]


def test_no_pairs_fails(summary_tool, tmp_path):
    write_record(tmp_path / "parent", "live_session", 0, 1.0)
    (tmp_path / "change").mkdir()
    assert summary_tool.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--out",
                              str(tmp_path / "x.json")]) == 1
