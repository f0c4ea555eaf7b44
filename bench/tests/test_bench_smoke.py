"""Small-size runs of each workload, the tracer, the metric list and the
refusal to run without the program."""

import json
import math
import shutil
import subprocess
import sys

import pytest

import edit_long_doc
import harness
import live_session
import loso_train
import run
from tracer import Tracer


def _assert_sane(outcome):
    assert outcome.errors == []
    for name, (value, _) in outcome.end_to_end().items():
        assert math.isfinite(value) and value > 0, name


def test_edit_long_doc_small():
    outcome = edit_long_doc.run(3, 0, min_passes=2, pool=1, doc_chars=3000)
    _assert_sane(outcome)
    assert len(outcome.op_ms()) == 2 * 236 and len(outcome.round_s) == 2
    assert len(outcome.op_latency_ms()) == 236


def test_edit_long_doc_traced_layers():
    outcome = edit_long_doc.run(4, 0, tracer=Tracer(), min_passes=1, pool=1, doc_chars=3000)
    assert outcome.errors == []
    assert outcome.layers["editor.segment_calls"] > 0
    assert outcome.layers["editor.apply_character_p50_ms"] > 0


def test_loso_train_one_short_fold():
    outcome = loso_train.run(0, 0, folds_per_pass=1, epochs=8)
    _assert_sane(outcome)
    assert len(outcome.op_ms()) == 8 * 39  # 1224 training clips in batches of 32


def test_live_session_one_session():
    """Uses (and on first use builds, in minutes) the cached checkpoint."""
    outcome = live_session.run(5, 0, sessions=1, min_passes=2)
    _assert_sane(outcome)
    assert len(outcome.round_s) == 2
    assert len(outcome.op_latency_ms()) == 1306
    assert 0 < outcome.notes["first20_ms"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert spec["paths"] == ["bench"]


def test_tracer_self_time_and_restore():
    class Box:
        @staticmethod
        def inner():
            return sum(range(20000))

        @staticmethod
        def outer():
            return Box.inner() + Box.inner()

    originals = (Box.inner, Box.outer)
    tracer = Tracer()
    tracer.wrap(Box, "inner", "inner")
    tracer.wrap(Box, "outer", "outer")
    Box.outer()
    tracer.close()
    assert (Box.inner, Box.outer) == originals
    (outer_total, outer_self), = tracer.calls["outer"]
    inner_total = sum(tracer.durations("inner"))
    assert len(tracer.calls["inner"]) == 2
    assert outer_self == pytest.approx(outer_total - inner_total)
    assert tracer.top_level_s == outer_total


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".cache", "out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "edit_long_doc", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
