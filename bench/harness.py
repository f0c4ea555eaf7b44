"""Pieces shared by the three workloads: locating the program under test,
statistics, the per-run outcome record and the run environment.

The benchmark drives microgext only through its public functions. It finds
the package in the checkout's own ``src/`` and refuses to run if it is not
there, so it can never silently measure some other installed copy.
"""

from __future__ import annotations

import ctypes
import importlib.util
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_EDITOR = ROOT / "tests" / "editor_reference.py"
OUT_DIR = BENCH_DIR / "out"

FRAME_BUDGET_MS = 1000.0 / 72.0  # one 72 Hz frame
SETUP_REPEATS = 3


class MissingProgram(RuntimeError):
    pass


def import_program():
    """Import microgext from the checkout's src/ (never from elsewhere)."""
    if not (SRC / "microgext" / "__init__.py").is_file():
        raise MissingProgram(f"no microgext package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import microgext

    if Path(microgext.__file__).resolve().parent != (SRC / "microgext").resolve():
        raise MissingProgram(f"microgext was imported from {microgext.__file__}, not {SRC}")
    return microgext


def load_reference_editor():
    """The naive reference editor the program's own tests fuzz against."""
    if not REFERENCE_EDITOR.is_file():
        raise MissingProgram(f"no reference editor at {REFERENCE_EDITOR}")
    spec = importlib.util.spec_from_file_location("bench_editor_reference", REFERENCE_EDITOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return float(statistics.median(values))


def median_or_zero(values) -> float:
    """Median of a layer's samples; a layer the workload never calls reads 0."""
    return median(values) if len(values) else 0.0


def forward_label(args, kwargs) -> str:
    """Layer name of one ``network.forward_batch`` call: the forward inside
    ``loss_and_grads`` (asked for its cache), one streaming window, or a
    batch."""
    if kwargs.get("want_cache") or (len(args) > 2 and args[2]):
        return "network.forward_cached"
    return "network.forward_b1" if len(args[1]) == 1 else "network.forward_batched"


def editor_layers(tracer, granularities=("Character", "Word", "Sentence", "Paragraph")) -> dict[str, float]:
    """Per-layer editor figures from calls traced as ``editor.apply_<granularity>``
    and ``editor.segment``."""
    layers, applies = {}, 0
    for gran in granularities:
        name = f"editor.apply_{gran.lower()}"
        samples = tracer.durations(name)
        applies += len(samples)
        layers[f"{name}_p50_ms"] = percentile(samples, 50) * 1e3 if samples else 0.0
        layers[f"{name}_p99_ms"] = percentile(samples, 99) * 1e3 if samples else 0.0
    layers["editor.segment_calls"] = len(tracer.calls.get("editor.segment", ())) / max(applies, 1)
    layers["editor.segment_ms"] = median_or_zero(tracer.durations("editor.segment")) * 1e3
    return layers


def apply_label(args, kwargs) -> str:
    """Layer name of one ``editor.apply`` call: by the document's granularity."""
    return f"editor.apply_{args[0].granularity.value.lower()}"


def run_passes(seconds: float, pool: int, min_passes: int, do_round) -> int:
    """Call ``do_round(slot)`` for every slot of the pool, pass after pass,
    until at least ``min_passes`` passes ran and the timed seconds they
    return add up to ``seconds``; returns the number of passes.

    A run always attempts whole passes, so every operation of the pool is
    replayed the same number of times, and a faster program fits more
    passes in the same time.
    """
    timed, passes = 0.0, 0
    while passes < min_passes or timed < seconds:
        for slot in range(pool):
            timed += do_round(slot)
        passes += 1
    return passes


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one workload run measured and found.

    ``round_ops`` maps each pool slot to one array of operation latencies
    (ms) per pass that replayed it. ``errors`` lists every failed output
    check; an empty list means the program's outputs were correct.
    ``layers`` holds per-layer figures and is filled only by traced runs.
    ``notes`` is reported beside the metrics but is not a metric.
    """

    setup_s: list[float] = field(default_factory=list)
    round_s: list[float] = field(default_factory=list)
    round_ops: dict[int, list[np.ndarray]] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    errors: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def add_round(self, slot: int, seconds: float, ops_ms) -> None:
        self.round_s.append(seconds)
        self.round_ops.setdefault(slot, []).append(np.asarray(ops_ms, dtype=np.float64))

    def op_ms(self) -> np.ndarray:
        """Every reading of every operation attempted."""
        return np.concatenate([a for passes in self.round_ops.values() for a in passes])

    def op_latency_ms(self) -> np.ndarray:
        """Each operation's lowest reading over the passes that replayed it.

        A replay repeats the same computation on the same inputs. On a
        shared machine another tenant stalls this process for milliseconds
        at a time; a ~3 ms frame that a stall hits reads 10-50 ms, and how
        many frames are hit depends on the host, not the program. Taking the
        lower of the readings drops such hits unless every replay of that
        operation was hit.
        """
        return np.concatenate([np.min(np.vstack(passes), axis=0) for _, passes in sorted(self.round_ops.items())])

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        latency = self.op_latency_ms()
        return {
            "setup_s": (median(self.setup_s), "s"),
            "work_s": (median(self.round_s), "s"),
            "op_p50_ms": (percentile(latency, 50), "ms"),
            "op_p99_ms": (percentile(latency, 99), "ms"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }


def timed_setup(build, repeats: int = SETUP_REPEATS):
    """Run ``build()`` ``repeats`` times; return (last state, seconds each).

    The earlier states are dropped before the next build starts, so peak
    memory holds one set-up, as a real process would.
    """
    seconds, state = [], None
    for _ in range(repeats):
        state = None
        start = time.perf_counter()
        state = build()
        seconds.append(time.perf_counter() - start)
    return state, seconds


def _openblas_threads():
    """(library, configuration, thread count) of a loaded OpenBLAS, if any.

    Read through the library's own getters, so the count is whatever the
    program left it at; the benchmark never sets it.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if getter is None:
                    continue
                getter.restype = ctypes.c_int
                text = None
                if config is not None:
                    config.restype = ctypes.c_char_p
                    text = config().decode("utf-8", "replace")
                return {"library": Path(path).name, "config": text, "threads": int(getter())}
    return None


def environment() -> dict:
    """The run environment recorded with every run."""
    try:
        import threadpoolctl  # noqa: F401

        has_threadpoolctl = True
    except ImportError:
        has_threadpoolctl = False
    thread_env = {
        name: os.environ.get(name)
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "MICROGEXT_THREADS")
    }
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas_threads(),
        "blas_thread_env": thread_env,
        "threadpoolctl_imports": has_threadpoolctl,
    }
