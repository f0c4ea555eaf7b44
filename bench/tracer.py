"""Per-layer tracing for the benchmark's traced runs.

A Tracer replaces a public function with a timing wrapper at the name its
caller looks up (``stream.fsm_step`` rather than ``fsm.fsm_step``, because
``StreamRuntime`` calls the name bound in ``stream``). Every call records
its duration and its self time: the duration minus the time spent in traced
calls made inside it. Records stay in memory; the workload turns them into
the per-layer table when the run ends, after ``close()`` has put every
original function back.

Only traced runs install wrappers. The untraced runs that give the
end-to-end metrics read one clock per operation and nothing else.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.calls: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.top_level_s = 0.0  # time in outermost traced calls, for callers' self time
        self._open: list[list[float]] = []
        self._originals: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, label) -> None:
        """Trace ``owner.attr``; ``label`` is a name or a function of the
        call's (args, kwargs) returning one."""
        original = getattr(owner, attr)
        clock = time.perf_counter
        calls, open_spans = self.calls, self._open

        def traced(*args, **kwargs):
            children = [0.0]
            open_spans.append(children)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                open_spans.pop()
                if open_spans:
                    open_spans[-1][0] += elapsed
                else:
                    self.top_level_s += elapsed
                name = label(args, kwargs) if callable(label) else label
                calls[name].append((elapsed, elapsed - children[0]))

        self._originals.append((owner, attr, original))
        setattr(owner, attr, traced)

    def durations(self, name: str) -> list[float]:
        return [d for d, _ in self.calls.get(name, ())]

    def self_times(self, name: str) -> list[float]:
        return [s for _, s in self.calls.get(name, ())]

    def clear(self) -> None:
        self.calls.clear()
        self.top_level_s = 0.0

    def close(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)
