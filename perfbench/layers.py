"""Per-layer attribution for the traced benchmark run.

A :class:`Tracer` records spans around calls into the program's layers
and turns them into self times that add back up to the wall clock:

* the benchmark opens explicit spans around the public calls it makes
  (``run_experiment``, ``run_collection_batch``, ``compile_scenario``,
  ``FleetWorker.run``, ...);
* :meth:`Tracer.install` wraps a few module-level functions the
  program calls internally (topology builds, BFS, ``run_collection``,
  result-cache reads and writes), so their time is charged to their own
  layer instead of their caller's;
* the engines' own phase buckets (:func:`repro.profiling.profiled`) are
  read for the slot loops: ``scalar/*`` phases belong to ``radio`` and
  ``vector/*`` phases to ``vector``.

A span's self time is its duration minus its child spans and minus the
profiled phases that ran inside it, so every second is charged once.
Only the thread that created the tracer is traced; calls from other
threads (the coordinator's server thread) pass through untouched.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

clock = time.perf_counter

#: Profile phase prefix -> the layer its time belongs to.
PHASE_LAYERS = {"scalar/": "radio", "vector/": "vector"}


class Tracer:
    """Spans, inclusive timers and counters for traced passes."""

    enabled = True

    def __init__(self) -> None:
        from repro.profiling import SlotLoopProfile

        self.profile = SlotLoopProfile()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[List[float]] = []
        self._thread = threading.get_ident()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------

    @contextmanager
    def span(self, layer: str, metric: Optional[str] = None) -> Iterator[None]:
        """Charge the enclosed time to ``layer`` (minus nested spans)."""
        frame = [0.0, 0.0]  # child span seconds, child profiled seconds
        profile_start = self.profile.total_seconds
        self._stack.append(frame)
        start = clock()
        try:
            yield
        finally:
            duration = clock() - start
            profiled = self.profile.total_seconds - profile_start
            self._stack.pop()
            self.self_s[layer] += (
                duration - frame[0] - (profiled - frame[1])
            )
            if metric is not None:
                self.inclusive[metric] += duration
            if self._stack:
                parent = self._stack[-1]
                parent[0] += duration
                parent[1] += profiled

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    # -- wrapping program functions ------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        metric: str,
        on_result: Optional[Callable[["Tracer", Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a spanned wrapper until uninstall."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if threading.get_ident() != tracer._thread:
                return original(*args, **kwargs)
            with tracer.span(layer, metric):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(tracer, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self) -> None:
        """Wrap the internal calls every workload may reach."""
        import repro.runner.defs as defs
        import repro.scenario.runtime as runtime
        from repro.runner.cache import ResultCache

        def count_edges(tracer: "Tracer", graph: Any) -> None:
            tracer.count("graphs.edges", graph.num_edges)

        self.wrap(defs, "build_topology", "graphs", "graphs.build_s",
                  count_edges)
        self.wrap(defs, "reference_bfs_tree", "graphs", "graphs.bfs_s")
        self.wrap(runtime, "reference_bfs_tree", "graphs", "graphs.bfs_s")
        self.wrap(defs, "run_collection", "core", "core.run_collection_s")
        self.wrap(ResultCache, "get", "runner", "runner.cache_get_s")
        self.wrap(ResultCache, "put", "runner", "runner.cache_put_s")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def active(self) -> Iterator["Tracer"]:
        """Install the wrappers and the ambient profile for one pass."""
        from repro.profiling import profiled

        self.install()
        try:
            with profiled(self.profile):
                yield self
        finally:
            self.uninstall()

    # -- attribution ---------------------------------------------------

    def phase_seconds(self, prefix: str) -> float:
        return sum(
            seconds
            for phase, seconds in self.profile.seconds.items()
            if phase.startswith(prefix)
        )

    def layer_self_times(self) -> Dict[str, float]:
        """Self seconds per layer, profiled phases included."""
        layers = dict(self.self_s)
        for prefix, layer in PHASE_LAYERS.items():
            seconds = self.phase_seconds(prefix)
            if seconds:
                layers[layer] = layers.get(layer, 0.0) + seconds
        return layers


class NullTracer:
    """The untraced stand-in: spans and counts cost next to nothing."""

    enabled = False

    @contextmanager
    def span(self, layer: str, metric: Optional[str] = None) -> Iterator[None]:
        yield

    def count(self, name: str, amount: float = 1) -> None:
        pass


def attribution(
    layers: Dict[str, float], wall: float, tolerance: float = 1e-3
) -> Tuple[float, List[str]]:
    """``unattributed_s`` and any reason the attribution does not hold.

    Every self time must be non-negative and together they may not
    exceed the wall clock; ``unattributed_s`` is the remainder, so the
    self times plus it equal ``wall`` by construction.
    """
    problems = [
        f"layer {name} has negative self time {seconds:.6f}s"
        for name, seconds in sorted(layers.items())
        if seconds < -tolerance
    ]
    unattributed = wall - sum(layers.values())
    if unattributed < -tolerance:
        problems.append(
            f"layer self times exceed the wall clock by {-unattributed:.6f}s"
        )
    return unattributed, problems
