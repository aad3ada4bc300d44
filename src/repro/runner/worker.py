"""One worker loop for every task transport.

A :class:`Worker` drains a grid through a :class:`WorkSource`: it claims
a task, heartbeats it while it runs, executes it under the
:class:`~repro.runner.policy.FaultPolicy` retry budget, and commits the
outcome — or quarantines the task once the budget is spent.  Everything
that does not depend on *where* the grid lives is here; the transport
is the source: :class:`~repro.runner.fleet.FleetWorker` plugs in leases
over a shared queue directory, :class:`~repro.runner.client.CoordWorker`
a TCP coordinator, and tests an in-memory source.

``claim`` answers with a ``(key, spec)`` task or one of three markers:
:data:`RETIRED` (the source settled a task without running it — a
replayed cache hit, a steal-budget quarantine — which counts toward
``max_tasks``), :data:`IDLE` (nothing claimable now: sleep
``poll_interval`` and ask again) or :data:`DRAINED`.  A source raises
:class:`SourceOffline` when it can no longer be reached; the worker
then exits cleanly with what it has.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass
from typing import Any, Dict, Mapping, Optional, Protocol, Tuple, Union

from repro.runner.policy import FaultPolicy, QuarantineRecord
from repro.runner.task import TaskSpec

RETIRED = "retired"
IDLE = "idle"
DRAINED = "drained"

Claim = Union[Tuple[str, TaskSpec], str]


class SourceOffline(RuntimeError):
    """The work source stayed unreachable; the worker stops cleanly."""


@dataclass
class WorkerReport:
    """What one worker (fleet or coordinator-attached) did.

    ``stranded`` is coordinator-specific: outcomes a worker computed but
    could not commit before its coordinator stayed unreachable past the
    offline budget — spooled to the local outbox and committed by the
    next worker run instead of lost.
    """

    host: str
    executed: int = 0
    cache_hits: int = 0
    retries: int = 0
    lease_reclaims: int = 0
    quarantined: int = 0
    overruns: int = 0
    stranded: int = 0
    wall_time: float = 0.0

    def to_record(self) -> Dict[str, Any]:
        return asdict(self)


class WorkSource(Protocol):
    """The transport a :class:`Worker` drains (see the module docstring)."""

    def open(self, report: WorkerReport) -> str:
        """Connect; return the grid's version.  Transport counters
        (cache hits, lease reclaims, stranded commits) go to ``report``."""

    def claim(self) -> Claim: ...

    def heartbeat(self, key: str) -> None: ...

    def commit(self, key: str, record: Dict[str, Any]) -> None: ...

    def quarantine(self, key: str, record: Dict[str, Any]) -> None: ...

    def close(self, clean: bool) -> None:
        """Disconnect; ``clean`` is False when the loop was interrupted."""


def quarantine_record(
    spec: TaskSpec, key: str, category: str, attempts: int, detail: str
) -> Dict[str, Any]:
    return QuarantineRecord(
        spec=spec.to_record(),
        key=key,
        label=spec.label(),
        category=category,
        attempts=attempts,
        detail=detail,
    ).to_record()


class Worker:
    """Drain one :class:`WorkSource`; tasks execute inline, one at a time.

    ``run_fn`` overrides the registry lookup (tests inject counting
    stubs); by default a spec resolves through
    :func:`~repro.runner.registry.run_registered_task`, or the batch
    entry point as a batch of one for non-scalar engines.  ``throttle``
    sleeps before each execution so chaos and tests can hold tasks in
    flight; production leaves it 0.
    """

    def __init__(
        self,
        source: WorkSource,
        host: str,
        *,
        policy: Optional[FaultPolicy] = None,
        heartbeat_interval: float,
        poll_interval: float = 0.5,
        throttle: float = 0.0,
        run_fn=None,
        max_tasks: Optional[int] = None,
        progress: bool = False,
    ) -> None:
        self.source = source
        self.host = host
        self.policy = policy if policy is not None else FaultPolicy()
        self.heartbeat_interval = heartbeat_interval
        self.poll_interval = poll_interval
        self.throttle = throttle
        self.run_fn = run_fn
        self.max_tasks = max_tasks
        self.progress = progress
        self.report = WorkerReport(host=host)
        self._active_key: Optional[str] = None
        self._stop_heartbeat = threading.Event()

    def _heartbeat_loop(self) -> None:
        while not self._stop_heartbeat.wait(self.heartbeat_interval):
            key = self._active_key
            if key is not None:
                self.source.heartbeat(key)

    def _call(self, spec: TaskSpec) -> Mapping[str, Any]:
        if self.run_fn is not None:
            return self.run_fn(spec)
        from repro.runner.registry import (
            run_registered_batch,
            run_registered_task,
        )

        if spec.engine != "scalar":
            return run_registered_batch(spec.exp_id, [spec])[0]
        return run_registered_task(spec.exp_id, spec)

    def _execute(
        self, spec: TaskSpec, key: str
    ) -> Optional[Tuple[Dict[str, Any], float]]:
        """Run one task with the policy's retry budget; None if given up."""
        attempts = 0
        while True:
            started = time.perf_counter()
            try:
                metrics = dict(self._call(spec))
            except Exception as exc:
                attempts += 1
                if attempts > self.policy.max_retries:
                    self.source.quarantine(key, quarantine_record(
                        spec, key, "error", attempts,
                        f"task {spec.label()} failed on {self.host}: "
                        f"{type(exc).__name__}: {exc}",
                    ))
                    self.report.quarantined += 1
                    return None
                self.report.retries += 1
                time.sleep(self.policy.backoff_delay(key, attempts))
                continue
            wall = time.perf_counter() - started
            if self.policy.timeout is not None and wall > self.policy.timeout:
                # Inline execution cannot preempt; overruns are counted
                # (the watchdog against *dead* hosts is the lease TTL).
                self.report.overruns += 1
            return metrics, wall

    def _run_task(self, key: str, spec: TaskSpec, version: str) -> None:
        # An exception here leaves the claim to expire by TTL: releasing
        # it could hand a half-committed task to a rival while we unwind.
        self._active_key = key
        try:
            if self.throttle:
                time.sleep(self.throttle)
            result = self._execute(spec, key)
            if result is None:
                return  # quarantined
            metrics, wall = result
            self.report.executed += 1
            self.source.commit(key, {
                "spec": spec.to_record(),
                "metrics": metrics,
                "wall_time": wall,
                "version": version,
            })
            if self.progress:
                print(
                    f"[{self.host}] {spec.label()} done in {wall:.2f}s",
                    flush=True,
                )
        finally:
            self._active_key = None

    def run(self) -> WorkerReport:
        """Drain the source; return what this worker did.

        Stops when the source is drained, after ``max_tasks`` retired
        tasks, or cleanly when the source goes offline.
        """
        started = time.perf_counter()
        self._stop_heartbeat.clear()
        beat = threading.Thread(target=self._heartbeat_loop, daemon=True)
        clean = False
        try:
            version = self.source.open(self.report)
            beat.start()
            done = 0
            while self.max_tasks is None or done < self.max_tasks:
                claim = self.source.claim()
                if claim == DRAINED:
                    break
                if claim == IDLE:
                    time.sleep(self.poll_interval)
                    continue
                if claim != RETIRED:
                    self._run_task(*claim, version)
                done += 1
            clean = True
        except SourceOffline:
            clean = True  # anything computed is already spooled
        finally:
            self._stop_heartbeat.set()
            if beat.is_alive():
                beat.join(timeout=2.0)
            self.report.wall_time = time.perf_counter() - started
            self.source.close(clean)
        return self.report
