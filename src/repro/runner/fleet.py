"""Coordinator-less multi-host fleet runner over a shared queue directory.

A *fleet queue* is a directory on storage every participating host can
reach — local disk for one machine, NFS (or any shared mount) for many:

.. code-block:: text

    queue/
      queue.json              submit manifest: exp_id, version, options,
                              the grid's content keys in grid order
      tasks/<key>.json        one pending task per file (spec + key)
      leases/<key>.lease      in-flight claims (create-exclusive,
                              heartbeat-refreshed — see runner/lease.py)
      results/                the shared content-addressed ResultCache
      quarantine/<key>.json   tasks the fleet gave up on
      hosts/<host>/journal.jsonl  per-host checkpoint/telemetry stream

There is no coordinator process and no network protocol: ``python -m
repro fleet submit`` populates the queue, any number of ``fleet worker``
processes on any number of machines drain it, and ``fleet status``
merges the per-host journals into one progress / failure-taxonomy view
at any time during or after the run.

A :class:`FleetWorker` is the shared :class:`~repro.runner.worker.Worker`
loop over a :class:`LeaseSource`.  Per task it claims the lease
create-exclusively, heartbeats its mtime while executing, commits the
outcome to the shared cache with a crash-consistent same-directory
``os.replace``, journals it, removes the task file, and releases the
lease.  Every step is atomic or idempotent, so a worker — or its entire
host — can be SIGKILLed between any two steps: the task is either still
pending, or claimed by a lease that goes stale and is reclaimed within
one TTL, or already committed — in which case the re-claimer replays the
cache hit instead of re-executing.  No task is ever lost; duplicate journal records are merged last-write-wins
by content key at read time and counted as ``duplicates_merged``.

The steal count carried on each lease folds host death into the
existing :class:`~repro.runner.policy.FaultPolicy` retry budget: a task
whose lease has been stolen more than ``max_retries`` times is killing
its hosts and is quarantined (category ``"crash"``) rather than allowed
to take the fleet down host by host.

``run_fleet_chaos`` (:mod:`repro.runner.chaos`) proves the whole
protocol end to end: it SIGKILLs a worker host mid-sweep, corrupts an
in-flight lease, skews one host's clock, and verifies bit-for-bit
convergence to a single-process clean control.
"""

from __future__ import annotations

import json
import os
import socket
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.runner.atomicio import atomic_write_json
from repro.runner.cache import ResultCache
from repro.runner.checkpoint import SweepCheckpoint
from repro.runner.executor import RunReport, TaskOutcome
from repro.runner.lease import LeaseDir, LeaseObserver
from repro.runner.policy import FaultPolicy, QuarantineRecord
from repro.runner.task import TaskSpec
from repro.runner.telemetry import _read_jsonl, merge_task_records
from repro.runner.worker import (
    DRAINED,
    IDLE,
    RETIRED,
    Claim,
    Worker,
    WorkerReport,
    quarantine_record,
)

QUEUE_MANIFEST = "queue.json"
TASKS_DIR = "tasks"
LEASES_DIR = "leases"
RESULTS_DIR = "results"
QUARANTINE_DIR = "quarantine"
HOSTS_DIR = "hosts"
JOURNAL_NAME = "journal.jsonl"


#: Per-process random nonce folded into :func:`default_host_name`.
#: Computed once per interpreter (fork inherits it, but forked children
#: differ by pid; a fresh interpreter draws a fresh nonce).
_HOST_NONCE = os.urandom(2).hex()


def default_host_name() -> str:
    """A per-worker host identity: ``<hostname>-<pid>-<nonce>``.

    One OS host may deliberately run several workers; each is its own
    fleet "host" with its own journal stream and lease identity.  The
    random per-process nonce keeps a restarted worker that recycles a
    dead predecessor's PID from inheriting its journal stream and lease
    identity — without it, ``fleet status`` would mis-merge the two
    incarnations into one host taxonomy entry.
    """
    return f"{socket.gethostname()}-{os.getpid()}-{_HOST_NONCE}"


class FleetQueue:
    """One shared work-queue directory (layout in the module docstring)."""

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root)
        self.tasks_dir = self.root / TASKS_DIR
        self.quarantine_dir = self.root / QUARANTINE_DIR
        self.hosts_dir = self.root / HOSTS_DIR
        self.manifest_path = self.root / QUEUE_MANIFEST

    # -- submit --------------------------------------------------------

    def submit(
        self,
        tasks: List[TaskSpec],
        *,
        version: str,
        options: Optional[Mapping[str, Any]] = None,
    ) -> int:
        """Populate the queue with ``tasks``; returns how many are new.

        Idempotent: resubmitting the same grid rewrites identical task
        files (atomic, so racing workers never see a torn spec) and
        leaves completed work alone — a task whose result is already in
        the shared cache is skipped by workers as a cache hit, not
        re-executed.
        """
        if not tasks:
            raise ConfigurationError("cannot submit an empty task grid")
        exp_ids = {spec.exp_id for spec in tasks}
        if len(exp_ids) != 1:
            raise ConfigurationError(
                f"one queue holds one experiment, got {sorted(exp_ids)}"
            )
        self.tasks_dir.mkdir(parents=True, exist_ok=True)
        (self.root / LEASES_DIR).mkdir(parents=True, exist_ok=True)
        (self.root / RESULTS_DIR).mkdir(parents=True, exist_ok=True)
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        self.hosts_dir.mkdir(parents=True, exist_ok=True)
        keys = [spec.key(version) for spec in tasks]
        fresh = 0
        for spec, key in zip(tasks, keys):
            path = self.task_path(key)
            if not path.exists():
                fresh += 1
            atomic_write_json(
                path, {"key": key, "spec": spec.to_record()}
            )
        atomic_write_json(
            self.manifest_path,
            {
                "exp_id": tasks[0].exp_id,
                "version": version,
                "total": len(tasks),
                "keys": keys,
                "options": dict(options or {}),
                "submitted_unix": time.time(),
            },
            indent=2,
        )
        return fresh

    # -- paths and listings --------------------------------------------

    def manifest(self) -> Dict[str, Any]:
        try:
            return json.loads(self.manifest_path.read_text("utf-8"))
        except (OSError, json.JSONDecodeError):
            raise ConfigurationError(
                f"{self.root} is not a fleet queue (no readable "
                f"{QUEUE_MANIFEST}; run 'fleet submit' first)"
            ) from None

    def leases(self, clock_skew: float = 0.0) -> LeaseDir:
        # fsync=True: a claim is a commit point — it must survive a
        # machine crash, or a rebooted host could double-own a task.
        return LeaseDir(
            self.root / LEASES_DIR, clock_skew=clock_skew, fsync=True
        )

    def cache(self) -> ResultCache:
        # fsync=True: "committed" must mean durable for the kill -9
        # chaos verdicts to be honest on a real disk.
        return ResultCache(self.root / RESULTS_DIR, fsync=True)

    def task_path(self, key: str) -> Path:
        return self.tasks_dir / f"{key}.json"

    def pending_keys(self) -> List[str]:
        """Content keys of tasks not yet completed (sorted)."""
        try:
            names = os.listdir(self.tasks_dir)
        except OSError:
            return []
        return sorted(
            name[: -len(".json")]
            for name in names
            if name.endswith(".json") and not name.startswith(".")
        )

    def read_task(self, key: str) -> Optional[Dict[str, Any]]:
        """The task record for ``key``; None once completed (or torn)."""
        try:
            payload = json.loads(self.task_path(key).read_text("utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    def remove_task(self, key: str) -> None:
        try:
            os.unlink(self.task_path(key))
        except OSError:
            pass

    # -- quarantine ----------------------------------------------------

    def quarantine_path(self, key: str) -> Path:
        return self.quarantine_dir / f"{key}.json"

    def put_quarantine(self, key: str, record: Dict[str, Any]) -> None:
        atomic_write_json(self.quarantine_path(key), record, fsync=True)

    def quarantined(self) -> Dict[str, Dict[str, Any]]:
        records: Dict[str, Dict[str, Any]] = {}
        try:
            names = sorted(os.listdir(self.quarantine_dir))
        except OSError:
            return records
        for name in names:
            if not name.endswith(".json") or name.startswith("."):
                continue
            try:
                records[name[:-5]] = json.loads(
                    (self.quarantine_dir / name).read_text("utf-8")
                )
            except (OSError, json.JSONDecodeError):
                continue
        return records

    # -- per-host journals ---------------------------------------------

    def journal_path(self, host: str) -> Path:
        return self.hosts_dir / host / JOURNAL_NAME

    def hosts(self) -> List[str]:
        try:
            return sorted(
                entry
                for entry in os.listdir(self.hosts_dir)
                if (self.hosts_dir / entry / JOURNAL_NAME).exists()
            )
        except OSError:
            return []


class LeaseSource:
    """The :class:`~repro.runner.worker.WorkSource` over a fleet queue.

    Claims scan the pending tasks in passes: one listing per pass, in a
    host-dependent rotation (so simultaneous workers start at different
    points and rarely collide on claims), then moot leases are reaped.
    A pass that made no progress — everything pending is leased to live
    owners — answers ``IDLE``, which is also how the worker watches
    rivals' leases for staleness.
    """

    def __init__(
        self,
        queue: FleetQueue,
        host: str,
        *,
        policy: FaultPolicy,
        ttl: float,
        clock_skew: float,
    ) -> None:
        self.queue = queue
        self.host = host
        self.policy = policy
        self.ttl = ttl
        self.leases = queue.leases(clock_skew=clock_skew)
        self.observer = LeaseObserver(ttl)
        self.cache = queue.cache()
        self._claims = self._passes()
        # fsync=True: journaling an outcome is the step that lets the
        # merge layer trust "this task is done" after any crash.
        self._journal = SweepCheckpoint(queue.journal_path(host), fsync=True)

    def open(self, report: WorkerReport) -> str:
        self.report = report
        version = str(self.queue.manifest().get("version", ""))
        self._journal.append_event(
            "host_start",
            host=self.host,
            pid=os.getpid(),
            ttl=self.ttl,
            time_unix=time.time(),
        )
        return version

    def close(self, clean: bool) -> None:
        if clean:
            self._journal.append_event(
                "host_finish",
                host=self.host,
                stats=self.report.to_record(),
                time_unix=time.time(),
            )
        self._journal.close()

    def claim(self) -> Claim:
        return next(self._claims, DRAINED)

    def _passes(self) -> Iterator[Claim]:
        while True:
            pending = self.queue.pending_keys()
            if not pending:
                break
            offset = hash(self.host) % len(pending)
            progressed = False
            for key in pending[offset:] + pending[:offset]:
                claim = self._try_task(key)
                if claim is not None:
                    progressed = True
                    yield claim
            self._reap_moot_leases()
            if not progressed and self.queue.pending_keys():
                yield IDLE
        self._reap_moot_leases()

    def _try_task(self, key: str) -> Optional[Claim]:
        """Claim ``key``: a task to run, ``RETIRED``, or None (no progress)."""
        task_record = self.queue.read_task(key)
        if task_record is None:
            return None  # completed (or retired) by someone else
        stolen = None
        if not self.leases.claim(key, self.host):
            stolen = self.leases.reclaim(key, self.host, self.observer)
            if stolen is None:
                return None  # live owner elsewhere, or lost the race
            self.report.lease_reclaims += 1
            self._journal.append_event(
                "lease_reclaim",
                key=key,
                host=self.host,
                victim_host=stolen.host,
                steal_count=stolen.steal_count + 1,
                time_unix=time.time(),
            )
        if not self.queue.task_path(key).exists():
            # Retired between our pending scan and the claim: the
            # previous owner committed, removed the task file and
            # released.  Only the lease holder retires a task, so now
            # that *we* hold the lease this check is race-free.
            self.leases.release(key)
            return None
        spec = TaskSpec.from_record(task_record["spec"])
        if stolen is not None and (
            stolen.steal_count + 1 > self.policy.max_retries
        ):
            # The steal count folds into the retry budget: hosts keep
            # dying (or wedging) on this task.
            self.quarantine(key, quarantine_record(
                spec, key, "crash", stolen.steal_count + 1,
                f"lease stolen {stolen.steal_count + 1} times "
                f"(last victim {stolen.host}); hosts keep dying "
                "on this task",
            ))
            self.report.quarantined += 1
            return RETIRED
        record = self.cache.get(key)
        if record is not None:
            # A dead (or racing) host already committed: replay.
            self._journal_outcome(key, record, cached=True, source="cache")
            self.report.cache_hits += 1
            self._finish(key)
            return RETIRED
        return key, spec

    def heartbeat(self, key: str) -> None:
        self.leases.heartbeat(key)

    def commit(self, key: str, record: Dict[str, Any]) -> None:
        self.cache.put(key, record)
        self._journal_outcome(key, record, cached=False, source="fresh")
        self._finish(key)

    def quarantine(self, key: str, record: Dict[str, Any]) -> None:
        self.queue.put_quarantine(key, record)
        self._journal.append_quarantine(key, record)
        self._finish(key)

    def _journal_outcome(
        self, key: str, record: Dict[str, Any], cached: bool, source: str
    ) -> None:
        self._journal.append_event(
            "outcome",
            key=key,
            record=record,
            host=self.host,
            cached=cached,
            source=source,
            time_unix=time.time(),
        )

    def _finish(self, key: str) -> None:
        """Commit order matters: cache, journal, *then* retire the task
        file, then release the lease — a kill between any two steps
        leaves the queue recoverable (at worst a replayed cache hit)."""
        self.queue.remove_task(key)
        self.leases.release(key)

    def _reap_moot_leases(self) -> None:
        """Unlink leases whose task is already retired.

        A host killed between retiring the task file and releasing the
        lease leaves a lease that refers to nothing.  The work is
        committed, so any worker may clear it immediately — no TTL wait.
        """
        for key in self.leases.keys():
            if not self.queue.task_path(key).exists():
                self.leases.release(key)
                self.observer.forget(key)


class FleetWorker(Worker):
    """One pull-mode worker draining a fleet queue until it is empty.

    The shared :class:`~repro.runner.worker.Worker` loop over a
    :class:`LeaseSource`.  Tasks execute inline in this process (a fleet
    already shards across processes and machines; each worker is one
    lane); ``run_fn`` overrides the registry lookup.

    ``ttl`` is the lease expiry interval: a lease whose mtime sits
    unchanged for one TTL of this worker's monotonic clock is treated as
    orphaned and stolen.  The heartbeat thread refreshes the active
    lease every ``ttl/4`` by default, so only a dead or wedged host goes
    stale.  ``clock_skew`` (chaos/testing) makes this worker stamp lease
    times as if its wall clock were wrong by that many seconds.
    ``throttle`` sleeps that long before each fresh execution.
    """

    def __init__(
        self,
        queue: Union[FleetQueue, os.PathLike, str],
        host: Optional[str] = None,
        *,
        policy: Optional[FaultPolicy] = None,
        ttl: float = 30.0,
        heartbeat_interval: Optional[float] = None,
        poll_interval: float = 0.5,
        throttle: float = 0.0,
        clock_skew: float = 0.0,
        run_fn=None,
        max_tasks: Optional[int] = None,
        progress: bool = False,
    ) -> None:
        if ttl <= 0:
            raise ConfigurationError(f"ttl must be positive, got {ttl}")
        host = host if host is not None else default_host_name()
        policy = policy if policy is not None else FaultPolicy()
        source = LeaseSource(
            queue if isinstance(queue, FleetQueue) else FleetQueue(queue),
            host,
            policy=policy,
            ttl=ttl,
            clock_skew=clock_skew,
        )
        super().__init__(
            source,
            host,
            policy=policy,
            heartbeat_interval=(
                heartbeat_interval if heartbeat_interval is not None
                else ttl / 4.0
            ),
            poll_interval=poll_interval,
            throttle=throttle,
            run_fn=run_fn,
            max_tasks=max_tasks,
            progress=progress,
        )


# ----------------------------------------------------------------------
# Status merge and the merged run report
# ----------------------------------------------------------------------


@dataclass
class HostStatus:
    """One host's contribution, merged from its journal stream."""

    host: str
    outcomes: int = 0
    fresh: int = 0
    cached: int = 0
    quarantines: int = 0
    lease_reclaims: int = 0
    started_unix: Optional[float] = None
    last_seen_unix: Optional[float] = None
    finished: bool = False

    def throughput(self) -> Optional[float]:
        """Outcomes per second over this host's observed lifetime.

        None until the host has both produced an outcome and been seen
        for a measurable interval — a freshly-started host has no rate
        yet, and inventing one would poison the fleet ETA.
        """
        if (
            self.outcomes == 0
            or self.started_unix is None
            or self.last_seen_unix is None
        ):
            return None
        span = self.last_seen_unix - self.started_unix
        if span <= 0:
            return None
        return self.outcomes / span

    def to_record(self) -> Dict[str, Any]:
        return {
            "host": self.host,
            "outcomes": self.outcomes,
            "fresh": self.fresh,
            "cached": self.cached,
            "quarantines": self.quarantines,
            "lease_reclaims": self.lease_reclaims,
            "started_unix": self.started_unix,
            "last_seen_unix": self.last_seen_unix,
            "finished": self.finished,
        }


@dataclass
class FleetStatus:
    """The merged live view of one fleet queue."""

    queue_dir: str
    exp_id: str
    version: str
    total: int
    pending: int
    completed: int
    quarantined: int
    duplicates_merged: int
    lease_reclaims: int
    host_failures: int
    hosts: List[HostStatus] = field(default_factory=list)
    leased: Dict[str, str] = field(default_factory=dict)
    orphan_leases: List[str] = field(default_factory=list)
    quarantine_records: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def done(self) -> bool:
        return self.pending == 0

    def to_json(self) -> Dict[str, Any]:
        return {
            "queue_dir": self.queue_dir,
            "exp_id": self.exp_id,
            "version": self.version,
            "total": self.total,
            "pending": self.pending,
            "completed": self.completed,
            "quarantined": self.quarantined,
            "duplicates_merged": self.duplicates_merged,
            "lease_reclaims": self.lease_reclaims,
            "host_failures": self.host_failures,
            "done": self.done,
            "hosts": [h.to_record() for h in self.hosts],
            "leased": dict(self.leased),
            "orphan_leases": list(self.orphan_leases),
            "quarantine_records": list(self.quarantine_records),
        }

    def summary(self) -> str:
        finished = self.completed + self.quarantined
        frac = finished / self.total if self.total else 1.0
        bar = "#" * int(round(30 * frac))
        lines = [
            f"fleet {self.exp_id} @ {self.queue_dir}",
            f"[{bar:<30}] {finished}/{self.total} "
            f"({self.completed} completed, {self.quarantined} quarantined, "
            f"{self.pending} pending, {len(self.leased)} in flight)",
        ]
        live_rate = 0.0
        for host in self.hosts:
            state = "finished" if host.finished else "running"
            rate = host.throughput()
            if rate is not None and not host.finished:
                live_rate += rate
            rate_str = f"{rate:.2f}/s" if rate is not None else "--/s"
            lines.append(
                f"  {host.host:<24} {host.outcomes:>4} outcomes "
                f"({host.fresh} fresh, {host.cached} cached) "
                f"@ {rate_str}, "
                f"{host.lease_reclaims} reclaims, "
                f"{host.quarantines} quarantines [{state}]"
            )
        if self.pending and live_rate > 0:
            eta = self.pending / live_rate
            lines.append(
                f"eta: ~{eta:.0f}s for {self.pending} pending at "
                f"{live_rate:.2f} tasks/s across live hosts"
            )
        elif self.pending and self.leased:
            lines.append(
                f"eta: unknown ({self.pending} pending, no live "
                "throughput measured yet)"
            )
        lines.append(
            f"failure taxonomy: {self.quarantined} quarantined, "
            f"{self.lease_reclaims} lease reclaims, "
            f"{self.host_failures} host failures, "
            f"{self.duplicates_merged} duplicates merged"
        )
        if self.orphan_leases:
            lines.append(
                f"  {len(self.orphan_leases)} orphan lease(s) awaiting "
                "reclaim: " + ", ".join(k[:12] for k in self.orphan_leases)
            )
        for record in self.quarantine_records:
            lines.append(
                f"  quarantined {record.get('label')} "
                f"[{record.get('category')}] {record.get('detail')}"
            )
        return "\n".join(lines)


def _merged_journal(
    queue: FleetQueue,
) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]], List[HostStatus]]:
    """All hosts' journal lines: (outcome records, events, host stats).

    Journals are read leniently (``strict=False``): a SIGKILLed host may
    have torn its final line, and that is interruption, not damage.
    """
    outcomes: List[Dict[str, Any]] = []
    events: List[Dict[str, Any]] = []
    hosts: List[HostStatus] = []
    for host in queue.hosts():
        status = HostStatus(host=host)
        for entry in _read_jsonl(queue.journal_path(host), strict=False):
            kind = entry.get("kind")
            stamp = entry.get("time_unix")
            if stamp is not None:
                status.last_seen_unix = stamp
            if kind == "outcome":
                outcomes.append(entry)
                status.outcomes += 1
                if entry.get("cached"):
                    status.cached += 1
                else:
                    status.fresh += 1
            elif kind == "quarantine":
                events.append(entry)
                status.quarantines += 1
            elif kind == "lease_reclaim":
                events.append(entry)
                status.lease_reclaims += 1
            elif kind == "host_start":
                status.started_unix = stamp
            elif kind == "host_finish":
                status.finished = True
        hosts.append(status)
    return outcomes, events, hosts


def fleet_status(queue_dir: os.PathLike) -> FleetStatus:
    """Merge manifest, journals, leases and quarantine into one view."""
    queue = (
        queue_dir if isinstance(queue_dir, FleetQueue) else FleetQueue(queue_dir)
    )
    manifest = queue.manifest()
    outcomes, events, hosts = _merged_journal(queue)
    merged, duplicates = merge_task_records(outcomes)
    pending = queue.pending_keys()
    quarantine = queue.quarantined()
    leases = queue.leases()
    leased: Dict[str, str] = {}
    orphans: List[str] = []
    for key in leases.keys():
        record = leases.read(key)
        owner = record.host if record is not None else "(corrupt lease)"
        if queue.task_path(key).exists():
            leased[key] = owner
        else:
            orphans.append(key)
    return FleetStatus(
        queue_dir=str(queue.root),
        exp_id=str(manifest.get("exp_id", "?")),
        version=str(manifest.get("version", "?")),
        total=int(manifest.get("total", 0)),
        pending=len(pending),
        completed=len(
            {entry.get("key") for entry in merged} - set(quarantine)
        ),
        quarantined=len(quarantine),
        duplicates_merged=duplicates,
        lease_reclaims=sum(h.lease_reclaims for h in hosts),
        host_failures=len(_victims(events)),
        hosts=hosts,
        leased=leased,
        orphan_leases=orphans,
        quarantine_records=list(quarantine.values()),
    )


def journal_report(
    manifest: Mapping[str, Any],
    outcome_entries: List[Dict[str, Any]],
    quarantine: List[Dict[str, Any]],
    hosts: List[HostStatus],
    *,
    lease_reclaims: int,
    host_failures: int,
) -> RunReport:
    """Fold journaled outcome entries into a :class:`RunReport`.

    The entries are deduplicated last-write-wins by content key and put
    back in the manifest's grid order, so ``summary_table()`` is
    bit-comparable with a single-process run of the same grid.  Wall
    time spans the hosts' first to last journal stamps.
    """
    merged, duplicates = merge_task_records(outcome_entries)
    by_key = {entry["key"]: entry for entry in merged if "key" in entry}
    outcomes: List[TaskOutcome] = []
    for key in manifest.get("keys", sorted(by_key)):
        entry = by_key.get(str(key))
        if entry is None:
            continue
        record = entry.get("record", {})
        outcomes.append(
            TaskOutcome(
                spec=TaskSpec.from_record(record["spec"]),
                metrics=record.get("metrics", {}),
                wall_time=float(record.get("wall_time", 0.0)),
                cached=bool(entry.get("cached")),
                key=str(key),
                source=str(entry.get("source", "fresh")),
            )
        )
    cache_hits = sum(outcome.cached for outcome in outcomes)
    stamps = [h.started_unix for h in hosts if h.started_unix is not None]
    ends = [h.last_seen_unix for h in hosts if h.last_seen_unix is not None]
    wall = max(0.0, max(ends) - min(stamps)) if stamps and ends else 0.0
    return RunReport(
        exp_id=str(manifest.get("exp_id", "?")),
        version=str(manifest.get("version", "?")),
        workers=len(hosts),
        outcomes=outcomes,
        executed=len(outcomes) - cache_hits,
        cache_hits=cache_hits,
        wall_time=wall,
        quarantined=[QuarantineRecord.from_record(r) for r in quarantine],
        duplicates_merged=duplicates,
        lease_reclaims=lease_reclaims,
        hosts_seen=len(hosts),
        host_failures=host_failures,
    )


def _victims(events: List[Dict[str, Any]]) -> set:
    """Distinct hosts whose leases were stolen: the fleet's host failures."""
    return {
        event["victim_host"]
        for event in events
        if event.get("kind") == "lease_reclaim" and event.get("victim_host")
    }


def fleet_report(queue_dir: os.PathLike) -> RunReport:
    """The merged :class:`RunReport` of a fleet run, in grid order,
    built from the union of the per-host journals."""
    queue = (
        queue_dir if isinstance(queue_dir, FleetQueue) else FleetQueue(queue_dir)
    )
    outcomes, events, hosts = _merged_journal(queue)
    return journal_report(
        queue.manifest(),
        outcomes,
        list(queue.quarantined().values()),
        hosts,
        lease_reclaims=sum(h.lease_reclaims for h in hosts),
        host_failures=len(_victims(events)),
    )
