"""The shared worker loop, over a fake source and over both transports.

:class:`~repro.runner.worker.Worker` is driven first by an in-memory
:class:`WorkSource` (no files, no sockets) to pin the transport-free
contract: retry-then-quarantine, overrun counting, heartbeats that only
name the active key, and ``max_tasks`` counting tasks the source retired
without running them.  Then ``max_tasks`` is exercised on the real
fleet and coordinator transports, and ``coord_report`` is compared with
an inline run of the same grid.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

import pytest

from repro.runner import (
    CoordClient,
    CoordServer,
    CoordWorker,
    FaultPolicy,
    FleetQueue,
    FleetWorker,
    coord_report,
    fleet_report,
    run_tasks,
    submit_tasks,
    task_grid,
)
from repro.runner.worker import (
    DRAINED,
    IDLE,
    RETIRED,
    SourceOffline,
    Worker,
)

VERSION = "vtest"


def _grid(n: int, exp_id: str = "EW"):
    return task_grid(exp_id, [{"idx": i} for i in range(n)], 1, seed=11)


def _value(spec) -> dict:
    return {"value": spec.seed % 97, "idx": spec.params["idx"]}


def _task(spec):
    return spec.key(VERSION), spec


class FakeSource:
    """A scripted in-memory work source that records every call."""

    def __init__(self, claims):
        self.claims = list(claims)
        self.latest = None  # the most recent claim answer
        self.beats = []  # (key, latest claim at the time of the beat)
        self.committed = {}
        self.quarantined = {}
        self.closed = None

    def open(self, report):
        self.report = report
        return VERSION

    def claim(self):
        self.latest = self.claims.pop(0) if self.claims else DRAINED
        if isinstance(self.latest, BaseException):
            raise self.latest
        return self.latest

    def heartbeat(self, key):
        self.beats.append((key, self.latest))

    def commit(self, key, record):
        self.committed[key] = record

    def quarantine(self, key, record):
        self.quarantined[key] = record

    def close(self, clean):
        self.closed = clean


def _worker(source, **kwargs):
    kwargs.setdefault("heartbeat_interval", 0.005)
    kwargs.setdefault("poll_interval", 0.01)
    return Worker(source, "fake-host", **kwargs)


# ----------------------------------------------------------------------
# The loop over an in-memory source
# ----------------------------------------------------------------------


def test_failing_task_quarantined_after_retry_budget():
    (spec,) = _grid(1)
    calls = []

    def explode(spec):
        calls.append(spec)
        raise RuntimeError("injected failure")

    source = FakeSource([_task(spec)])
    policy = FaultPolicy(max_retries=2, backoff_base=0.001)
    report = _worker(source, policy=policy, run_fn=explode).run()

    assert len(calls) == policy.max_retries + 1
    assert report.retries == 2 and report.quarantined == 1
    assert report.executed == 0 and source.committed == {}
    record = source.quarantined[spec.key(VERSION)]
    assert record["category"] == "error"
    assert record["attempts"] == policy.max_retries + 1
    assert record["label"] == spec.label()
    assert "RuntimeError: injected failure" in record["detail"]
    assert source.closed is True


def test_slow_task_counts_an_overrun():
    fast, slow = _grid(2)

    def run(spec):
        if spec is slow:
            time.sleep(0.05)
        return _value(spec)

    source = FakeSource([_task(fast), _task(slow)])
    report = _worker(
        source, policy=FaultPolicy(timeout=0.02), run_fn=run
    ).run()

    assert report.overruns == 1 and report.executed == 2
    # An overrun is counted, not punished: the outcome still commits.
    record = source.committed[slow.key(VERSION)]
    assert record["metrics"] == _value(slow)
    assert record["version"] == VERSION and record["wall_time"] >= 0.05


def test_heartbeat_only_names_the_active_key():
    specs = _grid(3)

    def slow(spec):
        time.sleep(0.05)
        return _value(spec)

    retired_key = specs[2].key(VERSION)
    source = FakeSource(
        [_task(specs[0]), IDLE, IDLE, RETIRED, _task(specs[1]), IDLE]
    )
    report = _worker(source, run_fn=slow).run()

    assert report.executed == 2
    assert source.beats, "a 50 ms task under a 5 ms heartbeat got none"
    for key, latest in source.beats:
        # Never during idle polls or retired claims, never a stale key.
        assert isinstance(latest, tuple) and latest[0] == key
    beat_keys = {key for key, _ in source.beats}
    assert beat_keys == {specs[0].key(VERSION), specs[1].key(VERSION)}
    assert retired_key not in beat_keys
    # The heartbeat thread is stopped by the time run() returns.
    count = len(source.beats)
    time.sleep(0.03)
    assert len(source.beats) == count


def test_retired_claims_count_toward_max_tasks():
    specs = _grid(2)
    source = FakeSource([RETIRED, RETIRED, _task(specs[0]), _task(specs[1])])
    report = _worker(source, run_fn=_value, max_tasks=2).run()

    assert report.executed == 0 and source.committed == {}
    assert len(source.claims) == 2  # never asked for the real tasks
    assert source.closed is True


def test_offline_source_stops_the_worker_cleanly():
    (spec,) = _grid(1)
    source = FakeSource([_task(spec), SourceOffline("gone")])
    report = _worker(source, run_fn=_value).run()

    assert report.executed == 1 and source.closed is True


def test_interrupted_loop_closes_unclean():
    source = FakeSource([KeyboardInterrupt()])
    with pytest.raises(KeyboardInterrupt):
        _worker(source, run_fn=_value).run()
    assert source.closed is False


# ----------------------------------------------------------------------
# max_tasks on the real transports
# ----------------------------------------------------------------------


class _Coordinator:
    """A coordinator on a loopback port, serving from a thread."""

    def __init__(self, root: Path):
        self.root = root
        self.server = CoordServer(root, ttl=10.0, tick=0.05)
        self.server.start()
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self.thread.start()

    def client(self) -> CoordClient:
        return CoordClient(self.root, timeout=2.0, offline_budget=10.0)

    def stop(self) -> None:
        client = self.client()
        try:
            client.request({"op": "stop"})
        finally:
            client.close()
        self.thread.join(timeout=5.0)
        self.server.close()
        assert not self.thread.is_alive()


@pytest.fixture
def coordinator(tmp_path):
    box = _Coordinator(tmp_path / "coord")
    try:
        yield box
    finally:
        box.stop()


def _submit(coordinator, specs):
    client = coordinator.client()
    try:
        submit_tasks(client, specs, version=VERSION)
    finally:
        client.close()


def test_fleet_max_tasks_retires_exactly_two(tmp_path):
    specs = _grid(5)
    queue = FleetQueue(tmp_path / "q")
    queue.submit(specs, version=VERSION)

    first = FleetWorker(
        queue, "first", run_fn=_value, max_tasks=2, poll_interval=0.01
    ).run()
    assert first.executed == 2
    assert len(queue.pending_keys()) == 3

    second = FleetWorker(queue, "second", run_fn=_value).run()
    assert second.executed == 3 and queue.pending_keys() == []
    merged = fleet_report(queue)
    assert len(merged.outcomes) == 5 and merged.executed == 5


def test_coord_max_tasks_retires_exactly_two(coordinator):
    specs = _grid(5)
    _submit(coordinator, specs)

    first = CoordWorker(
        coordinator.root, "first", run_fn=_value, max_tasks=2,
        poll_interval=0.01,
    ).run()
    assert first.executed == 2

    second = CoordWorker(
        coordinator.root, "second", run_fn=_value, poll_interval=0.01
    ).run()
    assert second.executed == 3
    merged = coord_report(coordinator.root)
    assert len(merged.outcomes) == 5 and merged.executed == 5


def test_coord_report_matches_inline_run_bitwise(coordinator):
    specs = _grid(6)
    inline = run_tasks(specs, _value, version=VERSION)
    _submit(coordinator, specs)
    CoordWorker(
        coordinator.root, "solo", run_fn=_value, poll_interval=0.01
    ).run()
    merged = coord_report(coordinator.root)

    assert merged.summary_table() == inline.summary_table()
    inline_by_key = {o.key: dict(o.metrics) for o in inline.outcomes}
    merged_by_key = {o.key: dict(o.metrics) for o in merged.outcomes}
    assert merged_by_key == inline_by_key
    # Grid order is restored from the manifest, not journal order.
    assert [o.key for o in merged.outcomes] == [
        o.key for o in inline.outcomes
    ]
