"""The benchmark workloads.

Each workload is a closed loop driven from one process: ``setup`` does
everything before the first simulated slot, and every
``run_pass`` repeats identical work (the same seeded inputs), so the
outcome digest of every pass must match.  A pass checks its own outputs
and returns a :class:`PassResult`.

``layered=True`` (the traced run and its untraced reference) adds the
work whose layers the trace attributes but the end-to-end figures
leave out, all on ``fault-sweep``: an inline replay of one task per
cell (profiling buckets are process-local, so the pool's workers report
no slot-loop phases), a drain of no-op tasks through the fleet and the
coordinator transports (:class:`TransportDrain`) and one vector batch
on a large field (:class:`FieldBatch`).

Sizes come from ``SCALES``: ``full`` is the benchmark, ``tiny`` the
smoke size the benchmark's own tests use.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import statistics
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping

import checks
from layers import clock

#: Per-workload sizes: the benchmark (``full``) and the smoke run.
SCALES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "e3-scalar": {
        "full": {"replications": 5, "quick": False},
        "tiny": {"replications": 1, "quick": True},
    },
    "fault-sweep": {
        "full": {
            "topologies": ["band-3x3", "band-3x4", "band-4x3", "band-4x4"],
            "replications": 9,
            "horizon_phases": 24,
            "replays": 3,
            "transport": {"cells": 10, "replications": 10},
            "field": {"n": 10_000, "sources": 32, "messages": 2, "batch": 8},
        },
        "tiny": {
            "topologies": ["band-3x3"],
            "replications": 2,
            "horizon_phases": 6,
            "replays": 1,
            "transport": {"cells": 3, "replications": 2},
            "field": {"n": 300, "sources": 4, "messages": 2, "batch": 2},
        },
    },
}

#: Unit-disk mean degree of the generated fields: every field of 10⁴
#: stations then has its maximum degree in (32, 64], one Decay budget.
FIELD_MEAN_DEGREE = 22.0
#: The pool size of the fault sweep (the box has two cores).
FAULT_WORKERS = 2


@dataclass
class PassResult:
    """One pass: its timed work, checks, and layer figures.

    ``wall`` is the denominator of ``tasks_per_s`` (the timed part of
    the pass); ``task_ms`` maps each task to its latency; ``rates`` are
    the workload's own end-to-end figures; ``layer`` the per-layer
    figures the workload measures itself (bytes, counters, ...).
    """

    wall: float
    tasks: int
    task_ms: Dict[str, float]
    digest: str
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    rates: Dict[str, float] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)
    #: Reference seconds per host second while the pass ran (run.py).
    scale: float = 1.0

    def fail(self, found: checks.Problems) -> None:
        failed, problems = found
        self.failed += failed
        self.problems.extend(problems)


def _dir_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    if not path.is_dir():
        return 0
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _journal_entries(path: Path) -> List[Dict[str, Any]]:
    entries = []
    with path.open(encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                entries.append(json.loads(line))
    return entries


class Workload:
    name = ""

    def __init__(self, seed: int, scale: str, workdir: Path) -> None:
        self.seed = seed
        self.size = SCALES[self.name][scale]
        self.workdir = workdir
        self.passes = 0

    def setup(self) -> None:
        """Everything before the first simulated slot."""

    def run_pass(self, tracer: Any, layered: bool) -> PassResult:
        raise NotImplementedError


# ----------------------------------------------------------------------
# e3-scalar: the registered Thm 4.4 grid on the reference engine
# ----------------------------------------------------------------------


class E3Scalar(Workload):
    """``run_experiment("E3", engine="scalar", workers=0)``, no cache."""

    name = "e3-scalar"

    def _options(self) -> Dict[str, Any]:
        return {"quick": True} if self.size["quick"] else {}

    def setup(self) -> None:
        from repro.runner import get_experiment

        self.tasks = get_experiment("E3").tasks(
            self.seed, self.size["replications"], **self._options()
        )

    def run_pass(self, tracer: Any, layered: bool) -> PassResult:
        from repro.runner import run_experiment

        with tracer.span("runner", "runner.grid_s"):
            start = clock()
            report = run_experiment(
                "E3",
                seed=self.seed,
                replications=self.size["replications"],
                engine="scalar",
                workers=0,
                **self._options(),
            )
            wall = clock() - start
        walls = [o.wall_time for o in report.outcomes]
        slots = sum(o.metrics["slots"] for o in report.outcomes)
        result = PassResult(
            wall=wall,
            tasks=len(self.tasks),
            task_ms={o.key: o.wall_time * 1000.0 for o in report.outcomes},
            digest=checks.outcome_digest(
                (o.key, o.metrics) for o in report.outcomes
            ),
            rates={"slots_per_s": slots / wall},
            layer={
                "runner.overhead_s": wall - sum(walls),
                "runner.retries": report.retries,
                "runner.quarantined": len(report.quarantined),
            },
        )
        result.fail(
            checks.check_e3(
                len(self.tasks),
                len(report.outcomes),
                len(report.quarantined),
                checks.per_cell(
                    (o.spec.case_label(), o.metrics["constant"])
                    for o in report.outcomes
                ),
            )
        )
        return result


# ----------------------------------------------------------------------
# The field batch: batched collection on a large unit-disk field
# ----------------------------------------------------------------------


class FieldBatch:
    """B replications of collection in one ``run_collection_batch``.

    Collection on a seed-generated unit-disk field of 10⁴ stations with
    default knobs (``auto`` resolves to sparse reception with the
    active-set mask): the vector kernels, the mask and the kernel
    backend work here, and ``random_geometric`` builds the field.  On a
    shared 2-core sandbox the same batch took 1.7 s and 3.2 s ten
    seconds apart, and neither an interpreter, a numpy nor a page-fault
    kernel tracked that noise, so this is not a workload of its own:
    ``fault-sweep``'s traced run builds the field and runs one batch
    every pass, for the per-layer figures and the checks.

    The field's shape is held steady across seeds: the mean degree
    keeps the maximum degree, and with it the Decay budget, in one
    power-of-two bracket, and the sink sits at the far end of a double
    BFS sweep, so the depth is about the field's diameter rather than
    wherever station 0 happened to land.
    """

    def __init__(self, seed: int, size: Mapping[str, Any]) -> None:
        self.seed = seed
        self.size = size

    def run(self, tracer: Any, result: PassResult) -> None:
        """Build the field, run one batch, record into ``result``."""
        from repro.graphs import random_geometric, reference_bfs_tree
        from repro.rng import derive_seed
        from repro.vector.collection import run_collection_batch

        n = self.size["n"]
        radius = math.sqrt(FIELD_MEAN_DEGREE / (math.pi * n))
        with tracer.span("graphs", "graphs.build_s"):
            graph = random_geometric(n, radius, random.Random(self.seed))
        tracer.count("graphs.edges", graph.num_edges)
        with tracer.span("graphs", "graphs.bfs_s"):
            sweep = reference_bfs_tree(graph, 0)
            sink = max(sweep.nodes, key=lambda v: (sweep.level[v], v))
            tree = reference_bfs_tree(graph, sink)
        deepest = sorted(tree.nodes, key=lambda v: (-tree.level[v], v))
        sources = {
            v: [f"m{v}-{i}" for i in range(self.size["messages"])]
            for v in deepest[: self.size["sources"]]
        }
        seeds = [
            derive_seed(self.seed, "perfbench-field", b)
            for b in range(self.size["batch"])
        ]
        with tracer.span("vector", "vector.batch_s"):
            batch = run_collection_batch(graph, tree, sources, seeds)
        sim = batch.simulation
        result.tasks += len(seeds)
        result.fail(
            checks.check_collected(
                sim.total_messages,
                sim.delivered_ids(),
                [int(x) for x in sim.backlog.sum(axis=1)],
            )
        )
        # Small fields run unmasked, where occupancy is undefined.
        result.layer["vector.awake_occupancy"] = (
            float(sim.awake_occupancy) if sim.masked else 0.0
        )
        self.simulation = sim


# ----------------------------------------------------------------------
# fault-sweep: a generated jammer/churn scenario, cold then warm
# ----------------------------------------------------------------------


def fault_scenario(seed: int, size: Mapping[str, Any]) -> Dict[str, Any]:
    """The scenario spec: topologies × {jammer duty 3, 6; churn}.

    Layered bands keep every station on several paths, so no fault
    wedges a message for good (a wedge costs a 20k-slot drain stall).
    """
    return {
        "scenario": {
            "name": "perfbench-faults",
            "title": "collection under a jammer and under churn",
        },
        "topology": {"name": list(size["topologies"])},
        "arrivals": {"kind": "bernoulli", "rate": 0.04, "sources": "all"},
        "faults": {
            "kind": ["jammer", "churn"],
            "jam_period": 40,
            "jam_duty": [3, 6],
            "start_phase": 2,
            "end_phase": 12,
            "fail_rate": 0.0002,
            "recover_rate": 0.5,
        },
        "protocol": {"kind": "collection"},
        "run": {
            "seed": seed,
            "replications": size["replications"],
            "horizon_phases": size["horizon_phases"],
        },
    }


class FaultSweep(Workload):
    """``run_scenario(workers=2)`` cold into a fresh cache, then warm."""

    name = "fault-sweep"

    def _compile(self, tracer: Any) -> Any:
        from repro.scenario import compile_scenario
        from repro.scenario.spec import validate_scenario

        with tracer.span("scenario", "scenario.compile_s"):
            return compile_scenario(
                validate_scenario(fault_scenario(self.seed, self.size))
            )

    def setup(self) -> None:
        from layers import NullTracer

        self.compiled = self._compile(NullTracer())
        self.transport = TransportDrain(self.seed, self.size["transport"])
        self.field = FieldBatch(self.seed, self.size["field"])

    def run_pass(self, tracer: Any, layered: bool) -> PassResult:
        from repro.kpi import kpis_from_report
        from repro.runner import ResultCache
        from repro.scenario import run_scenario, run_scenario_task

        self.passes += 1
        compiled = self._compile(tracer)
        root = self.workdir / f"fault-{self.passes}"
        telemetry = root / "telemetry"
        checkpoint = root / "checkpoint.jsonl"
        cold_cache = ResultCache(root / "cache")
        with tracer.span("runner", "runner.grid_s"):
            start = clock()
            cold = run_scenario(
                compiled,
                workers=FAULT_WORKERS,
                cache=cold_cache,
                telemetry=telemetry,
                checkpoint=checkpoint,
            )
            cold_wall = clock() - start
        hits, misses = cold_cache.hits, cold_cache.misses
        cold_metrics = {o.key: dict(o.metrics) for o in cold.outcomes}
        replay_walls = []
        replay_checks = []
        for _ in range(self.size["replays"]):
            warm_cache = ResultCache(root / "cache")
            with tracer.span("runner", "runner.grid_s"):
                start = clock()
                warm = run_scenario(
                    compiled, workers=FAULT_WORKERS, cache=warm_cache
                )
                replay_walls.append(clock() - start)
            hits += warm_cache.hits
            misses += warm_cache.misses
            replay_checks.append(checks.check_replay(
                cold_metrics,
                {o.key: dict(o.metrics) for o in warm.outcomes},
                warm.executed,
                warm.cache_hits,
            ))
        with tracer.span("kpi", "kpi.postpass_s"):
            kpis_from_report(cold, scenario=compiled.name)

        n = len(compiled.tasks)
        walls = [o.wall_time for o in cold.outcomes]
        slots = sum(o.metrics["slots"] for o in cold.outcomes)
        result = PassResult(
            wall=cold_wall,
            tasks=n,
            task_ms={o.key: o.wall_time * 1000.0 for o in cold.outcomes},
            digest=checks.outcome_digest(
                (o.key, o.metrics) for o in cold.outcomes
            ),
            rates={
                "slots_per_s": slots / cold_wall,
                "replay_tasks_per_s": n / statistics.median(replay_walls),
            },
            layer={
                "runner.overhead_s": cold_wall - sum(walls) / FAULT_WORKERS,
                "runner.cache_hits": hits,
                "runner.cache_misses": misses,
                "runner.retries": cold.retries,
                "runner.quarantined": len(cold.quarantined),
                "runner.telemetry_bytes": _dir_bytes(telemetry),
                "runner.checkpoint_bytes": _dir_bytes(checkpoint),
            },
        )
        result.fail(checks.check_conservation(cold_metrics, n))
        for found in replay_checks:
            result.fail(found)
        if layered:
            # One task per cell, inline, so the slot loop's phases land
            # in this process's profile; gears must agree bit for bit.
            for outcome in cold.outcomes[:: compiled.spec.run["replications"]]:
                with tracer.span("scenario", "scenario.inline_s"):
                    metrics = run_scenario_task(outcome.spec)
                if checks.outcome_digest([("", metrics)]) != checks.outcome_digest(
                    [("", cold_metrics[outcome.key])]
                ):
                    result.fail((1, [
                        f"inline task {outcome.key[:12]} differs from its "
                        "pool outcome"
                    ]))
            self.transport.drain(tracer, root / "transport", result)
            self.field.run(tracer, result)
        shutil.rmtree(root, ignore_errors=True)
        return result


# ----------------------------------------------------------------------
# The transport drain: no-op tasks through the fleet and the coordinator
# ----------------------------------------------------------------------


def noop_task(spec: Any) -> Dict[str, Any]:
    """The transport drain's task function: a pure function of the spec."""
    return {
        "cell": spec.params["cell"],
        "replicate": spec.replicate,
        "seed_mod": spec.seed % 1_000_003,
    }


class _ClockedNoop:
    """``noop_task`` plus the host time between consecutive calls.

    With one worker draining sequentially, the interval before a call is
    that task's transport cycle: the previous commit, then this claim.
    """

    def __init__(self) -> None:
        self.cycle_ms: Dict[Any, float] = {}
        self.last = clock()

    def __call__(self, spec: Any) -> Dict[str, Any]:
        now = clock()
        self.cycle_ms[(spec.params["cell"], spec.replicate)] = (
            (now - self.last) * 1000.0
        )
        self.last = now
        return noop_task(spec)


class TransportDrain:
    """No-op tasks through one FleetWorker, then one CoordWorker.

    Only the transport layers (``runner.fleet``/``lease``,
    ``runner.coord``/``client``/``wire``) work here.  Their throughput
    swings by a factor of two and more with the host's file-system load
    (measured on a shared 2-core sandbox), far beyond any bound a gate
    could hold, so this is not a workload of its own: ``fault-sweep``'s
    traced run drains it for the per-layer figures and the checks.
    """

    def __init__(self, seed: int, size: Mapping[str, Any]) -> None:
        import repro
        from repro.runner import task_grid

        self.version = repro.__version__
        self.tasks = task_grid(
            "perfbench-noop",
            [{"cell": c} for c in range(size["cells"])],
            size["replications"],
            seed,
        )
        self.expected = {
            spec.key(self.version): noop_task(spec) for spec in self.tasks
        }

    def _serve(self, root: Path) -> Any:
        from repro.runner import CoordClient, CoordServer, submit_tasks

        server = CoordServer(root, tick=0.05)
        server.start()
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = CoordClient(root, timeout=5.0, offline_budget=10.0)
        try:
            submit_tasks(client, self.tasks, version=self.version)
        finally:
            client.close()
        return server, thread

    def _stop(self, server: Any, thread: threading.Thread) -> None:
        from repro.runner import CoordClient

        client = CoordClient(server.root, timeout=5.0, offline_budget=10.0)
        try:
            client.request({"op": "stop"})
        finally:
            client.close()
            thread.join(timeout=30.0)
            server.close()
        if thread.is_alive():
            raise RuntimeError("coordinator thread did not stop")

    def drain(self, tracer: Any, root: Path, result: PassResult) -> None:
        """Drain both transports under ``root``; record into ``result``."""
        from repro.runner import (
            CoordWorker,
            FleetQueue,
            FleetWorker,
            coord_report,
            fleet_report,
        )
        from repro.runner.coord import JOURNAL_NAME
        from repro.runner.wire import FrameDecoder

        with tracer.span("runner.fleet"):
            queue = FleetQueue(root / "fleet")
            queue.submit(self.tasks, version=self.version)
        fleet_clock = _ClockedNoop()
        worker = FleetWorker(
            queue, host="perfbench-fleet", run_fn=fleet_clock,
            poll_interval=0.01,
        )
        with tracer.span("runner.fleet", "runner.fleet.drain_s"):
            fleet_clock.last = clock()
            worker.run()
        with tracer.span("runner.fleet"):
            fleet_keys = [
                entry["key"]
                for host in queue.hosts()
                for entry in _journal_entries(queue.journal_path(host))
                if entry.get("kind") == "outcome"
            ]
            result.fail(checks.check_drain(
                "fleet", self.expected, fleet_keys,
                {o.key: o.metrics for o in fleet_report(queue.root).outcomes},
            ))
            fleet_journal = sum(
                _dir_bytes(queue.journal_path(host)) for host in queue.hosts()
            )

        decoders: List[Any] = []
        original_init = FrameDecoder.__init__

        def counting_init(decoder: Any, *args: Any, **kwargs: Any) -> None:
            original_init(decoder, *args, **kwargs)
            decoders.append(decoder)

        FrameDecoder.__init__ = counting_init
        try:
            with tracer.span("runner.coord"):
                server, thread = self._serve(root / "coord")
            coord_clock = _ClockedNoop()
            try:
                coord = CoordWorker(
                    root / "coord", host="perfbench-coord",
                    run_fn=coord_clock, poll_interval=0.01,
                )
                with tracer.span("runner.coord", "runner.coord.drain_s"):
                    coord_clock.last = clock()
                    coord.run()
            finally:
                with tracer.span("runner.coord"):
                    self._stop(server, thread)
        finally:
            FrameDecoder.__init__ = original_init
        with tracer.span("runner.coord"):
            journal = root / "coord" / JOURNAL_NAME
            coord_keys = [
                entry["key"]
                for entry in _journal_entries(journal)
                if entry.get("kind") == "outcome"
            ]
            result.fail(checks.check_drain(
                "coord", self.expected, coord_keys,
                {o.key: o.metrics for o in coord_report(root / "coord").outcomes},
            ))

        result.tasks += 2 * len(self.tasks)
        result.layer.update({
            "runner.fleet.task_ms": statistics.median(
                fleet_clock.cycle_ms.values()
            ),
            "runner.coord.task_ms": statistics.median(
                coord_clock.cycle_ms.values()
            ),
            "runner.fleet.journal_bytes": fleet_journal,
            "runner.coord.journal_bytes": _dir_bytes(journal),
            "runner.coord.wire_resyncs": sum(d.resyncs for d in decoders),
        })


WORKLOADS = {cls.name: cls for cls in (E3Scalar, FaultSweep)}
