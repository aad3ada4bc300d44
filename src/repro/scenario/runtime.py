"""Execute one scenario task: the protocol drivers behind the DSL.

Each compiled case is a flat dict of JSON scalars; this module is the
interpreter that reconstructs the topology, arrival process and fault
model from those scalars and drives the named protocol, returning flat
numeric metrics.  Everything is a pure function of the
:class:`~repro.runner.task.TaskSpec` — the contract that lets scenario
tasks ride the cache, the process-pool workers and the fleet backend.

Worker-side resolution: scenario experiment ids carry a ``scenario:``
prefix, which :func:`repro.runner.registry.get_experiment` resolves to
the synthetic definition built by :func:`scenario_experiment`, so a
``(exp_id, spec)`` pair crosses process boundaries by name exactly like
a registered experiment's tasks.

Protocol semantics
------------------
``collection``
    Streaming convergecast: arrivals are injected per slot over the
    horizon, then the pipeline drains (bounded).  Per-message sojourns
    feed P² percentile sketches; with ``arrival = "none"`` the run is
    the classic closed workload instead.  Fault profiles run on the
    self-healing stack (``core/repair``).  ``mobility_epochs > 1``
    re-samples the topology every epoch (seed-derived), modelling
    station movement for the geometric/random families; messages still
    in flight at an epoch boundary are counted as handoff losses.
``p2p``
    Streaming point-to-point: each arrival is addressed to a
    seed-derived random destination; sojourns are measured at the
    destination station.
``broadcast``, ``tdma``, ``spatial-tdma``
    Closed runs: the arrival stream (or the ``messages``-per-source
    workload) is materialized into slot-0 submissions and the protocol
    runs to completion.
``service``, ``saturation``
    Delegated to the open-system service harness
    (:func:`repro.runner.defs.service_metrics` /
    :func:`~repro.runner.defs.sweep_metrics`) — the same cells E19/E20
    run.

Units: ``horizon_phases``, ``start_phase`` and ``end_phase`` count
Decay phases (the §4 clock); a jammer's ``jam_period``/``jam_duty``
count slots (jam windows are sub-phase phenomena).
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple

from repro.core.collection import (
    build_collection_network,
    expected_collection_slots,
)
from repro.errors import ConfigurationError
from repro.graphs import reference_bfs_tree
from repro.graphs.graph import Graph, NodeId
from repro.analysis.sketches import P2Quantile, Welford
from repro.rng import child_rng, derive_seed
from repro.runner.registry import ExperimentDef
from repro.runner.task import TaskSpec
from repro.workloads.arrivals import (
    NEVER,
    ArrivalProcess,
    BernoulliArrivals,
    BurstArrivals,
    PoissonArrivals,
)

#: Sojourn quantiles every latency-measuring driver reports.
SOJOURN_QUANTILES = (0.5, 0.9, 0.99)


# ----------------------------------------------------------------------
# Reconstruction helpers (case scalars -> objects)
# ----------------------------------------------------------------------

def _topology(name: str, seed: int):
    from repro.runner.defs import build_topology

    graph = build_topology(name, random.Random(seed))
    tree = reference_bfs_tree(graph, 0)
    return graph, tree


def _source_nodes(tree, mode: str) -> List[NodeId]:
    if mode == "tail":
        return [max(tree.nodes, key=lambda v: (tree.level[v], v))]
    if mode == "bottom":
        return [n for n in tree.nodes if tree.level[n] == tree.depth]
    if mode == "all":
        return [n for n in tree.nodes if n != tree.root]
    raise ConfigurationError(f"unknown source mode {mode!r}")


def _make_arrivals(
    params: Dict[str, Any],
    sources: List[NodeId],
    phase_length: int,
    seed: int,
) -> Optional[ArrivalProcess]:
    kind = params.get("arrival", "none")
    arrival_seed = derive_seed(seed, "arrivals")
    if kind == "none":
        return None
    if kind == "bernoulli":
        return BernoulliArrivals(
            sources, params["rate"], phase_length, seed=arrival_seed
        )
    if kind == "poisson":
        return PoissonArrivals.per_phase_rate(
            sources, params["rate"], phase_length, seed=arrival_seed
        )
    if kind == "burst":
        return BurstArrivals(
            sources,
            period=params["period"] * phase_length,
            bursts=params["bursts"],
            jitter=params.get("jitter", 0),
            seed=arrival_seed,
        )
    raise ConfigurationError(f"unknown arrival kind {kind!r}")


def _closed_workload(
    params: Dict[str, Any],
    sources: List[NodeId],
    phase_length: int,
    seed: int,
) -> Dict[NodeId, List[Any]]:
    """Slot-0 submissions for the closed protocol kinds."""
    arrivals = _make_arrivals(params, sources, phase_length, seed)
    if arrivals is None:
        k = params.get("messages", 4)
        return {node: [f"m{node}-{i}" for i in range(k)] for node in sources}
    horizon = params["horizon_phases"] * phase_length
    workload: Dict[NodeId, List[Any]] = {}
    for slot in range(horizon):
        for node, payload in arrivals.arrivals_at(slot):
            workload.setdefault(node, []).append(payload)
    return workload


def _make_failures(params: Dict[str, Any], graph: Graph, tree, phase_length: int, seed: int):
    kind = params.get("fault", "none")
    if kind == "none":
        return None
    fault_seed = derive_seed(seed, "faults")
    non_root = [n for n in graph.nodes if n != tree.root]
    if kind == "churn":
        from repro.radio.faults import MarkovChurn

        return MarkovChurn(
            non_root,
            fail_rate=params["fail_rate"],
            recover_rate=params["recover_rate"],
            seed=fault_seed,
        )
    if kind == "fading":
        from repro.radio.faults import GilbertElliott

        return GilbertElliott(
            p_bad=params["p_bad"],
            p_good=params["p_good"],
            loss_good=params.get("loss_good", 0.0),
            loss_bad=params.get("loss_bad", 1.0),
            seed=fault_seed,
        )
    if kind == "outage":
        from repro.radio.faults import RegionOutage

        count = max(1, int(round(params["fraction"] * len(non_root))))
        deepest_first = sorted(
            non_root, key=lambda v: (tree.level[v], v), reverse=True
        )
        return RegionOutage(
            deepest_first[:count],
            start=params.get("start_phase", 0) * phase_length,
            end=params["end_phase"] * phase_length,
        )
    if kind == "jammer":
        from repro.radio.faults import AdversarialJammer

        targets = (
            [n for n in tree.nodes if tree.level[n] == tree.depth]
            if params.get("targets", "all") == "bottom"
            else None
        )
        end_phase = params.get("end_phase")
        return AdversarialJammer(
            period=params["jam_period"],
            duty=params["jam_duty"],
            targets=targets,
            start=params.get("start_phase", 0) * phase_length,
            end=None if end_phase is None else end_phase * phase_length,
        )
    raise ConfigurationError(f"unknown fault kind {kind!r}")


# ----------------------------------------------------------------------
# KPI accumulation shared by the latency-measuring drivers
# ----------------------------------------------------------------------

class FlowAccumulator:
    """Streams per-message sojourns and per-source flow counters."""

    def __init__(self) -> None:
        self.sojourn = Welford()
        self.sketches = {p: P2Quantile(p) for p in SOJOURN_QUANTILES}
        self.submitted_by: Dict[NodeId, int] = {}
        self.delivered_by: Dict[NodeId, int] = {}
        self.submitted = 0
        self.delivered = 0
        self.measured = 0
        self.slots = 0
        self.lost = 0
        self.stats = {
            "transmissions": 0, "deliveries": 0, "collisions": 0,
            "busy_slots": 0, "dropped": 0,
        }

    def note_submitted(self, origin: NodeId) -> None:
        self.submitted += 1
        self.submitted_by[origin] = self.submitted_by.get(origin, 0) + 1

    def note_delivered(
        self, origin: NodeId, sojourn_phases: float, measured: bool
    ) -> None:
        self.delivered += 1
        self.delivered_by[origin] = self.delivered_by.get(origin, 0) + 1
        if measured:
            self.measured += 1
            self.sojourn.add(sojourn_phases)
            for sketch in self.sketches.values():
                sketch.add(sojourn_phases)

    def absorb_stats(self, stats) -> None:
        self.stats["transmissions"] += stats.transmissions
        self.stats["deliveries"] += stats.deliveries
        self.stats["collisions"] += stats.collisions
        self.stats["dropped"] += stats.dropped
        self.stats["busy_slots"] += sum(
            c.busy_slots for c in stats.per_channel.values()
        )

    def metrics(self, phase_length: int) -> Dict[str, Any]:
        phases = self.slots / phase_length if phase_length else 0.0
        out: Dict[str, Any] = {
            "submitted": self.submitted,
            "delivered": self.delivered,
            "lost": self.lost,
            "delivery_ratio": (
                self.delivered / self.submitted if self.submitted else 1.0
            ),
            "slots": self.slots,
            "phases": phases,
            "sojourn_mean_phases": (
                self.sojourn.mean if self.sojourn.count else float("nan")
            ),
            "sojourn_stddev_phases": self.sojourn.stddev,
            "jain_fairness": jain_fairness(
                [self.delivered_by.get(s, 0) for s in self.submitted_by]
            ),
            "utilization": (
                self.stats["busy_slots"] / self.slots if self.slots else 0.0
            ),
            "collision_rate": (
                self.stats["collisions"] / self.stats["transmissions"]
                if self.stats["transmissions"] else 0.0
            ),
            "transmissions": self.stats["transmissions"],
            "collisions": self.stats["collisions"],
            "dropped": self.stats["dropped"],
        }
        for p, sketch in sorted(self.sketches.items()):
            out[f"sojourn_p{int(round(p * 100))}_phases"] = sketch.value
        return out


def jain_fairness(shares: List[float]) -> float:
    """Jain's fairness index over per-flow shares: (Σx)²/(n·Σx²)."""
    if not shares:
        return 1.0
    total = float(sum(shares))
    squares = float(sum(x * x for x in shares))
    if squares == 0.0:
        return 1.0
    return (total * total) / (len(shares) * squares)


# ----------------------------------------------------------------------
# collection (streaming / closed / faulty / mobile)
# ----------------------------------------------------------------------

def _drive_collection_epoch(
    params: Dict[str, Any],
    seed: int,
    acc: FlowAccumulator,
    horizon_phases: int,
) -> int:
    """One epoch of (possibly streaming) collection; returns phase length."""
    classes = params.get("classes", 3)
    graph, tree = _topology(params["topology"], seed)
    sources = _source_nodes(tree, params.get("sources", "tail"))
    failures = None
    fault = params.get("fault", "none")
    if fault != "none":
        from repro.core.repair import build_resilient_collection_network

        # Phase length depends only on Δ and the class count; compute it
        # from a slot structure before wiring the faulty network.
        from repro.core.slots import SlotStructure, decay_budget

        phase_length = SlotStructure(
            decay_budget(graph.max_degree()), classes, True
        ).phase_length
        failures = _make_failures(params, graph, tree, phase_length, seed)
        network, processes, slots, _registry = (
            build_resilient_collection_network(
                graph, tree, {}, seed, failures=failures,
                level_classes=classes,
            )
        )
    else:
        network, processes, slots = build_collection_network(
            graph, tree, {}, seed, level_classes=classes
        )
    network.idle_scheduling = params.get("idle_scheduling", True)
    phase_length = slots.phase_length
    root = processes[tree.root]

    arrivals = _make_arrivals(params, sources, phase_length, seed)
    in_flight: Dict[Tuple[NodeId, int], int] = {}
    warmup_slots = 0
    if arrivals is None:
        for node in sources:
            for i in range(params.get("messages", 4)):
                msg_id = processes[node].submit(f"m{node}-{i}")
                in_flight[msg_id] = 0
                acc.note_submitted(node)
        horizon_slots = 0
    else:
        horizon_slots = horizon_phases * phase_length
        warmup_slots = int(
            horizon_slots * params.get("warmup_fraction", 0.0)
        )

    def pump(now: int) -> None:
        if root.delivered:
            for message in root.delivered:
                submitted_at = in_flight.pop(message.msg_id, None)
                if submitted_at is None:
                    continue
                acc.note_delivered(
                    message.origin,
                    (now - submitted_at) / phase_length,
                    measured=submitted_at >= warmup_slots,
                )
            root.delivered.clear()

    # Only slots where something can happen are stepped: arrivals are
    # injected at the slots the process says may carry a batch, and
    # ``skip_idle`` jumps the clock over the provably empty slots in
    # between (nobody is due, so nothing is sent, heard or delivered).
    # Every counter, and so every metric, matches stepping each slot.
    slot = 0
    next_arrival = (
        arrivals.next_arrival_slot(0) if arrivals is not None else NEVER
    )
    while slot < horizon_slots:
        if slot == next_arrival:
            for node, payload in arrivals.arrivals_at(slot):
                msg_id = processes[node].submit(payload)
                in_flight[msg_id] = slot
                acc.note_submitted(node)
            next_arrival = arrivals.next_arrival_slot(slot + 1)
        network.step()
        pump(network.slot)
        slot = network.skip_idle(min(horizon_slots, next_arrival))
    # Drain: no new arrivals; bounded by what is actually left, because
    # a faulty run may have wedged messages below a dead region (the
    # repair layer freezes buffers at stations it declares partitioned).
    drain_cap = _drain_cap(
        len(in_flight), tree.depth, graph.max_degree(), classes
    )
    drained_at = slot
    progress_at = slot
    while in_flight and slot - drained_at < drain_cap:
        if slot - progress_at >= _STALL_SLOTS:
            break  # nothing delivered for a long window: wedged for good
        before = len(in_flight)
        network.step()
        pump(network.slot)
        if len(in_flight) < before:
            progress_at = slot
        slot = network.skip_idle(
            min(drained_at + drain_cap, progress_at + _STALL_SLOTS)
        )
    acc.lost += len(in_flight)
    acc.slots += network.slot
    acc.absorb_stats(network.stats)
    return phase_length


#: Drain stall window: a drain that has delivered nothing for this many
#: slots is declared wedged (partitioned buffers never revive).
_STALL_SLOTS = 20_000


def _drain_cap(remaining: int, depth: int, max_degree: int, classes: int) -> int:
    """Slot budget to flush ``remaining`` in-flight messages.

    Ten times the Theorem 4.4 expectation for what is left, clamped: the
    floor absorbs fault-repair stalls on tiny backlogs, the ceiling
    keeps a permanently wedged message (a dead cut vertex) from turning
    the drain into an unbounded spin — leftovers count as ``lost``.
    """
    if remaining == 0:
        return 0
    return min(
        200_000,
        max(
            20_000,
            int(10 * expected_collection_slots(
                remaining, depth, max_degree, classes
            )),
        ),
    )


def _collection_task(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    epochs = params.get("mobility_epochs", 1)
    horizon = params.get("horizon_phases", 0)
    acc = FlowAccumulator()
    phase_length = 1
    for epoch in range(epochs):
        epoch_seed = seed if epochs == 1 else derive_seed(seed, "epoch", epoch)
        share = horizon // epochs + (1 if epoch < horizon % epochs else 0)
        phase_length = _drive_collection_epoch(params, epoch_seed, acc, share)
    metrics = acc.metrics(phase_length)
    metrics["epochs"] = epochs
    return metrics


# ----------------------------------------------------------------------
# p2p (streaming / closed)
# ----------------------------------------------------------------------

def _p2p_task(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    from repro.core.point_to_point import build_p2p_network, p2p_reference_slots

    graph, tree = _topology(params["topology"], seed)
    tree.assign_dfs_intervals()
    sources = _source_nodes(tree, params.get("sources", "tail"))
    network, processes, slots = build_p2p_network(
        graph, tree, seed, level_classes=params.get("classes", 3)
    )
    network.idle_scheduling = params.get("idle_scheduling", True)
    phase_length = slots.phase_length
    nodes = sorted(tree.nodes)
    dest_rng = child_rng(seed, "p2p-dest")

    acc = FlowAccumulator()
    in_flight: Dict[Tuple[NodeId, int], int] = {}
    seen: Dict[NodeId, int] = {node: 0 for node in nodes}

    def submit(origin: NodeId, payload: Any, slot: int) -> None:
        dest = origin
        while dest == origin:
            dest = nodes[dest_rng.randrange(len(nodes))]
        msg_id = processes[origin].submit(tree.dfs_number[dest], payload)
        in_flight[msg_id] = slot
        acc.note_submitted(origin)

    arrivals = _make_arrivals(params, sources, phase_length, seed)
    warmup_slots = 0
    if arrivals is None:
        for node in sources:
            for i in range(params.get("messages", 4)):
                submit(node, f"m{node}-{i}", 0)
        horizon_slots = 0
    else:
        horizon_slots = params["horizon_phases"] * phase_length
        warmup_slots = int(
            horizon_slots * params.get("warmup_fraction", 0.0)
        )

    def pump(now: int) -> None:
        for node in nodes:
            delivered = processes[node].delivered
            while seen[node] < len(delivered):
                message = delivered[seen[node]]
                seen[node] += 1
                submitted_at = in_flight.pop(message.msg_id, None)
                if submitted_at is None:
                    continue
                acc.note_delivered(
                    message.origin,
                    (now - submitted_at) / phase_length,
                    measured=submitted_at >= warmup_slots,
                )

    slot = 0
    while slot < horizon_slots:
        for node, payload in arrivals.arrivals_at(slot):
            submit(node, payload, slot)
        network.step()
        pump(network.slot)
        slot += 1
    drain_cap = _drain_cap(
        len(in_flight), tree.depth, graph.max_degree(),
        params.get("classes", 3),
    )
    drained_at = slot
    progress_at = slot
    while in_flight and slot - drained_at < drain_cap:
        if slot - progress_at >= _STALL_SLOTS:
            break
        before = len(in_flight)
        network.step()
        pump(network.slot)
        if len(in_flight) < before:
            progress_at = slot
        slot += 1
    acc.lost += len(in_flight)
    acc.slots += network.slot
    acc.absorb_stats(network.stats)
    return acc.metrics(phase_length)


# ----------------------------------------------------------------------
# closed kinds: broadcast and the deterministic baselines
# ----------------------------------------------------------------------

def _broadcast_task(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    from repro.core.broadcast import run_broadcast

    graph, tree = _topology(params["topology"], seed)
    sources = _source_nodes(tree, params.get("sources", "tail"))
    from repro.core.slots import SlotStructure, decay_budget

    phase_length = SlotStructure(
        decay_budget(graph.max_degree()),
        params.get("classes", 3),
        True,
    ).phase_length
    workload = _closed_workload(params, sources, phase_length, seed)
    result = run_broadcast(
        graph, tree, workload, seed,
        level_classes=params.get("classes", 3),
    )
    busy = sum(c.busy_slots for c in result.stats.per_channel.values())
    return {
        "messages": result.messages,
        "slots": result.slots,
        "superphases": result.superphases,
        "delivered_everywhere": result.delivered_everywhere,
        "resends": result.resends,
        "utilization": busy / result.slots if result.slots else 0.0,
        "collision_rate": (
            result.stats.collisions / result.stats.transmissions
            if result.stats.transmissions else 0.0
        ),
        "transmissions": result.stats.transmissions,
        "collisions": result.stats.collisions,
    }


def _tdma_task(
    params: Dict[str, Any], seed: int, spatial: bool
) -> Dict[str, Any]:
    graph, tree = _topology(params["topology"], seed)
    sources = _source_nodes(tree, params.get("sources", "tail"))
    from repro.core.slots import SlotStructure, decay_budget

    phase_length = SlotStructure(
        decay_budget(graph.max_degree()), 3, True
    ).phase_length
    workload = _closed_workload(params, sources, phase_length, seed)
    if not workload:
        workload = {sources[0]: ["m0"]}
    if spatial:
        from repro.baselines.spatial_tdma import run_spatial_tdma_collection

        result = run_spatial_tdma_collection(graph, tree, workload)
        frame_length = result.frame_length
    else:
        from repro.baselines.tdma import run_tdma_collection

        result = run_tdma_collection(graph, tree, workload)
        frame_length = graph.num_nodes
    submitted = sum(len(v) for v in workload.values())
    busy = sum(c.busy_slots for c in result.stats.per_channel.values())
    return {
        "submitted": submitted,
        "delivered": len(result.delivered),
        "delivery_ratio": (
            len(result.delivered) / submitted if submitted else 1.0
        ),
        "slots": result.slots,
        "frames": result.frames,
        "frame_length": frame_length,
        "utilization": busy / result.slots if result.slots else 0.0,
        "collision_rate": 0.0,  # TDMA is collision-free by construction
        "transmissions": result.stats.transmissions,
    }


# ----------------------------------------------------------------------
# open-system kinds (delegated to the service harness)
# ----------------------------------------------------------------------

def _service_task(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    from repro.runner.defs import service_metrics

    return service_metrics(
        params["topology"], params.get("sources", "tail"),
        params["arrival"], params["rate"], params["horizon_phases"], seed,
    )


def _saturation_task(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    from repro.runner.defs import sweep_metrics

    return sweep_metrics(
        params["topology"], params.get("sources", "tail"),
        params["points"], params["horizon_phases"], seed,
    )


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------

def run_scenario_task(spec: TaskSpec) -> Dict[str, Any]:
    """Execute one scenario task (worker entry point, pure in ``spec``)."""
    params = spec.params
    kind = params.get("protocol")
    if kind == "collection":
        return _collection_task(params, spec.seed)
    if kind == "p2p":
        return _p2p_task(params, spec.seed)
    if kind == "broadcast":
        return _broadcast_task(params, spec.seed)
    if kind == "tdma":
        return _tdma_task(params, spec.seed, spatial=False)
    if kind == "spatial-tdma":
        return _tdma_task(params, spec.seed, spatial=True)
    if kind == "service":
        return _service_task(params, spec.seed)
    if kind == "saturation":
        return _saturation_task(params, spec.seed)
    raise ConfigurationError(
        f"task {spec.label()} has no protocol kind (corrupt case?)"
    )


#: Scalar-only diagnostics the lockstep engine cannot observe (it has
#: no per-channel stats object); the batch path reports the honest
#: subset rather than zeros masquerading as measurements.
_SCALAR_ONLY_METRICS = (
    "utilization", "collision_rate", "transmissions", "collisions",
    "dropped",
)


def run_scenario_batch(specs: List[TaskSpec]) -> List[Dict[str, Any]]:
    """Execute same-case scenario tasks in one lockstep batch.

    The vector-engine entry point for scenario experiments: every task
    of a (sub-)batch shares one compiled case, so the whole group runs
    as one :func:`~repro.vector.collection.run_collection_batch` call —
    all replications advancing in NumPy lockstep.  Only the shape the
    lockstep engine simulates is accepted (closed, fault-free, single-
    epoch collection); the spec cross-field checks reject anything else
    at validation time, so the guard here is a corruption tripwire, not
    a user-facing error path.

    Seed-dependent topology families realize a different graph per
    seed, so tasks are bucketed by the graph they realize (exactly as
    :func:`repro.runner.defs.collection_metrics_batch` does) and each
    bucket runs as one batch.  Metrics mirror the scalar closed-run
    path — same submission order, sojourns in phases from the delivery
    slot — except the per-channel diagnostics the lockstep engine does
    not observe, which are omitted rather than fabricated.
    """
    from repro.vector.collection import run_collection_batch

    results: List[Dict[str, Any]] = [{} for _ in specs]
    grouped: Dict[tuple, List[int]] = {}
    for index, spec in enumerate(specs):
        params = spec.params
        if (
            params.get("protocol") != "collection"
            or params.get("fault", "none") != "none"
            or params.get("arrival", "none") != "none"
            or params.get("mobility_epochs", 1) > 1
        ):
            raise ConfigurationError(
                f"task {spec.label()} is not a closed fault-free "
                "collection case; the vector engine cannot batch it "
                "(the spec validator should have rejected this scenario)"
            )
        # The engine knobs join the cell key: reception/backend are
        # bit-identical but one batch call uses one kernel set, and the
        # mask changes coin-stream semantics outright.
        cell = (
            params["topology"], params.get("sources", "tail"),
            params.get("messages", 4), params.get("classes", 3),
            spec.reception, spec.backend, spec.mask,
        )
        grouped.setdefault(cell, []).append(index)

    for cell, indices in grouped.items():
        topology, source_mode, messages, classes = cell[:4]
        reception, backend, mask = cell[4:]
        buckets: Dict[Graph, List[int]] = {}
        trees: Dict[Graph, Any] = {}
        for index in indices:
            graph, tree = _topology(topology, specs[index].seed)
            buckets.setdefault(graph, []).append(index)
            trees.setdefault(graph, tree)
        for graph, positions in buckets.items():
            tree = trees[graph]
            sources = _source_nodes(tree, source_mode)
            workload = {
                node: [f"m{node}-{i}" for i in range(messages)]
                for node in sources
            }
            batch = run_collection_batch(
                graph,
                tree,
                workload,
                [specs[index].seed for index in positions],
                level_classes=classes,
                reception=reception,
                backend=backend,
                mask=mask,
            )
            simulation = batch.simulation
            phase_length = simulation.phase_length
            origins = simulation.message_origins
            delivered = simulation.delivered_slots()
            for b, index in enumerate(positions):
                acc = FlowAccumulator()
                # Same submission order as the scalar closed path, so
                # jain_fairness iterates flows identically.
                for node in sources:
                    for _ in range(messages):
                        acc.note_submitted(node)
                for slot, gid in delivered[b]:
                    # Closed runs have no warmup: every sojourn counts.
                    acc.note_delivered(
                        origins[gid], slot / phase_length, measured=True
                    )
                acc.slots = int(batch.completion_slots[b])
                metrics = acc.metrics(phase_length)
                for name in _SCALAR_ONLY_METRICS:
                    metrics.pop(name, None)
                metrics["epochs"] = 1
                results[index] = metrics
    return results


def _no_grid(seed: int, replications: int, **options: Any):
    raise ConfigurationError(
        "scenario experiments are compiled from spec files; use "
        "'python -m repro scenario <file>' (the registry cannot expand "
        "their grids)"
    )


def scenario_experiment(exp_id: str) -> ExperimentDef:
    """Synthetic :class:`ExperimentDef` for a ``scenario:`` experiment id.

    Built on demand by the registry so worker processes (and the fleet
    backend) resolve scenario tasks by name, with the task function
    shared across every scenario — the case carries all semantics.
    """
    parts = exp_id.split(":")
    name = parts[1] if len(parts) > 1 and parts[1] else exp_id
    return ExperimentDef(
        exp_id=exp_id,
        title=f"declarative scenario {name!r}",
        make_tasks=_no_grid,
        run_task=run_scenario_task,
        run_batch=run_scenario_batch,
        summary_metrics=(),
        default_timeout=600.0,
    )
