"""E0 — infrastructure: raw simulator throughput.

Not a paper claim — a capacity statement for the reproduction itself:
how many slot·station updates per second the engine sustains, and how
cost scales with network size and density.  This is what bounds the
experiment sizes everywhere else in the harness.
"""

import json
import random
import time

from conftest import ROOT_SEED, bench_results_dir

from repro.analysis import print_table
from repro.core import build_collection_network, run_collection
from repro.graphs import (
    balanced_tree,
    gnp_connected,
    grid,
    path,
    reference_bfs_tree,
)
from repro.radio import RadioNetwork, SilentProcess


def idle_slot_rate(graph, slots=2_000):
    """Slots/second with all-silent stations (pure engine overhead)."""
    network = RadioNetwork(graph)
    network.attach_all(SilentProcess)
    start = time.perf_counter()
    network.run(slots)
    elapsed = time.perf_counter() - start
    return slots / elapsed


def test_e0_engine_throughput(benchmark):
    rows = []
    for name, graph in [
        ("path-64", path(64)),
        ("grid-16x16", grid(16, 16)),
        ("gnp-128", gnp_connected(128, 0.08, random.Random(1))),
    ]:
        rate = idle_slot_rate(graph)
        rows.append(
            [
                name,
                graph.num_nodes,
                graph.num_edges,
                rate,
                rate * graph.num_nodes,
            ]
        )
    print_table(
        ["topology", "n", "edges", "slots/s", "station-slots/s"],
        rows,
        title="E0: engine throughput (idle stations; protocol work extra)",
    )
    # A laptop-scale floor: the harness assumes ~10^4 slots/s at n≈100.
    assert all(row[3] > 2_000 for row in rows)

    # The benchmark proper: a busy protocol workload (collection).
    graph = grid(6, 6)
    tree = reference_bfs_tree(graph, 0)
    sources = {n: ["m"] for n in list(graph.nodes)[1:13]}
    benchmark(
        lambda: run_collection(graph, tree, sources, seed=3).slots
    )


def test_e0_neighbor_cache_guard(benchmark):
    """Guard: neighbor tuples are derived once per topology, not per slot.

    The reception loop iterates per-node neighbor tuples millions of
    times; they must come from the cache built at topology-assignment
    time.  The identity checks pin the contract (same cache object
    across slots; rebuilt exactly when ``graph`` is reassigned) and the
    benchmark tracks the cached hot path so a regression that re-derives
    adjacency per slot shows up as a step change.
    """
    graph = grid(12, 12)
    network = RadioNetwork(graph)
    network.attach_all(SilentProcess)
    cached = network._neighbors
    network.run(200)
    assert network._neighbors is cached, "cache rebuilt inside slot loop"
    network.graph = grid(12, 12)
    assert network._neighbors is not cached, (
        "topology change must rebuild the neighbor cache"
    )

    bench_network = RadioNetwork(grid(12, 12))
    bench_network.attach_all(SilentProcess)
    benchmark(lambda: bench_network.run(200))


#: Idle-scheduling bench cell: a level-multiplexed collection on a
#: depth-10 binary tree with n = 2047 stations, k = 32 messages at the
#: deepest leaves — level classes (§2.2) plus mostly-empty buffers make
#: almost every station declarably silent in almost every slot.
IDLE_DEPTH = 10
IDLE_K = 32
IDLE_WINDOW = 2_000
IDLE_MIN_SPEEDUP = 2.0


def _idle_cell():
    graph = balanced_tree(2, IDLE_DEPTH)
    tree = reference_bfs_tree(graph, 0)
    deepest = sorted(
        v for v in tree.nodes if tree.level[v] == IDLE_DEPTH
    )[:IDLE_K]
    sources = {v: [f"m{v}"] for v in deepest}
    return graph, tree, sources


def _collection_fingerprint(network, processes, root):
    """Everything observable about a collection run's protocol outcome."""
    stats = network.stats.channel(0)
    return {
        "delivered": [m.msg_id for m in processes[root].delivered],
        "backlogs": [p.lane.backlog for p in processes.values()],
        "data_tx": sum(p.lane.data_transmissions for p in processes.values()),
        "ack_tx": sum(p.lane.ack_transmissions for p in processes.values()),
        "transmissions": stats.transmissions,
        "deliveries": stats.deliveries,
        "collisions": stats.collisions,
    }


def test_e0_idle_scheduling_speedup():
    """The quiet_until fast path: >= 2x slots/sec, identical outcomes.

    Both runs use the same seed and execute the same fixed slot window;
    the only difference is ``idle_scheduling``.  The fingerprints must
    agree exactly — the fast path skips only provable no-op callbacks,
    so every transmission, delivery, collision and coin flip is
    unchanged.
    """
    graph, tree, sources = _idle_cell()
    runs = {}
    for idle in (False, True):
        network, processes, _ = build_collection_network(
            graph, tree, sources, seed=ROOT_SEED
        )
        network.idle_scheduling = idle
        started = time.perf_counter()
        network.run(IDLE_WINDOW)
        seconds = time.perf_counter() - started
        runs[idle] = (
            seconds,
            _collection_fingerprint(network, processes, tree.root),
        )

    legacy_seconds, legacy_print = runs[False]
    idle_seconds, idle_print = runs[True]
    assert idle_print == legacy_print, (
        "idle scheduling changed protocol outcomes"
    )
    # The workload must be real: traffic flowed and drained to the root.
    assert idle_print["deliveries"] > 0
    assert len(idle_print["delivered"]) > 0

    legacy_rate = IDLE_WINDOW / legacy_seconds
    idle_rate = IDLE_WINDOW / idle_seconds
    speedup = idle_rate / legacy_rate
    summary = {
        "experiment": "IDLE",
        "title": "idle-aware scalar slot loop vs poll-every-process",
        "cell": {
            "topology": f"btree-2x{IDLE_DEPTH}",
            "stations": graph.num_nodes,
            "k": IDLE_K,
            "window_slots": IDLE_WINDOW,
            "seed": ROOT_SEED,
        },
        "legacy": {
            "seconds": round(legacy_seconds, 3),
            "slots_per_sec": round(legacy_rate, 1),
        },
        "idle": {
            "seconds": round(idle_seconds, 3),
            "slots_per_sec": round(idle_rate, 1),
        },
        "speedup": round(speedup, 2),
        "min_speedup": IDLE_MIN_SPEEDUP,
    }
    out = bench_results_dir() / "BENCH_IDLE.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=2) + "\n")
    print(
        f"\nE0-idle: legacy {legacy_rate:.0f} slots/s, idle-aware "
        f"{idle_rate:.0f} slots/s, speedup {speedup:.1f}x -> {out}"
    )
    assert speedup >= IDLE_MIN_SPEEDUP, (
        f"idle-aware loop only {speedup:.1f}x faster at n="
        f"{graph.num_nodes} (floor {IDLE_MIN_SPEEDUP}x)"
    )


#: Idle-under-faults bench cell: self-healing collection on a depth-8
#: binary tree (n = 511) under churn composed with a duty-cycled
#: jammer.  Crashes and jamming change who is alive or who hears what,
#: not which slots a station may act in, so the fast path must keep
#: its win here too.
IDLE_FAULTS_DEPTH = 8
IDLE_FAULTS_K = 32
IDLE_FAULTS_WINDOW = 2_000
IDLE_FAULTS_MIN_SPEEDUP = 2.0


def _idle_faults_model(graph, tree):
    from repro.radio.failures import (
        AdversarialJammer,
        ComposedFailures,
        MarkovChurn,
    )

    return ComposedFailures(
        [
            MarkovChurn(
                [v for v in graph.nodes if v != tree.root],
                fail_rate=0.0005,
                recover_rate=0.05,
                seed=ROOT_SEED,
            ),
            AdversarialJammer(period=40, duty=6, start=200),
        ]
    )


def _resilient_fingerprint(network, processes, root, model):
    """Collection fingerprint plus the repair layer's and the faults'."""
    fingerprint = _collection_fingerprint(network, processes, root)
    fingerprint.update(
        stats=network.stats.as_dict(),
        repairs=[event for p in processes.values() for event in p.repairs],
        partitioned=sorted(v for v, p in processes.items() if p.partitioned),
        churn=model.models[0].churn_events(),
    )
    return fingerprint


def test_e0_idle_scheduling_under_faults():
    """The fast path with a failure model attached: same outcomes, faster.

    Both runs execute the same fixed window of resilient collection
    under the same seeded churn and jammer; only ``idle_scheduling``
    differs.  The fingerprints, ``down_node_slots`` included, must
    agree exactly.
    """
    from repro.core.repair import build_resilient_collection_network

    graph = balanced_tree(2, IDLE_FAULTS_DEPTH)
    tree = reference_bfs_tree(graph, 0)
    deepest = sorted(
        v for v in tree.nodes if tree.level[v] == IDLE_FAULTS_DEPTH
    )[:IDLE_FAULTS_K]
    sources = {v: [f"m{v}"] for v in deepest}
    runs = {}
    for idle in (False, True):
        model = _idle_faults_model(graph, tree)
        network, processes, _, _ = build_resilient_collection_network(
            graph, tree, sources, seed=ROOT_SEED, failures=model
        )
        network.idle_scheduling = idle
        started = time.perf_counter()
        network.run(IDLE_FAULTS_WINDOW)
        seconds = time.perf_counter() - started
        runs[idle] = (
            seconds,
            _resilient_fingerprint(network, processes, tree.root, model),
        )

    legacy_seconds, legacy_print = runs[False]
    idle_seconds, idle_print = runs[True]
    assert idle_print == legacy_print, (
        "idle scheduling changed outcomes under a failure model"
    )
    # The faults must be real: stations went down, the jammer dropped
    # deliveries, and traffic still reached the root.
    assert idle_print["stats"]["down_node_slots"] > 0
    assert idle_print["stats"]["dropped"] > 0
    assert len(idle_print["delivered"]) > 0

    legacy_rate = IDLE_FAULTS_WINDOW / legacy_seconds
    idle_rate = IDLE_FAULTS_WINDOW / idle_seconds
    speedup = idle_rate / legacy_rate
    summary = {
        "experiment": "IDLE_FAULTS",
        "title": "idle-aware slot loop vs poll-every-process, under faults",
        "cell": {
            "topology": f"btree-2x{IDLE_FAULTS_DEPTH}",
            "stations": graph.num_nodes,
            "k": IDLE_FAULTS_K,
            "window_slots": IDLE_FAULTS_WINDOW,
            "faults": "churn(0.0005, 0.05) + jammer(40, 6)",
            "seed": ROOT_SEED,
        },
        "legacy": {
            "seconds": round(legacy_seconds, 3),
            "slots_per_sec": round(legacy_rate, 1),
        },
        "idle": {
            "seconds": round(idle_seconds, 3),
            "slots_per_sec": round(idle_rate, 1),
        },
        "down_node_slots": idle_print["stats"]["down_node_slots"],
        "speedup": round(speedup, 2),
        "min_speedup": IDLE_FAULTS_MIN_SPEEDUP,
    }
    out = bench_results_dir() / "BENCH_IDLE_FAULTS.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=2) + "\n")
    print(
        f"\nE0-idle-faults: legacy {legacy_rate:.0f} slots/s, idle-aware "
        f"{idle_rate:.0f} slots/s, speedup {speedup:.1f}x -> {out}"
    )
    assert speedup >= IDLE_FAULTS_MIN_SPEEDUP, (
        f"idle-aware loop only {speedup:.1f}x faster under faults at n="
        f"{graph.num_nodes} (floor {IDLE_FAULTS_MIN_SPEEDUP}x)"
    )


#: Idle-scenario bench cell: streaming collection under churn, run end
#: to end through the scenario driver — arrivals injected only at the
#: slots that may carry them, empty stretches jumped with
#: ``RadioNetwork.skip_idle``.  Eight replications of a band short
#: enough that no message wedges (a wedge would make the 20 000-slot
#: drain stall, which the jump makes free, dominate the ratio).
IDLE_SCENARIO_SPEC = {
    "scenario": {
        "name": "bench-idle-scenario",
        "title": "streaming collection under churn",
    },
    "topology": {"name": "band-4x4"},
    "arrivals": {"kind": "bernoulli", "rate": 0.04, "sources": "all"},
    "faults": {"kind": "churn", "fail_rate": 0.0002, "recover_rate": 0.5},
    "protocol": {"kind": "collection"},
    "run": {"seed": ROOT_SEED, "replications": 8, "horizon_phases": 100},
}
IDLE_SCENARIO_MIN_SPEEDUP = 2.0


def test_e0_idle_scenario_driver():
    """The scenario driver with the fast path on vs off: same metrics.

    Each compiled task runs twice with the same seed; only the case's
    ``idle_scheduling`` differs, which switches both the engine's wake
    heap and the driver's empty-slot jumps.
    """
    import dataclasses

    from repro.scenario import compile_scenario, run_scenario_task
    from repro.scenario.spec import validate_scenario

    tasks = compile_scenario(validate_scenario(IDLE_SCENARIO_SPEC)).tasks
    legacy_tasks = [
        dataclasses.replace(
            task,
            case=tuple(
                sorted(dict(task.case, idle_scheduling=False).items())
            ),
        )
        for task in tasks
    ]
    runs = {}
    for idle, batch in ((False, legacy_tasks), (True, tasks)):
        started = time.perf_counter()
        metrics = [run_scenario_task(task) for task in batch]
        runs[idle] = (time.perf_counter() - started, metrics)

    legacy_seconds, legacy_metrics = runs[False]
    idle_seconds, idle_metrics = runs[True]
    assert repr(idle_metrics) == repr(legacy_metrics), (
        "the idle-aware scenario driver changed outcomes"
    )
    # The cell must be real: traffic flowed, and none of it wedged.
    assert all(m["delivered"] > 0 for m in idle_metrics)
    assert sum(m["lost"] for m in idle_metrics) == 0

    slots = sum(m["slots"] for m in idle_metrics)
    speedup = legacy_seconds / idle_seconds
    summary = {
        "experiment": "IDLE_SCENARIO",
        "title": "idle-aware scenario driver vs poll-every-slot loop",
        "cell": {
            "topology": IDLE_SCENARIO_SPEC["topology"]["name"],
            "arrivals": "bernoulli(0.04)",
            "faults": "churn(0.0002, 0.5)",
            "horizon_phases": IDLE_SCENARIO_SPEC["run"]["horizon_phases"],
            "tasks": len(tasks),
            "slots": slots,
            "seed": ROOT_SEED,
        },
        "legacy": {
            "seconds": round(legacy_seconds, 3),
            "slots_per_sec": round(slots / legacy_seconds, 1),
        },
        "idle": {
            "seconds": round(idle_seconds, 3),
            "slots_per_sec": round(slots / idle_seconds, 1),
        },
        "speedup": round(speedup, 2),
        "min_speedup": IDLE_SCENARIO_MIN_SPEEDUP,
    }
    out = bench_results_dir() / "BENCH_IDLE_SCENARIO.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=2) + "\n")
    print(
        f"\nE0-idle-scenario: legacy {legacy_seconds:.3f} s, idle-aware "
        f"{idle_seconds:.3f} s over {slots} slots, speedup "
        f"{speedup:.1f}x -> {out}"
    )
    assert speedup >= IDLE_SCENARIO_MIN_SPEEDUP, (
        f"idle-aware scenario driver only {speedup:.1f}x faster "
        f"(floor {IDLE_SCENARIO_MIN_SPEEDUP}x)"
    )
