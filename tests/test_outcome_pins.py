"""Pinned outcomes of the scalar reference engine.

The result cache keys a task by its spec and ``repro.__version__``, not
by the code that ran it.  A change meant to be speed-only that shifts a
single coin stream would therefore keep serving stale cached results
without any test noticing.  These digests pin the engine's outcomes
bit for bit: a registered E3 grid, one seeded point-to-point run, a
jammer/churn scenario grid and one self-healing collection behind a
partitioning outage.

A change that alters outcomes on purpose must update the digests here
(and bump the package version, so old cache entries stop matching).
"""

import hashlib
import json

from repro.core import run_point_to_point
from repro.graphs import layered_band, reference_bfs_tree
from repro.runner import run_experiment

#: sha256 of the sorted ``(task key, metrics)`` rows of
#: ``run_experiment("E3", quick=True, replications=3, seed=7)`` on the
#: scalar engine.  Keys are computed under the fixed version label
#: below, so a version bump alone does not move the digest.
E3_DIGEST = "09c88a8fd9fb3edba0aa88ba7ada6c8fdea6163dc36a50826fa2c6750fff0e82"
#: sha256 of the point-to-point run's slots, deliveries and stats.
P2P_DIGEST = "f68edd4f07f9d5f1a00dc63dca6ae2b29224048159a75253914312b823b7f8b8"

PIN_VERSION = "outcome-pin"


def _digest(value) -> str:
    payload = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def test_e3_scalar_outcomes_are_pinned():
    report = run_experiment(
        "E3", quick=True, replications=3, seed=7, engine="scalar", workers=0
    )
    assert not report.quarantined
    rows = sorted(
        [outcome.spec.key(PIN_VERSION), outcome.metrics]
        for outcome in report.outcomes
    )
    assert len(rows) == 6
    assert _digest(rows) == E3_DIGEST


def test_point_to_point_outcome_is_pinned():
    graph = layered_band(5, 3)
    tree = reference_bfs_tree(graph, 0)
    tree.assign_dfs_intervals()
    nodes = sorted(graph.nodes)
    batch = [(nodes[i], nodes[-1 - i], f"m{i}") for i in range(6)]
    result = run_point_to_point(graph, tree, batch, seed=5)
    fingerprint = {
        "slots": result.slots,
        "delivered": sorted(
            [node, [[list(m.msg_id), m.payload] for m in messages]]
            for node, messages in result.delivered.items()
        ),
        "stats": result.stats.as_dict(),
    }
    assert result.messages_delivered == len(batch)
    assert _digest(fingerprint) == P2P_DIGEST


# ----------------------------------------------------------------------
# Faulty outcomes: the engine under failure models
# ----------------------------------------------------------------------

#: sha256 of the sorted ``(task key, metrics)`` rows of the band-3x3
#: cells of the jammer/churn sweep below, each task run inline through
#: ``run_scenario_task``.
FAULT_SWEEP_DIGEST = "51caafb20108b38b9569211ac19f357c42fd682eef30ce9b56fc43cb46cbdafb"
#: sha256 of one self-healing collection run behind a permanent subtree
#: outage: slots, delivered ids, stats, repairs and partition verdicts.
PARTITION_DIGEST = "da094798302f35f6ba59fa4c6f078309e7b64d64cb2d8cd676cfb886519b3950"

#: The benchmark's jammer/churn collection scenario, restricted to its
#: smallest topology (a copy, so this pin does not depend on the
#: benchmark's code).
FAULT_SWEEP_SPEC = {
    "scenario": {
        "name": "pinned-faults",
        "title": "collection under a jammer and under churn",
    },
    "topology": {"name": ["band-3x3"]},
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
    "run": {"seed": 1, "replications": 2, "horizon_phases": 24},
}


def test_fault_sweep_outcomes_are_pinned():
    from repro.scenario import compile_scenario, run_scenario_task
    from repro.scenario.spec import validate_scenario

    compiled = compile_scenario(validate_scenario(FAULT_SWEEP_SPEC))
    faults = {dict(task.case)["fault"] for task in compiled.tasks}
    assert faults == {"jammer", "churn"}
    rows = sorted(
        [task.key(PIN_VERSION), run_scenario_task(task)]
        for task in compiled.tasks
    )
    assert sum(metrics["dropped"] for _, metrics in rows) > 0
    assert _digest(rows) == FAULT_SWEEP_DIGEST


def test_partitioned_resilient_collection_is_pinned():
    from repro.core.repair import run_resilient_collection
    from repro.graphs import grid
    from repro.radio.faults import subtree_outage

    graph = grid(4, 4)
    tree = reference_bfs_tree(graph, 0)
    sources = {v: [f"m{v}"] for v in graph.nodes if tree.level[v] >= 2}
    result = run_resilient_collection(
        graph,
        tree,
        sources,
        seed=11,
        failures=subtree_outage(tree, 7, start=30),
        down_grace_slots=300,
    )
    fingerprint = {
        "slots": result.slots,
        "delivered": sorted(list(m.msg_id) for m in result.delivered),
        "stats": result.stats.as_dict(),
        "repairs": [
            [e.slot, e.node, e.old_parent, e.new_parent, e.new_level]
            for e in result.repairs
        ],
        "partitioned": list(result.declared_partitioned),
        "timed_out": result.timed_out,
    }
    assert result.partition_detected and result.repairs
    assert not result.timed_out
    assert _digest(fingerprint) == PARTITION_DIGEST
