"""Pinned outcomes of the scalar reference engine.

The result cache keys a task by its spec and ``repro.__version__``, not
by the code that ran it.  A change meant to be speed-only that shifts a
single coin stream would therefore keep serving stale cached results
without any test noticing.  These digests pin the engine's outcomes
bit for bit: a registered E3 grid and one seeded point-to-point run.

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
