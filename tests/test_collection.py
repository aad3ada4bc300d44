"""Tests for the collection protocol (§4)."""

import random

import pytest

from repro.core import (
    LAMBDA_STAR,
    MU,
    expected_collection_phases,
    expected_collection_slots,
    run_collection,
    theorem_44_constant,
)
from repro.core.collection import build_collection_network
from repro.errors import ConfigurationError
from repro.graphs import (
    balanced_tree,
    caterpillar,
    grid,
    layered_band,
    path,
    random_geometric,
    reference_bfs_tree,
    star,
)


def collect(graph, sources, seed=0, **kwargs):
    tree = reference_bfs_tree(graph, 0)
    return run_collection(graph, tree, sources, seed, **kwargs)


class TestCorrectness:
    @pytest.mark.parametrize(
        "graph_factory",
        [
            lambda: path(6),
            lambda: star(7),
            lambda: grid(3, 3),
            lambda: balanced_tree(2, 3),
            lambda: caterpillar(5, 2),
            lambda: layered_band(3, 3),
            lambda: random_geometric(20, 0.4, random.Random(5)),
        ],
        ids=["path", "star", "grid", "tree", "caterpillar", "band", "rgg"],
    )
    def test_all_messages_reach_root(self, graph_factory):
        graph = graph_factory()
        sources = {n: [f"p{n}a", f"p{n}b"] for n in list(graph.nodes)[1:]}
        result = collect(graph, sources, seed=1)
        expected = sorted(p for v in sources.values() for p in v)
        assert sorted(m.payload for m in result.delivered) == expected

    def test_origin_recorded(self):
        result = collect(path(5), {4: ["hello"]}, seed=0)
        assert result.delivered[0].origin == 4

    def test_root_submission_is_immediate(self):
        graph = path(4)
        tree = reference_bfs_tree(graph, 0)
        result = run_collection(graph, tree, {0: ["self"]}, seed=0)
        assert result.slots == 0
        assert result.delivered[0].payload == "self"

    def test_empty_workload(self):
        result = collect(path(4), {}, seed=0)
        assert result.slots == 0
        assert result.delivered == []

    def test_single_node_network(self):
        graph = path(1)
        tree = reference_bfs_tree(graph, 0)
        result = run_collection(graph, tree, {0: ["x"]}, seed=0)
        assert [m.payload for m in result.delivered] == ["x"]

    def test_unknown_source_rejected(self):
        with pytest.raises(ConfigurationError):
            collect(path(3), {99: ["x"]})

    def test_per_source_fifo_order(self):
        """Messages from one source arrive in submission order."""
        result = collect(path(6), {5: [f"m{i}" for i in range(6)]}, seed=3)
        payloads = [m.payload for m in result.delivered]
        assert payloads == [f"m{i}" for i in range(6)]

    def test_single_level_classes_also_correct(self):
        """Ablation E11: without mod-3 multiplexing, still exactly-once."""
        graph = grid(3, 3)
        sources = {n: ["v"] for n in graph.nodes if n != 0}
        result = collect(graph, sources, seed=4, level_classes=1)
        assert len(result.delivered) == 8

    def test_reactive_mid_run_submission(self):
        graph = path(5)
        tree = reference_bfs_tree(graph, 0)
        network, processes, slots = build_collection_network(
            graph, tree, {4: ["early"]}, seed=9
        )
        root = processes[0]
        network.run(200_000, until=lambda n: len(root.delivered) >= 1)
        processes[2].submit("late")
        network.run(200_000, until=lambda n: len(root.delivered) >= 2)
        assert sorted(m.payload for m in root.delivered) == ["early", "late"]

    def test_deterministic_given_seed(self):
        graph = grid(3, 3)
        sources = {8: ["a"], 5: ["b"]}
        r1 = collect(graph, sources, seed=77)
        r2 = collect(graph, sources, seed=77)
        assert r1.slots == r2.slots
        assert [m.msg_id for m in r1.delivered] == [
            m.msg_id for m in r2.delivered
        ]

    def test_varies_across_seeds(self):
        graph = layered_band(3, 4)
        sources = {n: ["x"] for n in graph.nodes if n >= 8}
        slots = {collect(graph, sources, seed=s).slots for s in range(6)}
        assert len(slots) > 1


class TestPerformanceEnvelope:
    def test_within_theorem_44_bound_path(self):
        """Average over seeds stays under the Thm 4.4 envelope (×3 classes)."""
        graph = path(10)
        tree = reference_bfs_tree(graph, 0)
        k = 6
        sources = {9: ["m"] * k}
        bound = expected_collection_slots(
            k, tree.depth, graph.max_degree(), level_classes=3
        )
        totals = [
            run_collection(graph, tree, sources, seed=s).slots
            for s in range(10)
        ]
        assert sum(totals) / len(totals) <= bound

    def test_within_bound_star(self):
        graph = star(16)
        tree = reference_bfs_tree(graph, 0)
        sources = {n: ["m"] for n in range(1, 16)}
        bound = expected_collection_slots(
            15, tree.depth, graph.max_degree(), level_classes=3
        )
        totals = [
            run_collection(graph, tree, sources, seed=s).slots
            for s in range(10)
        ]
        assert sum(totals) / len(totals) <= bound

    def test_constants(self):
        assert abs(MU - 0.23254) < 1e-4
        assert abs(LAMBDA_STAR - 0.123954) < 1e-5
        assert abs(theorem_44_constant() - 32.27) < 0.01

    def test_phase_bound_formula(self):
        assert expected_collection_phases(0, 0) == 0
        assert (
            abs(expected_collection_phases(10, 5) - 15 / LAMBDA_STAR) < 1e-9
        )

    def test_slot_bound_scaling(self):
        base = expected_collection_slots(10, 5, 8)
        assert expected_collection_slots(10, 5, 8, level_classes=3) == 3 * base
        assert expected_collection_slots(25, 5, 8) > base


class TestDefaultBudget:
    """Both engines default ``max_slots`` to 20× the multiplexed bound."""

    GRAPH = path(10)
    SOURCES = {9: ["m"] * 6}

    def expected(self, level_classes):
        tree = reference_bfs_tree(self.GRAPH, 0)
        bound = expected_collection_slots(
            6, tree.depth, self.GRAPH.max_degree(), level_classes=level_classes
        )
        return max(10_000, int(20 * bound))

    @pytest.mark.parametrize("level_classes", [1, 3])
    def test_scalar_default_budget(self, monkeypatch, level_classes):
        from repro.radio.network import RadioNetwork

        budgets = []

        def record_budget(net, max_slots, until=None, check_every=1):
            budgets.append(max_slots)
            return 0

        monkeypatch.setattr(RadioNetwork, "run", record_budget)
        collect(self.GRAPH, self.SOURCES, level_classes=level_classes)
        assert budgets == [self.expected(level_classes)]

    @pytest.mark.parametrize("level_classes", [1, 3])
    def test_vector_default_budget(self, monkeypatch, level_classes):
        from repro.errors import SimulationTimeout
        from repro.vector import run_collection_batch
        from repro.vector.collection import BatchCollection

        def idle_step(sim):
            sim.slot += 1  # never drains: runs exactly to the budget

        monkeypatch.setattr(BatchCollection, "step", idle_step)
        with pytest.raises(SimulationTimeout) as raised:
            run_collection_batch(
                self.GRAPH,
                reference_bfs_tree(self.GRAPH, 0),
                self.SOURCES,
                seeds=[1],
                level_classes=level_classes,
            )
        assert raised.value.slots_elapsed == self.expected(level_classes)

    def test_three_classes_budget_exceeds_the_floor(self):
        # The cell is sized so the level-class factor is visible: without
        # it the budget would sit on the 10,000-slot floor.
        assert self.expected(1) == 10_000
        assert self.expected(3) > 20_000
