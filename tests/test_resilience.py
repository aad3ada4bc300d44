"""Tests for the hardened transport and self-healing collection stack:
retry budgets (:class:`RetryPolicy`), the ack-timeout watchdog, parent
re-attachment, partition detection, and the resilience harness."""

import pytest

from repro.core import (
    RepairPolicy,
    RetryPolicy,
    run_collection,
    run_resilient_collection,
)
from repro.core.repair import NeighborRegistry, build_resilient_collection_network
from repro.errors import ConfigurationError
from repro.graphs import Graph, layered_band, path, reference_bfs_tree
from repro.radio.faults import MarkovChurn, RegionOutage


def diamond():
    """Node 3 has two routes to the root: via 1 (its BFS parent) or 2."""
    graph = Graph.from_edges([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
    tree = reference_bfs_tree(graph, 0)
    return graph, tree


class TestRetryPolicy:
    def test_backoff_doubles_up_to_cap(self):
        policy = RetryPolicy(max_attempts=None, backoff_cap=4)
        assert [policy.backoff_phases(k) for k in (1, 2, 3, 4, 5)] == [
            0,
            1,
            3,
            4,
            4,
        ]

    def test_zero_cap_means_no_backoff(self):
        policy = RetryPolicy(backoff_cap=0)
        assert policy.backoff_phases(5) == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_cap=-1)


class TestFailureFreeParity:
    def test_full_delivery_no_repairs(self):
        graph, tree = diamond()
        result = run_resilient_collection(
            graph, tree, {4: ["a", "b"], 2: ["c"]}, seed=3
        )
        assert result.messages_delivered == result.expected == 3
        assert result.delivery_ratio == 1.0
        assert result.repairs == []
        assert not result.partition_detected
        assert not result.timed_out

    def test_matches_plain_collection_payloads(self):
        graph = layered_band(4, 3)
        tree = reference_bfs_tree(graph, 0)
        deepest = max(tree.nodes, key=lambda v: (tree.level[v], v))
        sources = {deepest: ["x", "y", "z"]}
        plain = run_collection(graph, tree, sources, seed=9)
        hard = run_resilient_collection(graph, tree, sources, seed=9)
        assert {m.payload for m in plain.delivered} == {
            m.payload for m in hard.delivered
        }

    def test_exactly_once_root_delivery(self):
        graph, tree = diamond()
        result = run_resilient_collection(
            graph, tree, {4: [f"p{i}" for i in range(5)]}, seed=1
        )
        msg_ids = [m.msg_id for m in result.delivered]
        assert len(msg_ids) == len(set(msg_ids)) == 5


class TestSelfHealing:
    def test_reattach_after_parent_crash(self):
        """Node 3's parent (1) dies forever; 3 must re-attach via 2."""
        graph, tree = diamond()
        assert tree.parent[3] == 1
        result = run_resilient_collection(
            graph,
            tree,
            {4: ["a", "b"], 3: ["c"]},
            seed=11,
            failures=RegionOutage([1], start=0, end=None),
            down_grace_slots=2_000,
        )
        assert result.delivery_ratio == 1.0
        assert not result.timed_out
        (repair,) = [r for r in result.repairs if r.node == 3]
        assert repair.old_parent == 1
        assert repair.new_parent == 2
        assert repair.new_level == 2  # level preserved: 2 is also at level 1

    def test_kill_and_revive_interior_node_full_delivery(self):
        """The ISSUE acceptance scenario: MarkovChurn kills and revives a
        non-root interior station mid-collection, yet every message from
        the root's surviving component is delivered."""
        graph, tree = diamond()
        churn = MarkovChurn([1], fail_rate=0.02, recover_rate=0.01, seed=2)
        result = run_resilient_collection(
            graph,
            tree,
            {4: [f"m{i}" for i in range(6)], 1: ["d"]},
            seed=11,
            failures=churn,
            down_grace_slots=2_000,
        )
        # The victim really did flap: at least one down and one up event.
        events = churn.churn_events(1)
        assert any(down for _, _, down in events)
        assert any(not down for _, _, down in events)
        assert result.messages_delivered == result.expected == 7
        assert result.delivery_ratio == 1.0
        assert len(result.repairs) >= 1
        assert not result.timed_out

    def test_repair_preserves_message_identity(self):
        graph, tree = diamond()
        result = run_resilient_collection(
            graph,
            tree,
            {4: [f"q{i}" for i in range(4)]},
            seed=11,
            failures=RegionOutage([1], start=0, end=None),
            down_grace_slots=2_000,
        )
        payloads = sorted(m.payload for m in result.delivered)
        assert payloads == ["q0", "q1", "q2", "q3"]
        msg_ids = [m.msg_id for m in result.delivered]
        assert len(msg_ids) == len(set(msg_ids))


class TestPartition:
    def test_structured_report_not_timeout(self):
        """A severed path must end with a partition report, not a hang."""
        graph = path(6)
        tree = reference_bfs_tree(graph, 0)
        result = run_resilient_collection(
            graph,
            tree,
            {5: ["far"], 1: ["near"]},
            seed=4,
            failures=RegionOutage([2], start=0, end=None),
            down_grace_slots=2_000,
        )
        assert not result.timed_out
        assert result.partition_detected
        assert set(result.unreachable) == {2, 3, 4, 5}
        assert set(result.declared_partitioned) <= {3, 4, 5}
        assert result.partition_precision == 1.0
        # The near side delivers; the far message is reported undelivered.
        assert {m.payload for m in result.delivered} == {"near"}
        assert result.reachable_delivery_ratio == 1.0
        assert len(result.undelivered) == 1

    def test_partition_scoring_on_intact_network(self):
        graph = path(4)
        tree = reference_bfs_tree(graph, 0)
        result = run_resilient_collection(graph, tree, {3: ["m"]}, seed=0)
        assert result.unreachable == ()
        assert result.declared_partitioned == ()
        assert result.partition_precision == 1.0  # vacuous: no declarations
        assert result.partition_recall == 1.0


class TestSlotBudget:
    @pytest.mark.parametrize("level_classes", [1, 3])
    def test_default_budget_is_40x_the_multiplexed_bound(self, level_classes):
        from repro.core.collection import expected_collection_slots
        from repro.radio.failures import PermanentCrashes

        # The only source is down for good, so the run can only stop at
        # its slot budget.
        graph = path(4)
        tree = reference_bfs_tree(graph, 0)
        result = run_resilient_collection(
            graph,
            tree,
            {3: ["a", "b", "c", "d"]},
            seed=1,
            failures=PermanentCrashes([3]),
            level_classes=level_classes,
        )
        bound = expected_collection_slots(
            4, tree.depth, graph.max_degree(), level_classes
        )
        assert result.timed_out
        assert result.slots == max(20_000, int(40 * bound))
        if level_classes == 3:
            assert result.slots > 20_000  # the level classes count


class TestNeighborRegistry:
    def test_candidate_filtering(self):
        graph, tree = diamond()
        _, _, _, registry = build_resilient_collection_network(
            graph, tree, {4: ["a"]}, seed=0
        )
        # Node 3 (level 2) loses parent 1: the only alternative at
        # level ≤ 2 that isn't excluded is 2.
        assert registry.best_candidate(3, level=2, exclude={1, 3}, slot=0) == 2

    def test_no_candidate_when_all_excluded(self):
        graph = path(3)
        tree = reference_bfs_tree(graph, 0)
        _, _, _, registry = build_resilient_collection_network(
            graph, tree, {2: ["a"]}, seed=0
        )
        assert (
            registry.best_candidate(2, level=2, exclude={1, 2}, slot=0) is None
        )

    def test_cycle_rejected(self):
        """A node must never adopt its own descendant as parent."""
        graph = path(3)
        tree = reference_bfs_tree(graph, 0)
        _, _, _, registry = build_resilient_collection_network(
            graph, tree, {2: ["a"]}, seed=0
        )
        assert registry._would_cycle(1, 2)  # 2's parent chain runs through 1
        assert not registry._would_cycle(2, 1)


class TestRepairPolicyKnobs:
    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            RepairPolicy(suspect_after=0)

    def test_higher_threshold_delays_repair(self):
        graph, tree = diamond()
        patient = run_resilient_collection(
            graph,
            tree,
            {4: ["a"]},
            seed=11,
            failures=RegionOutage([1], start=0, end=None),
            policy=RepairPolicy(suspect_after=6),
            down_grace_slots=4_000,
        )
        eager = run_resilient_collection(
            graph,
            tree,
            {4: ["a"]},
            seed=11,
            failures=RegionOutage([1], start=0, end=None),
            policy=RepairPolicy(suspect_after=2),
            down_grace_slots=4_000,
        )
        assert patient.delivery_ratio == eager.delivery_ratio == 1.0
        repair_p = [r for r in patient.repairs if r.node == 3][0]
        repair_e = [r for r in eager.repairs if r.node == 3][0]
        assert repair_e.slot < repair_p.slot


class TestResilienceHarness:
    def test_suite_smoke_and_table(self):
        from repro.analysis import resilience_table, run_resilience_suite

        graph = layered_band(4, 2)
        tree = reference_bfs_tree(graph, 0)
        deepest = max(tree.nodes, key=lambda v: (tree.level[v], v))
        reports = run_resilience_suite(
            graph,
            tree,
            {deepest: ["a", "b"]},
            seed=5,
            down_grace_slots=2_000,
        )
        assert {r.scenario for r in reports} == {
            "churn",
            "fading",
            "jammer",
            "blackout",
            "partition",
        }
        for report in reports:
            assert not report.result.timed_out, report.scenario
            assert report.slowdown >= 1.0 or report.delivery_ratio < 1.0
        table = resilience_table(reports)
        assert "partition" in table and "slowdown" in table

    def test_empty_sources_rejected(self):
        from repro.analysis import run_resilience_suite

        graph = path(3)
        tree = reference_bfs_tree(graph, 0)
        with pytest.raises(ConfigurationError):
            run_resilience_suite(graph, tree, {}, seed=0)
