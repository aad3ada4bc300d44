"""The idle-aware scalar slot loop: quiet_until contract and wake heap.

The engine may skip a process's callbacks exactly while a
``quiet_until`` declaration is outstanding and nothing was delivered to
it; these tests pin that contract from both sides — silent slots are
skipped, receptions and external :meth:`Process.wake` pokes re-wake
immediately, crashed stations sleep through their crash spans, and
protocol outcomes are bit-identical with the fast path on or off, with
or without a failure model.
"""

import random
from types import MappingProxyType

import pytest

from repro.core import (
    CollectionProcess,
    SlotStructure,
    build_collection_network,
    run_collection,
)
from repro.core.repair import run_resilient_collection
from repro.core.transport import TransportLane
from repro.graphs import (
    Graph,
    balanced_tree,
    layered_band,
    path,
    reference_bfs_tree,
)
from repro.radio import (
    PermanentCrashes,
    Process,
    RadioNetwork,
    ScriptedProcess,
    SilentProcess,
    Transmission,
)
from repro.radio.failures import (
    AdversarialJammer,
    BernoulliLinkLoss,
    ComposedFailures,
    CrashSchedule,
    FailureModel,
    GilbertElliott,
    MarkovChurn,
    subtree_outage,
)
from repro.radio.process import QUIET_FOREVER
from repro.rng import RngFactory


class CountingProcess(Process):
    """Polled-callback counter with a configurable quiet declaration."""

    def __init__(self, node_id, period=None):
        super().__init__(node_id)
        self.period = period  # poll only on multiples of `period`
        self.polled = []
        self.ended = []
        self.received = []

    def on_slot(self, slot):
        self.polled.append(slot)
        return None

    def on_slot_end(self, slot):
        self.ended.append(slot)

    def on_receive(self, slot, channel, payload):
        self.received.append((slot, payload))

    def quiet_until(self, slot):
        if self.period is None:
            return slot
        return slot + (-slot % self.period)


class TestQuietUntil:
    def test_default_is_polled_every_slot(self):
        net = RadioNetwork(path(2))
        procs = [CountingProcess(0), CountingProcess(1)]
        for proc in procs:
            net.attach(proc)
        net.run(20)
        assert procs[0].polled == list(range(20))
        assert procs[0].ended == list(range(20))

    def test_periodic_declaration_skips_silent_slots(self):
        net = RadioNetwork(path(2))
        periodic = CountingProcess(0, period=10)
        net.attach(periodic)
        net.attach(CountingProcess(1))
        net.run(100)
        assert periodic.polled == list(range(0, 100, 10))
        # on_slot_end is skipped on exactly the same slots.
        assert periodic.ended == periodic.polled

    def test_legacy_toggle_polls_everyone(self):
        net = RadioNetwork(path(2))
        periodic = CountingProcess(0, period=10)
        net.attach(periodic)
        net.attach(CountingProcess(1))
        net.idle_scheduling = False
        net.run(100)
        assert periodic.polled == list(range(100))

    def test_reception_wakes_a_sleeping_process(self):
        # Node 1 sleeps forever; node 0 transmits in slot 5.
        net = RadioNetwork(path(2))
        sleeper = CountingProcess(1, period=QUIET_FOREVER)
        net.attach(ScriptedProcess(0, {5: Transmission("ping")}))
        net.attach(sleeper)
        net.run(10)
        assert sleeper.received == [(5, "ping")]
        # The reception slot runs its end-of-slot bookkeeping...
        assert 5 in sleeper.ended
        # ...but the silent slots around it stayed skipped.
        assert sleeper.polled == [0]
        assert 4 not in sleeper.ended and 6 not in sleeper.ended

    def test_external_wake_revokes_declaration(self):
        net = RadioNetwork(path(2))
        sleeper = CountingProcess(0, period=QUIET_FOREVER)
        net.attach(sleeper)
        net.attach(CountingProcess(1))
        net.run(5)
        assert sleeper.polled == [0]
        sleeper.period = None  # becomes chatty again...
        sleeper.wake()  # ...and revokes the outstanding declaration
        net.run(3)
        assert sleeper.polled == [0, 5, 6, 7]

    def test_failure_model_keeps_fast_path(self):
        # A crash changes who is alive, not which slots a station acts
        # in: the quiet station stays asleep, the crashed one is neither
        # polled nor ended, and the down counter stays exact.
        net = RadioNetwork(
            path(3), failures=PermanentCrashes({2}, from_slot=4)
        )
        periodic = CountingProcess(0, period=10)
        crashed = CountingProcess(2)
        net.attach(periodic)
        net.attach(CountingProcess(1))
        net.attach(crashed)
        net.run(20)
        assert periodic.polled == [0, 10]
        assert crashed.polled == [0, 1, 2, 3]
        assert crashed.ended == [0, 1, 2, 3]
        assert net.stats.down_node_slots == 16

    def test_graph_swap_reawakens_everyone(self):
        net = RadioNetwork(path(2))
        sleeper = CountingProcess(0, period=QUIET_FOREVER)
        net.attach(sleeper)
        net.attach(CountingProcess(1))
        net.run(5)
        assert sleeper.polled == [0]
        net.graph = path(2)  # same shape, new topology object
        net.run(2)
        assert sleeper.polled == [0, 5]


class TestScheduleArithmetic:
    @pytest.mark.parametrize("level_classes", [1, 3])
    @pytest.mark.parametrize("with_acks", [True, False])
    def test_next_data_slot_matches_decode(self, level_classes, with_acks):
        slots = SlotStructure(
            decay_budget=4,
            level_classes=level_classes,
            with_acks=with_acks,
        )
        horizon = 3 * slots.phase_length
        for level in range(5):
            for slot in range(horizon):
                expected = next(
                    s
                    for s in range(slot, slot + horizon)
                    if slots.is_data_slot_for(s, level)
                )
                assert slots.next_data_slot_for(slot, level) == expected

    def test_lane_sleeps_forever_when_idle(self):
        slots = SlotStructure(decay_budget=2)
        lane = TransportLane(
            node_id=1,
            level=1,
            slots=slots,
            rng=RngFactory(3).for_node(1),
            channel=0,
        )
        assert lane.next_active_slot(0) == QUIET_FOREVER

    def test_lane_wakes_on_every_own_data_slot_while_loaded(self):
        # A loaded lane consumes one Decay coin per own data slot, so it
        # must be polled on each of them — and on nothing else.
        from repro.core.messages import DataMessage

        slots = SlotStructure(decay_budget=2, level_classes=3)
        lane = TransportLane(
            node_id=1,
            level=2,
            slots=slots,
            rng=RngFactory(3).for_node(1),
            channel=0,
        )
        lane.enqueue(
            DataMessage(
                msg_id=(1, 0),
                origin=1,
                hop_sender=1,
                hop_dest=0,
                dest_address=None,
                payload="x",
            )
        )
        for slot in range(2 * slots.phase_length):
            wake = lane.next_active_slot(slot)
            assert slots.is_data_slot_for(wake, 2)
            assert all(
                not slots.is_data_slot_for(s, 2) for s in range(slot, wake)
            )


class TestEmptySlots:
    """A slot with no station due returns before any per-slot work."""

    def quiet_network(self, n=5):
        net = RadioNetwork(path(n))
        procs = [CountingProcess(v, period=QUIET_FOREVER) for v in range(n)]
        for proc in procs:
            net.attach(proc)
        return net, procs

    def test_counters_stay_exact_when_everyone_is_quiet(self):
        from repro.profiling import profiled

        with profiled() as profile:
            net, procs = self.quiet_network()
            assert net.run(50) == 50
        assert net.slot == 50
        assert net.stats.slots == 50
        counters = profile.counters
        assert counters["scalar_slots"] == 50
        # Slot 0 polls everyone once; every later slot is empty.
        assert counters["polled"] == 5
        assert counters["polled"] + counters["skipped"] == 5 * 50
        assert all(proc.polled == [0] for proc in procs)
        # Empty slots are charged to the intents phase only.
        assert profile.samples["scalar/intents"] == 50
        assert profile.samples["scalar/reception"] == 1
        assert net.stats.transmissions == 0

    @pytest.mark.parametrize("check_every", [1, 3])
    def test_until_reading_the_clock_stops_on_the_same_slot(
        self, check_every
    ):
        stops = []
        for idle in (True, False):
            net, _ = self.quiet_network()
            net.idle_scheduling = idle
            executed = net.run(
                100,
                until=lambda net: net.slot >= 37,
                check_every=check_every,
            )
            stops.append((executed, net.slot, net.stats.slots))
        assert stops[0] == stops[1]
        assert stops[0][1] == (37 if check_every == 1 else 39)


class TestProtocolEquivalence:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_collection_identical_with_and_without_fast_path(self, seed):
        graph = layered_band(4, 3)
        tree = reference_bfs_tree(graph, 0)
        deepest = max(tree.nodes, key=lambda v: (tree.level[v], v))
        sources = {deepest: ["a", "b"], 5: ["c"]}
        for level_classes in (1, 3):
            fingerprints = []
            for idle in (True, False):
                network, processes, _ = build_collection_network(
                    graph,
                    tree,
                    sources,
                    seed=seed,
                    level_classes=level_classes,
                )
                network.idle_scheduling = idle
                network.run(2_000)
                stats = network.stats.channel(0)
                fingerprints.append(
                    (
                        [m.msg_id for m in processes[tree.root].delivered],
                        [p.lane.backlog for p in processes.values()],
                        network.stats.slots,
                        stats.transmissions,
                        stats.deliveries,
                        stats.collisions,
                        stats.busy_slots,
                    )
                )
            assert fingerprints[0] == fingerprints[1]
            assert fingerprints[0][4] > 0  # the run did real work

    @pytest.mark.parametrize("level_classes", [1, 3])
    def test_run_collection_identical_with_and_without_fast_path(
        self, monkeypatch, level_classes
    ):
        graph = layered_band(5, 3)
        tree = reference_bfs_tree(graph, 0)
        sources = {v: [f"m{v}"] for v in graph.nodes if v % 3 == 2}
        original_init = RadioNetwork.__init__
        results = []
        for idle in (True, False):

            def init(net, *args, idle=idle, **kwargs):
                original_init(net, *args, **kwargs)
                net.idle_scheduling = idle

            monkeypatch.setattr(RadioNetwork, "__init__", init)
            result = run_collection(
                graph, tree, sources, seed=4, level_classes=level_classes
            )
            results.append(
                (
                    result.slots,
                    [m.msg_id for m in result.delivered],
                    result.stats.as_dict(),
                )
            )
        assert results[0] == results[1]

    def test_reactive_submission_wakes_the_source(self):
        # run_collection drains, then a mid-run submit must restart the
        # pipeline even though every station had declared QUIET_FOREVER.
        graph = balanced_tree(2, 3)
        tree = reference_bfs_tree(graph, 0)
        network, processes, _ = build_collection_network(
            graph, tree, {14: ["first"]}, seed=9
        )
        root = processes[tree.root]
        network.run(5_000, until=lambda net: len(root.delivered) == 1)
        quiet_start = network.slot
        network.run(200)  # drained: everyone asleep
        processes[13].submit("second")
        network.run(
            5_000, until=lambda net: len(root.delivered) == 2
        )
        assert [m.payload for m in root.delivered] == ["first", "second"]
        assert network.slot > quiet_start


class ReversedGraph(Graph):
    """A topology whose stations iterate in descending order.

    Stations are attached in ``graph.nodes`` order, so here attach order
    and node order disagree: the order stations act in within a slot is
    observable to a shared loss RNG and to repairs.
    """

    @property
    def nodes(self):
        return tuple(reversed(Graph.nodes.fget(self)))


class NodeDownOnly(FailureModel):
    """A crash model that overrides only ``node_down``."""

    def __init__(self, root):
        self.root = root

    def node_down(self, node, slot):
        return node != self.root and (3 * node + slot // 41) % 7 == 0


def _non_root(graph, tree):
    return [v for v in graph.nodes if v != tree.root]


def _deep(tree, rank):
    """The ``rank``-th station of the deepest level (wrapping)."""
    deepest = sorted(v for v in tree.nodes if tree.level[v] == tree.depth)
    return deepest[rank % len(deepest)]


#: Every shipped failure model, plus a subclass relying on the default
#: ``crash_span``; each factory gets (graph, tree, seed).
FAILURE_MODELS = {
    "churn": lambda g, t, s: MarkovChurn(
        _non_root(g, t), fail_rate=0.01, recover_rate=0.1, seed=s
    ),
    "crash-schedule": lambda g, t, s: CrashSchedule(
        {
            t.children[t.root][0]: [(20, 120), (100, 260)],
            _deep(t, s): [(0, 40)],
        }
    ),
    "permanent": lambda g, t, s: PermanentCrashes(
        [t.children[t.root][-1]], from_slot=50
    ),
    "subtree-outage": lambda g, t, s: subtree_outage(
        t, t.children[t.root][0], start=30
    ),
    "jammer": lambda g, t, s: AdversarialJammer(
        period=20, duty=9, start=10, end=600
    ),
    "gilbert-elliott": lambda g, t, s: GilbertElliott(
        p_bad=0.05, p_good=0.2, seed=s
    ),
    "bernoulli": lambda g, t, s: BernoulliLinkLoss(0.25, random.Random(s)),
    "composed": lambda g, t, s: ComposedFailures(
        [
            MarkovChurn(
                _non_root(g, t), fail_rate=0.005, recover_rate=0.2, seed=s
            ),
            AdversarialJammer(period=30, duty=6, offset=s % 30),
        ]
    ),
    "node-down-only": lambda g, t, s: NodeDownOnly(t.root),
}

MATRIX_TOPOLOGIES = {
    "band-4x3": lambda: layered_band(4, 3),
    "btree-2x3": lambda: balanced_tree(2, 3),
    "reversed-band-3x4": lambda: ReversedGraph(
        {v: layered_band(3, 4).neighbors(v) for v in range(12)}
    ),
}


def _churn_events(model):
    models = getattr(model, "models", (model,))
    return [m.churn_events() for m in models if isinstance(m, MarkovChurn)]


def _resilient_fingerprint(monkeypatch, topology, model_name, seed, idle):
    """Everything observable about one self-healing collection run."""
    graph = MATRIX_TOPOLOGIES[topology]()
    tree = reference_bfs_tree(graph, 0)
    sources = {
        v: [f"m{v}-{i}" for i in range(2)]
        for v in graph.nodes
        if tree.level[v] >= 2
    }
    model = FAILURE_MODELS[model_name](graph, tree, seed)
    original_init = RadioNetwork.__init__

    def init(net, *args, **kwargs):
        original_init(net, *args, **kwargs)
        net.idle_scheduling = idle

    with monkeypatch.context() as patch:
        patch.setattr(RadioNetwork, "__init__", init)
        result = run_resilient_collection(
            graph,
            tree,
            sources,
            seed=seed,
            failures=model,
            max_slots=4_000,
            down_grace_slots=300,
        )
    return {
        "slots": result.slots,
        "delivered": [m.msg_id for m in result.delivered],
        "stats": result.stats.as_dict(),
        "repairs": result.repairs,
        "partitioned": result.declared_partitioned,
        "timed_out": result.timed_out,
        "churn": _churn_events(model),
    }


class TestFailureEquivalence:
    """The fast path under every failure model: identical outcomes."""

    def test_matrix_identical_with_and_without_fast_path(self, monkeypatch):
        totals = {"repairs": 0, "partitioned": 0, "dropped": 0, "down": 0}
        for topology in MATRIX_TOPOLOGIES:
            for model_name in FAILURE_MODELS:
                for seed in (1, 2):
                    idle, legacy = (
                        _resilient_fingerprint(
                            monkeypatch, topology, model_name, seed, flag
                        )
                        for flag in (True, False)
                    )
                    assert idle == legacy, (topology, model_name, seed)
                    totals["repairs"] += len(idle["repairs"])
                    totals["partitioned"] += len(idle["partitioned"])
                    totals["dropped"] += idle["stats"]["dropped"]
                    totals["down"] += idle["stats"]["down_node_slots"]
        # The matrix must exercise what it claims to cover.
        assert all(count > 0 for count in totals.values()), totals

    def test_crash_heap_follows_a_reassigned_model(self):
        net = RadioNetwork(path(3), failures=PermanentCrashes({2}))
        procs = [CountingProcess(v) for v in range(3)]
        for proc in procs:
            net.attach(proc)
        net.run(5)
        net.failures = PermanentCrashes({1})
        net.run(5)
        net.failures = None
        net.run(5)
        assert procs[2].polled == list(range(5, 15))
        assert procs[1].polled == list(range(5)) + list(range(10, 15))
        assert net.stats.down_node_slots == 10

    def test_down_station_is_repolled_when_its_span_ends(self):
        net = RadioNetwork(
            path(2), failures=CrashSchedule({1: [(3, 8)]})
        )
        sleeper = CountingProcess(1, period=5)
        net.attach(CountingProcess(0, period=QUIET_FOREVER))
        net.attach(sleeper)
        net.run(12)
        # Due at 5 while down: re-queued for the end of the span, 8.
        assert sleeper.polled == [0, 8, 10]
        assert net.stats.down_node_slots == 5


class TestProcessesView:
    def test_processes_is_a_readonly_live_view(self):
        net = RadioNetwork(path(3))
        net.attach(SilentProcess(0))
        view = net.processes
        assert isinstance(view, MappingProxyType)
        with pytest.raises(TypeError):
            view[1] = SilentProcess(1)
        # Live: later attachments appear without re-fetching...
        net.attach(SilentProcess(1))
        net.attach(SilentProcess(2))
        assert set(view) == {0, 1, 2}
        # ...because the proxy wraps the engine's own dict, not a copy.
        assert view == net._processes

    def test_run_until_done_uses_is_done(self):
        class DoneAfter(Process):
            def is_done(self):
                return True

        net = RadioNetwork(path(2))
        net.attach_all(DoneAfter)
        assert net.run_until_done(10) == 0
