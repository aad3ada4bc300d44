"""The idle-aware scalar slot loop: quiet_until contract and wake heap.

The engine may skip a process's callbacks exactly while a
``quiet_until`` declaration is outstanding and nothing was delivered to
it; these tests pin that contract from both sides — silent slots are
skipped, receptions and external :meth:`Process.wake` pokes re-wake
immediately (unless ``on_receive`` says nothing changed), lanes sleep
through dead Decay sessions, crashed stations sleep through their crash
spans, ``skip_idle`` keeps every counter exact, and protocol outcomes
are bit-identical with the fast path on or off, with or without a
failure model.
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

    @pytest.mark.parametrize("seed", [2, 9])
    def test_dense_collection_identical_with_and_without_fast_path(
        self, monkeypatch, seed
    ):
        # Δ ≥ 8: long Decay budgets, so sessions die well before the
        # phase ends and the lanes actually sleep through dead sessions.
        graph = balanced_tree(8, 2)
        assert graph.max_degree() >= 8
        tree = reference_bfs_tree(graph, 0)
        sources = {v: [f"m{v}"] for v in graph.nodes if v % 4 == 1}
        dead_skips = 0
        original = TransportLane.next_active_slot

        def counting(lane, slot):
            nonlocal dead_skips
            wake = original(lane, slot)
            if lane.buffer and not lane.muted and wake > (
                lane.slots.next_data_slot_for(slot, lane.level)
            ):
                dead_skips += 1
            return wake

        monkeypatch.setattr(TransportLane, "next_active_slot", counting)
        results = []
        for idle in (True, False):
            network, processes, _ = build_collection_network(
                graph, tree, sources, seed=seed
            )
            network.idle_scheduling = idle
            root = processes[tree.root]
            network.run(
                50_000, until=lambda net: len(root.delivered) == len(sources)
            )
            results.append(
                (
                    network.slot,
                    [m.msg_id for m in root.delivered],
                    network.stats.as_dict(),
                    [p.lane.data_transmissions for p in processes.values()],
                )
            )
        assert results[0] == results[1]
        assert dead_skips > 0

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


# ----------------------------------------------------------------------
# Dead Decay sessions: the lane sleeps until the next phase
# ----------------------------------------------------------------------

def _seeded_rng(first_coin_dies):
    """A coin stream whose first Decay coin is 0 (or is not)."""
    seed = next(
        s for s in range(100)
        if (random.Random(s).random() < 0.5) == first_coin_dies
    )
    return random.Random(seed)


def _message(serial):
    from repro.core.messages import DataMessage

    return DataMessage(
        msg_id=(1, serial),
        origin=1,
        hop_sender=1,
        hop_dest=0,
        dest_address=None,
        payload=serial,
    )


def _loaded_lane(rng, retry=None):
    return TransportLane(
        node_id=1,
        level=1,
        slots=SlotStructure(decay_budget=4, level_classes=3),
        rng=rng,
        channel=0,
        strict=False,
        retry=retry,
    )


def _own_data_slots(lane, phase):
    slots = lane.slots
    first = slots.first_slot_of_phase(phase)
    return [
        s for s in range(first, first + slots.phase_length)
        if slots.is_data_slot_for(s, lane.level)
    ]


def _poll_every_slot(lane, rng, phases, after_slot=None):
    """Drive ``lane`` slot by slot, checking each declaration.

    Every slot the lane declares inactive must return None and leave the
    coin stream untouched.  Returns the own data slots it declared
    inactive while loaded (only a dead session makes those skippable).
    """
    slots = lane.slots
    skipped = []
    for slot in range(phases * slots.phase_length):
        wake = lane.next_active_slot(slot)
        state = rng.getstate()
        action = lane.on_slot(slot)
        if wake > slot:
            assert action is None, slot
            assert rng.getstate() == state, slot
            if lane.buffer and slots.is_data_slot_for(slot, lane.level):
                next_phase = slots.phase_of(slot) + 1
                assert wake == _own_data_slots(lane, next_phase)[0]
                skipped.append(slot)
        if after_slot is not None:
            after_slot(slot, action)
    return skipped


class TestDeadSessions:
    """Once a phase's Decay is over, the rest of the phase is silent."""

    def test_coin_zero_sleeps_until_the_next_phase(self):
        rng = _seeded_rng(first_coin_dies=True)
        lane = _loaded_lane(rng)
        lane.enqueue(_message(0))
        skipped = _poll_every_slot(lane, rng, phases=2)
        # Transmitted at the first own slot, died, skipped the rest.
        assert skipped[:3] == _own_data_slots(lane, 0)[1:]
        assert lane.data_transmissions >= 2  # phase 1 tried again

    def test_ack_kill_sleeps_until_the_next_phase(self):
        from repro.core.messages import AckMessage

        rng = _seeded_rng(first_coin_dies=False)
        lane = _loaded_lane(rng)
        lane.enqueue(_message(0))
        lane.enqueue(_message(1))

        def ack_first(slot, action):
            if action is not None and action.payload.msg_id == (1, 0):
                lane.accept_ack(
                    AckMessage(msg_id=(1, 0), hop_sender=0, hop_dest=1)
                )

        skipped = _poll_every_slot(lane, rng, phases=2, after_slot=ack_first)
        # The second message waits for phase 1 behind a killed session.
        assert skipped[:3] == _own_data_slots(lane, 0)[1:]
        assert lane.backlog == 1

    def test_sit_out_sleeps_until_the_next_phase(self):
        rng = random.Random(5)
        lane = _loaded_lane(rng)
        # Received mid-phase 0: transmittable from phase 1 only.
        lane.enqueue(_message(0), received_at_slot=1)
        skipped = _poll_every_slot(lane, rng, phases=2)
        assert skipped[:3] == _own_data_slots(lane, 0)[1:]
        assert lane.data_transmissions >= 1

    def test_backoff_sleeps_until_the_next_phase(self):
        from repro.core.transport import RetryPolicy

        rng = random.Random(5)
        lane = _loaded_lane(
            rng, retry=RetryPolicy(max_attempts=None, backoff_cap=4)
        )
        lane.enqueue(_message(0))
        skipped = _poll_every_slot(lane, rng, phases=4)
        # Attempts in phases 0 and 1; the second failure backs off one
        # phase, so phase 2 is decided at its first own slot and skipped.
        assert set(_own_data_slots(lane, 2)[1:]) <= set(skipped)
        assert lane.head_attempts == 3

    def test_retarget_sleeps_until_the_next_phase(self):
        rng = _seeded_rng(first_coin_dies=False)
        lane = _loaded_lane(rng)
        lane.enqueue(_message(0))

        def retarget_after_first(slot, action):
            if action is not None and lane.retargets == 0:
                lane.retarget(2)

        skipped = _poll_every_slot(
            lane, rng, phases=2, after_slot=retarget_after_first
        )
        assert skipped[:3] == _own_data_slots(lane, 0)[1:]
        assert lane.buffer[0].hop_dest == 2

    def test_pending_ack_still_wins(self):
        from repro.core.messages import DataMessage

        rng = _seeded_rng(first_coin_dies=True)
        lane = _loaded_lane(rng)
        lane.enqueue(_message(0))
        first = _own_data_slots(lane, 0)[0]
        assert lane.on_slot(first) is not None  # transmits, coin 0
        # A child's data arrives later in the phase: its ack is due
        # before the next phase's own slot.
        heard = first + 4
        lane.accept_data(
            heard,
            DataMessage(
                msg_id=(7, 0), origin=7, hop_sender=7, hop_dest=1,
                dest_address=None, payload="up",
            ),
        )
        assert lane.next_active_slot(first + 1) == heard + 1


# ----------------------------------------------------------------------
# Overheard receptions leave the receiver asleep
# ----------------------------------------------------------------------

class Overhearer(CountingProcess):
    """A quiet process whose receptions change nothing."""

    def on_receive(self, slot, channel, payload):
        super().on_receive(slot, channel, payload)
        return False


class TestOverhearing:
    def test_unchanged_reception_keeps_the_receiver_asleep(self):
        net = RadioNetwork(path(2))
        sleeper = Overhearer(1, period=QUIET_FOREVER)
        net.attach(ScriptedProcess(0, {5: Transmission("ping")}))
        net.attach(sleeper)
        net.run(10)
        assert sleeper.received == [(5, "ping")]
        assert sleeper.polled == [0]
        assert sleeper.ended == [0]

    def test_legacy_loop_ignores_the_return_value(self):
        net = RadioNetwork(path(2))
        sleeper = Overhearer(1, period=QUIET_FOREVER)
        net.attach(ScriptedProcess(0, {5: Transmission("ping")}))
        net.attach(sleeper)
        net.idle_scheduling = False
        net.run(10)
        assert sleeper.polled == sleeper.ended == list(range(10))

    def test_collection_reports_which_receptions_matter(self):
        from repro.core.messages import AckMessage, DataMessage

        graph = path(3)
        tree = reference_bfs_tree(graph, 0)
        _, processes, _ = build_collection_network(graph, tree, {}, seed=1)
        middle = processes[1]

        def data(sender, dest):
            return DataMessage(
                msg_id=(sender, 0), origin=sender, hop_sender=sender,
                hop_dest=dest, dest_address=None, payload="x",
            )

        # Overheard hops and foreign channels change nothing...
        assert middle.on_receive(0, 0, data(0, 2)) is False
        assert middle.on_receive(0, 0, AckMessage((2, 0), 2, 0)) is False
        assert middle.on_receive(0, 1, data(2, 1)) is False
        assert middle.lane.idle
        # ...designated data and acks do.
        assert middle.on_receive(4, 0, data(2, 1)) is True
        assert middle.on_receive(9, 0, AckMessage((2, 0), 0, 1)) is True
        assert middle.lane.backlog == 0

    def test_partitioned_station_ignores_everything(self):
        from repro.core.messages import DataMessage
        from repro.core.repair import build_resilient_collection_network

        graph = path(3)
        tree = reference_bfs_tree(graph, 0)
        _, processes, _, _ = build_resilient_collection_network(
            graph, tree, {}, seed=1
        )
        middle = processes[1]
        designated = DataMessage(
            msg_id=(2, 0), origin=2, hop_sender=2, hop_dest=1,
            dest_address=None, payload="x",
        )
        middle.partitioned = True
        assert middle.on_receive(4, 0, designated) is False
        middle.partitioned = False
        assert middle.on_receive(4, 0, designated) is True


# ----------------------------------------------------------------------
# skip_idle: jumping the clock over empty slots
# ----------------------------------------------------------------------

SKIP_FAILURES = {
    "none": lambda: None,
    "crash-schedule": lambda: CrashSchedule(
        {1: [(7, 30), (25, 61)], 3: [(0, 12)]}
    ),
    "churn": lambda: MarkovChurn(
        [1, 2, 3], fail_rate=0.05, recover_rate=0.1, seed=4
    ),
}


def _skip_network(failures):
    net = RadioNetwork(path(5), failures=failures)
    procs = [CountingProcess(v, period=7 + 3 * v) for v in range(4)]
    procs.append(CountingProcess(4, period=QUIET_FOREVER))
    for proc in procs:
        net.attach(proc)
    return net, procs


class TestSkipIdle:
    @pytest.mark.parametrize("model", sorted(SKIP_FAILURES))
    def test_counters_match_stepping_slot_by_slot(self, model):
        from repro.profiling import profiled

        horizon = 200
        runs = []
        for jump in (False, True):
            with profiled() as profile:
                net, procs = _skip_network(SKIP_FAILURES[model]())
                steps = 0
                while net.slot < horizon:
                    net.step()
                    steps += 1
                    if jump:
                        net.skip_idle(horizon)
            counters = profile.counters
            assert counters["scalar_slots"] == horizon
            assert counters["polled"] + counters["skipped"] == 5 * horizon
            runs.append(
                (
                    steps,
                    net.slot,
                    net.stats.as_dict(),
                    counters,
                    [(p.polled, p.ended) for p in procs],
                )
            )
        stepped, jumped = runs
        assert jumped[1:] == stepped[1:]
        assert jumped[0] < stepped[0] / 2  # the jumps did skip slots
        if model != "none":
            assert jumped[2]["down_node_slots"] > 0

    def test_stops_at_the_limit_a_wake_and_a_crash_span_end(self):
        net = RadioNetwork(
            path(2), failures=CrashSchedule({1: [(0, 6)]})
        )
        net.attach(CountingProcess(0, period=10))
        net.attach(CountingProcess(1, period=QUIET_FOREVER))
        net.step()
        assert net.skip_idle(4) == 4  # the limit
        assert net.skip_idle(100) == 6  # station 1 revives
        net.step()
        assert net.skip_idle(100) == 10  # station 0 is due
        assert net.stats.down_node_slots == 6

    def test_no_op_cases(self):
        net, _ = _skip_network(None)
        assert net.skip_idle(50) == 0  # before the first step
        net.step()
        assert net.skip_idle(1) == 1  # limit not ahead
        net.idle_scheduling = False
        assert net.skip_idle(50) == 1  # legacy loop
        net.idle_scheduling = True
        net.attach(CountingProcess(4, period=QUIET_FOREVER))
        assert net.skip_idle(50) == 1  # after attach
        net.step()
        net.graph = path(5)
        assert net.skip_idle(50) == 2  # after a graph swap
        net.step()
        net.failures = PermanentCrashes({3})
        assert net.skip_idle(50) == 3  # after a failures reassignment
        net.step()
        assert net.skip_idle(50) > 4  # re-armed by the step
        assert net.stats.slots == net.slot
