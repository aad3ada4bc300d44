"""The slot-synchronous radio-network simulation engine.

Implements the model of §1.1 exactly:

* time advances in synchronous slots;
* in each slot each station either transmits or receives on each channel
  (the paper's multi-channel protocols assume one transceiver per channel);
* a listening station receives a message in a slot iff **exactly one** of
  its neighbors transmits in that slot (on that channel);
* there is no collision detection — a collision is indistinguishable from
  silence at the receiver;
* a transmitting station hears nothing on the channel it transmits on.

The engine is deliberately simple and allocation-light: per slot it asks
every *awake* process for its transmission intents, resolves receptions
channel by channel by counting transmitting neighbors, and delivers
callbacks.

Idle-aware scheduling
---------------------
The paper's own slot structure guarantees long deterministic silences: a
station at BFS level i may transmit data only in its level class's slots
(2 of every 3 slots are someone else's, §2.2), and a station with an
empty buffer transmits nothing at all.  Polling every process every slot
is therefore O(n) of wasted work per slot at scale.  A process may
declare those silences via :meth:`~repro.radio.process.Process.
quiet_until`; the engine keeps a min-heap of wake slots and skips
sleeping processes entirely — a reception (or collision callback) wakes
a process immediately, so reactive traffic is never delayed.  Processes
that do not implement the hint are polled every slot, exactly as before.
A slot in which no station is due costs only the wake-heap check: the
engine advances the clock and the counters and returns.
The fast path is bypassed whenever a failure model is attached (crash
schedules must be consulted per slot) or ``idle_scheduling`` is False.
"""

from __future__ import annotations

import heapq
import random
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro import profiling
from repro.errors import ConfigurationError, ProtocolError, SimulationTimeout
from repro.graphs.graph import Graph, NodeId
from repro.radio.failures import FailureModel
from repro.radio.process import QUIET_FOREVER, Process, SlotAction
from repro.radio.trace import (
    CollisionEvent,
    DeliverEvent,
    DropEvent,
    EventTrace,
    NetworkStats,
    TransmitEvent,
)
from repro.radio.transmission import Transmission

UntilPredicate = Callable[["RadioNetwork"], bool]

#: ``down_nodes`` of a slot with no failure model attached.
_NOBODY: frozenset = frozenset()
#: Reception-map marker: a second neighbor transmitted to this receiver.
_COLLIDED = object()


class RadioNetwork:
    """A synchronous multi-hop radio network over a fixed topology.

    Parameters
    ----------
    graph:
        The communication topology (stations = nodes, range = edges).
    num_channels:
        How many orthogonal channels exist.  Single-channel protocols use
        channel 0; the paper's concurrent collection/distribution stack
        uses 2 ("we … assume separate channels", §1.4).
    trace:
        Optional :class:`~repro.radio.trace.EventTrace` capturing every
        event.  Aggregate counters in :attr:`stats` are always collected.
    failures:
        Optional failure model (crashes / link loss) for robustness
        experiments; ``None`` is the paper's failure-free model.
    capture_effect:
        §8 remark (3)'s model variant: "in case of a conflict the
        receiver may get one of the messages."  When enabled, a collision
        delivers one of the colliding payloads chosen uniformly at random
        (seeded by ``capture_seed``) instead of nothing.  The paper notes
        its deterministic acknowledgement mechanism "is no longer valid"
        under this model — tests confirm exactly that.
    collision_detection:
        §8 remark (4)'s variant: listeners get an explicit
        ``on_collision`` callback when ≥ 2 neighbors transmit.  The
        paper's protocols never use it ("we do not know how to use it");
        it is exposed for experimentation.

    The ``idle_scheduling`` attribute (default True) enables the
    quiet-declaration fast path described in the module docstring; set it
    to False to force the legacy poll-every-process loop (used by the
    throughput benchmark to measure the fast path's win, and available as
    an escape hatch).  Either setting produces identical protocol
    outcomes for processes honouring the ``quiet_until`` contract.
    """

    def __init__(
        self,
        graph: Graph,
        num_channels: int = 1,
        trace: Optional[EventTrace] = None,
        failures: Optional[FailureModel] = None,
        capture_effect: bool = False,
        collision_detection: bool = False,
        capture_seed: int = 0,
    ):
        if num_channels < 1:
            raise ConfigurationError(
                f"need at least one channel, got {num_channels}"
            )
        self.num_channels = num_channels
        self.trace = trace
        self.failures = failures
        self.capture_effect = capture_effect
        self.collision_detection = collision_detection
        self._capture_rng = (
            random.Random(capture_seed) if capture_effect else None
        )
        self.slot = 0
        self.stats = NetworkStats()
        self.profiler = profiling.current_profile()
        self.idle_scheduling = True
        # Wake bookkeeping for the idle fast path: ``_wake`` maps each
        # station to its authoritative next wake slot; ``_wake_heap``
        # holds (wake, node) entries, lazily invalidated (an entry whose
        # wake no longer matches ``_wake`` is stale and discarded on pop).
        self._wake: Dict[NodeId, int] = {}
        self._wake_heap: List[Tuple[int, NodeId]] = []
        self._wake_valid = False
        self._processes: Dict[NodeId, Process] = {}
        self.graph = graph

    @property
    def graph(self) -> Graph:
        return self._graph

    @graph.setter
    def graph(self, graph: Graph) -> None:
        # Derived per-topology state is rebuilt exactly once per topology
        # change, never in the per-slot hot loop:
        # * the neighbor-tuple cache — the inner reception loop iterates
        #   these millions of times and must not re-derive them from the
        #   graph per slot;
        # * the full-attachment check — an O(n) set difference, re-armed
        #   so a swapped topology is re-validated before the next step;
        # * the wake heap — a swapped topology may change who can hear
        #   whom, so every station is re-polled from the next slot.
        self._graph = graph
        self._attachment_validated = False
        self._wake_valid = False
        self._neighbors: Dict[NodeId, tuple] = {
            node: graph.neighbors(node) for node in graph.nodes
        }

    # ------------------------------------------------------------------
    # Wiring processes to stations
    # ------------------------------------------------------------------

    def attach(self, process: Process) -> None:
        """Install ``process`` on its station (``process.node_id``)."""
        node = process.node_id
        if node not in self.graph:
            raise ConfigurationError(f"no station {node!r} in topology")
        self._processes[node] = process
        process._waker = lambda: self._wake_external(node)
        self._attachment_validated = False
        self._wake_valid = False

    def attach_all(self, factory: Callable[[NodeId], Process]) -> None:
        """Install ``factory(node)`` on every station of the topology."""
        for node in self.graph.nodes:
            self.attach(factory(node))

    def process(self, node: NodeId) -> Process:
        return self._processes[node]

    @property
    def processes(self) -> Mapping[NodeId, Process]:
        """A read-only live view of the station -> process map.

        Returned as a :class:`types.MappingProxyType` — not a copy — so
        hot-path callers may iterate it per slot without allocating, and
        accidental mutation raises instead of silently desynchronizing
        the engine (attachment goes through :meth:`attach`).
        """
        return MappingProxyType(self._processes)

    def _require_fully_attached(self) -> None:
        if self._attachment_validated:
            return
        missing = set(self.graph.nodes) - set(self._processes)
        if missing:
            raise ConfigurationError(
                f"stations without processes: {sorted(missing)[:5]!r}"
                + ("…" if len(missing) > 5 else "")
            )
        self._attachment_validated = True

    def _wake_external(self, node: NodeId) -> None:
        """Revoke ``node``'s quiet declaration (see ``Process.wake``)."""
        if not self._wake_valid:
            return  # heap will be rebuilt before the next step anyway
        slot = self.slot
        if self._wake.get(node, slot) > slot:
            self._wake[node] = slot
            heapq.heappush(self._wake_heap, (slot, node))

    def _rebuild_wake(self) -> None:
        """Re-arm the wake heap: every station polls at the current slot."""
        slot = self.slot
        self._wake = {node: slot for node in self._processes}
        self._wake_heap = [(slot, node) for node in self._processes]
        heapq.heapify(self._wake_heap)
        self._wake_valid = True

    # ------------------------------------------------------------------
    # The slot loop
    # ------------------------------------------------------------------

    @staticmethod
    def _normalize_action(action: SlotAction) -> List[Transmission]:
        if action is None:
            return []
        if isinstance(action, Transmission):
            return [action]
        return list(action)

    def step(self) -> None:
        """Advance the network by one slot."""
        if not self._attachment_validated:
            self._require_fully_attached()
        slot = self.slot
        failures = self.failures
        processes = self._processes
        profiler = self.profiler
        stats = self.stats
        mark = profiler.clock() if profiler is not None else 0.0

        # The fast path needs per-slot crash schedules out of the way
        # (a sleeping station must still crash on time for the stats and
        # the collision semantics), so any failure model disables it.
        # Stations acting this slot, in deterministic wake order (polled
        # now, or woken later by a reception); None = everyone, legacy.
        awake: Optional[Dict[NodeId, None]] = None
        if self.idle_scheduling and failures is None:
            if not self._wake_valid:
                self._rebuild_wake()
            awake = {}
            heap = self._wake_heap
            wake = self._wake
            while heap and heap[0][0] <= slot:
                entry_wake, node = heapq.heappop(heap)
                if node in awake or wake.get(node) != entry_wake:
                    continue  # stale entry: rescheduled since it was pushed
                awake[node] = None
            if not awake:
                # No station is due, so nobody transmits and nobody can
                # receive: the slot is provably empty.  Only the clock and
                # the counters move; its time is charged to the intents
                # phase, where the wake-heap check is accounted.
                self.slot = slot + 1
                stats.slots += 1
                if profiler is not None:
                    profiler.add("scalar/intents", profiler.clock() - mark)
                    profiler.bump("skipped", len(processes))
                    profiler.bump("scalar_slots")
                return
            poll = awake
        else:
            poll = processes

        # Phase 1: gather transmission intents.  A channel's sender dict
        # (station -> payload) is created on its first transmission; its
        # keys double as the set of stations transmitting on it.
        num_channels = self.num_channels
        trace = self.trace
        transmitters: List[Optional[Dict[NodeId, object]]] = [
            None
        ] * num_channels
        down_nodes = set() if failures is not None else _NOBODY
        for node in poll:
            if failures is not None and failures.node_down(node, slot):
                down_nodes.add(node)
                stats.down_node_slots += 1
                continue
            action = processes[node].on_slot(slot)
            if action is None:
                continue
            for tx in (action,) if isinstance(action, Transmission) else action:
                channel = tx.channel
                if channel >= num_channels:
                    raise ProtocolError(
                        f"node {node!r} transmitted on channel {channel} "
                        f"but the network has {num_channels} channel(s)"
                    )
                senders = transmitters[channel]
                if senders is None:
                    senders = transmitters[channel] = {}
                elif node in senders:
                    raise ProtocolError(
                        f"node {node!r} transmitted twice on channel "
                        f"{channel} in slot {slot}"
                    )
                senders[node] = tx.payload
                stats.channel(channel).transmissions += 1
                if trace is not None:
                    trace.record(TransmitEvent(slot, channel, node, tx.payload))
        if profiler is not None:
            now = profiler.clock()
            profiler.add("scalar/intents", now - mark)
            profiler.bump("polled", len(poll))
            profiler.bump("skipped", len(processes) - len(poll))
            mark = now

        # Phase 2: resolve receptions channel by channel.  ``heard`` maps
        # each receiver, in first-hit order, to its only sender so far or
        # to _COLLIDED once a second neighbor transmits.
        neighbors = self._neighbors
        for channel in range(num_channels):
            senders = transmitters[channel]
            if not senders:
                continue
            channel_stats = stats.channel(channel)
            channel_stats.busy_slots += 1
            heard: Dict[NodeId, object] = {}
            for sender in senders:
                for receiver in neighbors[sender]:
                    heard[receiver] = (
                        _COLLIDED if receiver in heard else sender
                    )
            for receiver, sender in heard.items():
                if receiver in senders or receiver in down_nodes:
                    continue  # busy transmitting / crashed: hears nothing
                if sender is _COLLIDED:
                    channel_stats.collisions += 1
                    colliders = None
                    if trace is not None or self.capture_effect:
                        colliders = tuple(
                            s for s in senders if receiver in neighbors[s]
                        )
                    if trace is not None:
                        assert colliders is not None
                        trace.record(
                            CollisionEvent(slot, channel, receiver, colliders)
                        )
                    if self.collision_detection:
                        processes[receiver].on_collision(slot, channel)
                        if awake is not None and receiver not in awake:
                            awake[receiver] = None
                    if not self.capture_effect:
                        continue
                    # §8 remark (3): the receiver captures one of the
                    # colliding messages, uniformly at random.  The
                    # captured delivery is still subject to link loss.
                    assert colliders is not None
                    assert self._capture_rng is not None
                    sender = self._capture_rng.choice(colliders)
                payload = senders[sender]
                if failures is not None and failures.drop_delivery(
                    sender, receiver, slot
                ):
                    channel_stats.dropped += 1
                    if trace is not None:
                        trace.record(
                            DropEvent(slot, channel, receiver, sender, payload)
                        )
                    continue
                channel_stats.deliveries += 1
                if trace is not None:
                    trace.record(
                        DeliverEvent(slot, channel, receiver, sender, payload)
                    )
                processes[receiver].on_receive(slot, channel, payload)
                if awake is not None and receiver not in awake:
                    awake[receiver] = None
        if profiler is not None:
            now = profiler.clock()
            profiler.add("scalar/reception", now - mark)
            mark = now

        # Phase 3: end-of-slot bookkeeping, then reschedule the stations
        # that acted (their quiet declarations may have changed).
        if awake is not None:
            wake = self._wake
            heap = self._wake_heap
            next_slot = slot + 1
            for node in awake:
                process = processes[node]
                process.on_slot_end(slot)
                wake_at = process.quiet_until(next_slot)
                if wake_at < next_slot:
                    wake_at = next_slot
                wake[node] = wake_at
                if wake_at < QUIET_FOREVER:
                    heapq.heappush(heap, (wake_at, node))
        else:
            for node, process in processes.items():
                if node not in down_nodes:
                    process.on_slot_end(slot)

        self.slot = slot + 1
        stats.slots += 1
        if profiler is not None:
            profiler.add("scalar/slot_end", profiler.clock() - mark)
            profiler.bump("scalar_slots")

    def run(
        self,
        max_slots: int,
        until: Optional[UntilPredicate] = None,
        check_every: int = 1,
    ) -> int:
        """Run until ``until(self)`` holds or ``max_slots`` elapse.

        Returns the number of slots executed *in this call*.  Raises
        :class:`SimulationTimeout` if the predicate never held; if no
        predicate is given, simply runs ``max_slots`` slots.
        """
        if max_slots < 0:
            raise ConfigurationError(f"max_slots must be >= 0, got {max_slots}")
        if check_every < 1:
            raise ConfigurationError(
                f"check_every must be >= 1, got {check_every}"
            )
        start = self.slot
        if until is not None and until(self):
            return 0
        for executed in range(1, max_slots + 1):
            self.step()
            if (
                until is not None
                and executed % check_every == 0
                and until(self)
            ):
                return executed
        if until is None:
            return max_slots
        raise SimulationTimeout(
            f"goal not reached within {max_slots} slots "
            f"(started at slot {start})",
            slots_elapsed=max_slots,
        )

    def run_until_done(self, max_slots: int, check_every: int = 1) -> int:
        """Run until every process reports :meth:`Process.is_done`."""
        return self.run(
            max_slots,
            until=lambda net: all(
                p.is_done() for p in net._processes.values()
            ),
            check_every=check_every,
        )
