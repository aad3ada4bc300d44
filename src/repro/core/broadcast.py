"""k-broadcast (§6): collection to the root + pipelined distribution.

"To broadcast a message a node first sends the message to the root using
the collection subprotocol of Section 4.  Then the message is sent to all
the nodes of the network using the distribution subprotocol."

Distribution has no per-message destination, so §3's deterministic acks do
not apply; instead the paper pipelines: time is divided into *superphases*
of ``2·log n`` Decay invocations (``4·log Δ·log n`` slots, error 1/n² per
hop per message).  "At superphase t the root sends the t-th message and
all the nodes of level i repeatedly send the (t−i)-th message."  Because
of level multiplexing (§2.2) a station only ever hears level i−1 during
those slots, so each superphase moves the pipeline one level forward.

Reliability: "The root appends consecutive numbers to the messages.  Every
node v examines these numbers and when v encounters a gap it realizes that
it did not receive a message.  Thereupon, v sends a message to the root
requesting it to resend the missing message" — the NACK travels over the
(reliable) collection channel, and the root re-injects the missing message
into the pipeline.  The root also interleaves end-of-stream announcements
(carrying how many messages have been sequenced) whenever it is otherwise
idle, so that even a missed *last* message produces gap evidence.  This
plays the role of the paper's mod-3n² checkpoint numbering for the finite
runs of an experiment; the checkpoint acknowledgements themselves are
implemented as an optional flow-control layer (``checkpoint_interval``).
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.core.decay import DecaySession
from repro.core.messages import (
    AckMessage,
    BroadcastMessage,
    BroadcastSubmission,
    CheckpointAck,
    DataMessage,
    ResendRequest,
)
from repro.core.slots import SlotStructure, decay_budget
from repro.core.transport import TransportLane
from repro.core.tree import TreeInfo, tree_info_from_bfs_tree
from repro.errors import ConfigurationError
from repro.graphs.bfs_tree import BFSTree
from repro.graphs.graph import Graph, NodeId
from repro.radio.network import RadioNetwork
from repro.radio.process import Process
from repro.radio.trace import NetworkStats
from repro.radio.transmission import DOWN_CHANNEL, UP_CHANNEL, Transmission

#: Marks an end-of-stream announcement: ``seq`` then carries the number of
#: messages the root has sequenced so far.
EOS = "__end_of_stream__"



def superphase_invocations(n: int) -> int:
    """Decay invocations per superphase: ``2·ceil(log2 n)`` (ε = 1/n²)."""
    return max(1, 2 * math.ceil(math.log2(max(2, n))))


class BroadcastProcess(Process):
    """One station's k-broadcast behaviour.

    Two independent machines share the station:

    * an **upward** collection lane (channel ``up_channel``) carrying
      broadcast submissions, NACKs and checkpoint acks to the root;
    * a **downward** distribution relay (channel ``down_channel``) driven
      by superphase arithmetic on the global slot number.
    """

    def __init__(
        self,
        info: TreeInfo,
        up_slots: SlotStructure,
        dist_slots: SlotStructure,
        invocations_per_superphase: int,
        rng: random.Random,
        up_channel: int = UP_CHANNEL,
        down_channel: int = DOWN_CHANNEL,
        nack_retry_superphases: int = 8,
        checkpoint_interval: Optional[int] = None,
        strict: bool = True,
    ):
        super().__init__(info.node_id)
        self.info = info
        self.up_slots = up_slots
        self.dist_slots = dist_slots
        self.invocations_per_superphase = invocations_per_superphase
        self.superphase_slots = (
            invocations_per_superphase * dist_slots.phase_length
        )
        self.up_channel = up_channel
        self.down_channel = down_channel
        self.nack_retry_superphases = nack_retry_superphases
        self.checkpoint_interval = checkpoint_interval
        self._rng = rng
        self.up_lane = TransportLane(
            info.node_id, info.level, up_slots, rng, up_channel, strict
        )
        self._up_serial = 0
        # Distribution state (all stations).
        self.received: Dict[int, BroadcastMessage] = {}
        self.announced_count = 0  # from EOS announcements
        self._max_seen_seq = -1
        # Per-superphase inbox: what was heard from level i−1 during each
        # superphase (message, was-it-new).  At superphase T a station
        # relays what it received during T−1 — never sooner, so the
        # pipeline advances exactly one level per superphase as §6
        # prescribes ("at superphase t … the nodes of level i repeatedly
        # send the (t−i)-th message").
        self._inbox: Dict[int, Tuple[BroadcastMessage, bool]] = {}
        self._relay: Optional[BroadcastMessage] = None
        self._session: Optional[DecaySession] = None
        self._session_phase = -1
        self._prepared_superphase = -1
        self._nacked_at: Dict[int, int] = {}  # seq -> superphase of last NACK
        self._checkpoints_acked = 0
        # Root state.
        self.sequenced: List[BroadcastMessage] = []
        self._next_fresh = 0  # next seq the root has not yet pipelined
        self._resend_queue: Deque[int] = deque()
        self._resend_set: Set[int] = set()
        self._current_tx: Optional[BroadcastMessage] = None
        self.resends_served = 0
        self.checkpoint_acks: Dict[int, Set[NodeId]] = {}

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------

    def submit(self, payload: Any) -> None:
        """Initiate a broadcast of ``payload`` from this station."""
        if self.info.is_root:
            self._sequence(self.info.node_id, payload)
        else:
            self._send_up(
                BroadcastSubmission(origin=self.info.node_id, body=payload)
            )

    def _send_up(self, payload: Any) -> None:
        message = DataMessage(
            msg_id=(self.info.node_id, self._up_serial),
            origin=self.info.node_id,
            hop_sender=self.info.node_id,
            hop_dest=self.info.parent,
            payload=payload,
        )
        self._up_serial += 1
        self.up_lane.enqueue(message)

    def _sequence(self, origin: NodeId, payload: Any) -> int:
        seq = len(self.sequenced)
        self.sequenced.append(
            BroadcastMessage(seq=seq, origin=origin, payload=payload)
        )
        # The root trivially "receives" its own stream.
        self.received[seq] = self.sequenced[seq]
        return seq

    # ------------------------------------------------------------------
    # Superphase arithmetic
    # ------------------------------------------------------------------

    def superphase(self, slot: int) -> int:
        return slot // self.superphase_slots

    def _prepare_superphase(self, index: int) -> None:
        """Runs once at each station's first data slot of a superphase."""
        self._prepared_superphase = index
        if self.info.is_root:
            self._current_tx = self._pick_root_message()
        else:
            entry = self._inbox.get(index - 1)
            self._relay = entry[0] if entry is not None else None
            # Drop anything older than the previous superphase.
            self._inbox = {
                sp: value
                for sp, value in self._inbox.items()
                if sp >= index - 1
            }
            self._emit_nacks(index)
            self._emit_checkpoint_acks()

    def _pick_root_message(self) -> Optional[BroadcastMessage]:
        while self._resend_queue:
            seq = self._resend_queue.popleft()
            self._resend_set.discard(seq)
            if 0 <= seq < len(self.sequenced):
                self.resends_served += 1
                return self.sequenced[seq]
        if self._next_fresh < len(self.sequenced):
            message = self.sequenced[self._next_fresh]
            self._next_fresh += 1
            return message
        # Idle: announce the end of the stream so stragglers get gap
        # evidence even for the very last message.
        return BroadcastMessage(
            seq=len(self.sequenced), origin=self.info.node_id, payload=EOS
        )

    # ------------------------------------------------------------------
    # Gap detection and NACKs (non-root)
    # ------------------------------------------------------------------

    def _known_upper(self) -> int:
        """Number of messages this station has evidence must exist."""
        return max(self.announced_count, self._max_seen_seq + 1)

    def missing_seqs(self) -> List[int]:
        return [
            seq
            for seq in range(self._known_upper())
            if seq not in self.received
        ]

    def _emit_nacks(self, superphase_index: int) -> None:
        for seq in self.missing_seqs():
            last = self._nacked_at.get(seq)
            if (
                last is None
                or superphase_index - last >= self.nack_retry_superphases
            ):
                self._nacked_at[seq] = superphase_index
                self._send_up(
                    ResendRequest(requester=self.info.node_id, seq=seq)
                )

    def _emit_checkpoint_acks(self) -> None:
        if self.checkpoint_interval is None:
            return
        interval = self.checkpoint_interval
        while True:
            boundary = (self._checkpoints_acked + 1) * interval
            if all(seq in self.received for seq in range(boundary)) and (
                self._known_upper() >= boundary
            ):
                self._checkpoints_acked += 1
                self._send_up(
                    CheckpointAck(
                        origin=self.info.node_id,
                        checkpoint=self._checkpoints_acked,
                    )
                )
            else:
                break

    # ------------------------------------------------------------------
    # Engine callbacks
    # ------------------------------------------------------------------

    def on_slot(self, slot: int):
        actions = []
        up = self.up_lane.on_slot(slot)
        if up is not None:
            actions.append(up)
        down = self._distribution_transmission(slot)
        if down is not None:
            actions.append(down)
        return actions or None

    def _distribution_transmission(self, slot: int) -> Optional[Transmission]:
        if not self.dist_slots.is_data_slot_for(slot, self.info.level):
            return None
        index = self.superphase(slot)
        if index != self._prepared_superphase:
            self._prepare_superphase(index)
        message = self._current_tx if self.info.is_root else self._relay
        if message is None:
            return None
        phase = self.dist_slots.phase_of(slot)
        if phase != self._session_phase:
            self._session_phase = phase
            self._session = DecaySession(
                self.dist_slots.decay_budget, self._rng
            )
        assert self._session is not None
        if self._session.should_transmit():
            stamped = replace(message, sender_level=self.info.level)
            return Transmission(stamped, self.down_channel)
        return None

    def on_receive(self, slot: int, channel: int, payload: Any) -> None:
        if channel == self.down_channel:
            if isinstance(payload, BroadcastMessage):
                self._handle_distribution(slot, payload)
            return
        if channel != self.up_channel:
            return
        if isinstance(payload, DataMessage):
            if payload.hop_dest != self.info.node_id:
                return
            if not self.up_lane.accept_data(slot, payload):
                return
            if self.info.is_root:
                self._root_consume(payload.payload)
            else:
                self.up_lane.enqueue(
                    payload.rehop(self.info.node_id, self.info.parent),
                    received_at_slot=slot,
                )
        elif isinstance(payload, AckMessage):
            if payload.hop_dest == self.info.node_id:
                self.up_lane.accept_ack(payload)

    def _handle_distribution(self, slot: int, message: BroadcastMessage) -> None:
        if message.sender_level != self.info.level - 1:
            return  # only the pipeline stage directly above feeds us
        if message.payload == EOS:
            self.announced_count = max(self.announced_count, message.seq)
            self._consider_relay(slot, message)
            return
        self._max_seen_seq = max(self._max_seen_seq, message.seq)
        is_new = message.seq not in self.received
        if is_new:
            self.received[message.seq] = replace(message, sender_level=0)
        self._consider_relay(slot, message, is_new_data=is_new)

    def _consider_relay(
        self, slot: int, message: BroadcastMessage, is_new_data: bool = False
    ) -> None:
        """Record what to forward in the *next* superphase.

        Priority within a superphase's inbox: data that was new on arrival
        beats everything (it is the advancing pipeline front); otherwise
        keep the latest thing heard — duplicates and EOS announcements
        *must* still be forwarded, or NACK-driven resends and end-of-stream
        evidence would never reach levels below us.
        """
        superphase = self.superphase(slot)
        entry = self._inbox.get(superphase)
        if entry is None or is_new_data or not entry[1]:
            self._inbox[superphase] = (message, is_new_data)

    def _root_consume(self, payload: Any) -> None:
        if isinstance(payload, BroadcastSubmission):
            self._sequence(payload.origin, payload.body)
        elif isinstance(payload, ResendRequest):
            seq = payload.seq
            if seq not in self._resend_set and 0 <= seq < len(self.sequenced):
                self._resend_set.add(seq)
                self._resend_queue.append(seq)
        elif isinstance(payload, CheckpointAck):
            self.checkpoint_acks.setdefault(
                payload.checkpoint, set()
            ).add(payload.origin)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def has_prefix(self, k: int) -> bool:
        """Whether this station holds broadcasts 0..k−1."""
        return all(seq in self.received for seq in range(k))

    def delivered_in_order(self) -> List[BroadcastMessage]:
        """The longest delivered prefix, in sequence order."""
        out = []
        seq = 0
        while seq in self.received:
            out.append(self.received[seq])
            seq += 1
        return out

    def is_done(self) -> bool:
        return self.up_lane.idle


@dataclass
class BroadcastResult:
    """Outcome of a k-broadcast run."""

    slots: int
    superphases: int
    messages: int
    stats: NetworkStats
    resends: int  # how many pipeline injections were NACK-driven
    delivered_everywhere: bool


def broadcast_reference_slots(
    k: int, depth: int, max_degree: int, n: int, level_classes: int = 3
) -> float:
    """Reference scale for §6: ``O((k + D)·log Δ·log n)`` slots.

    Concretely ``(k + D + slack)`` superphases of
    ``2·log n × 2·log Δ × level_classes`` slots.
    """
    log_n = math.log2(max(2, n))
    log_delta = math.log2(max(2, max_degree))
    return (k + depth + 4) * (2 * log_n) * (2 * log_delta) * level_classes


def build_broadcast_network(
    graph: Graph,
    tree: BFSTree,
    seed: int,
    level_classes: int = 3,
    invocations: Optional[int] = None,
    checkpoint_interval: Optional[int] = None,
    strict: bool = True,
) -> Tuple[RadioNetwork, Dict[NodeId, BroadcastProcess]]:
    """Wire a network of broadcast stations over a BFS tree."""
    from repro.rng import RngFactory

    factory = RngFactory(seed)
    budget = decay_budget(graph.max_degree())
    up_slots = SlotStructure(
        decay_budget=budget, level_classes=level_classes, with_acks=True
    )
    dist_slots = SlotStructure(
        decay_budget=budget, level_classes=level_classes, with_acks=False
    )
    if invocations is None:
        invocations = superphase_invocations(graph.num_nodes)
    infos = tree_info_from_bfs_tree(tree)
    network = RadioNetwork(graph, num_channels=2)
    processes: Dict[NodeId, BroadcastProcess] = {}
    for node in graph.nodes:
        process = BroadcastProcess(
            info=infos[node],
            up_slots=up_slots,
            dist_slots=dist_slots,
            invocations_per_superphase=invocations,
            rng=factory.for_node(node),
            checkpoint_interval=checkpoint_interval,
            strict=strict,
        )
        processes[node] = process
        network.attach(process)
    return network, processes


def run_broadcast(
    graph: Graph,
    tree: BFSTree,
    submissions: Dict[NodeId, List[Any]],
    seed: int,
    max_slots: Optional[int] = None,
    level_classes: int = 3,
    invocations: Optional[int] = None,
    strict: bool = True,
) -> BroadcastResult:
    """Run a k-broadcast batch until every station holds every message."""
    network, processes = build_broadcast_network(
        graph, tree, seed, level_classes, invocations, strict=strict
    )
    k = sum(len(v) for v in submissions.values())
    for node, payloads in submissions.items():
        if node not in processes:
            raise ConfigurationError(f"unknown station {node!r}")
        for payload in payloads:
            processes[node].submit(payload)
    if max_slots is None:
        bound = broadcast_reference_slots(
            k, tree.depth, graph.max_degree(), graph.num_nodes, level_classes
        )
        max_slots = max(20_000, int(30 * bound))
    network.run(
        max_slots,
        until=lambda net: all(p.has_prefix(k) for p in processes.values()),
        check_every=4,
    )
    root_process = processes[tree.root]
    return BroadcastResult(
        slots=network.slot,
        superphases=root_process.superphase(network.slot),
        messages=k,
        stats=network.stats,
        resends=root_process.resends_served,
        delivered_everywhere=all(
            p.has_prefix(k) for p in processes.values()
        ),
    )
