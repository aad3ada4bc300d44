"""Message formats used by the paper's protocols.

The radio model gives receivers no physical-layer information about who
transmitted, so — exactly as §4 prescribes — every message carries the IDs
it needs inside its payload ("To each message we append the ID of the node
v which sent the message and the ID of v's BFS-parent").

All message types are small frozen dataclasses: hashable, comparable and
cheap, standing in for the O(log n)-bit packets of the model.  The
``hop_sender`` / ``hop_dest`` fields change at every hop; the ``origin`` /
``dest_address`` fields identify the end-to-end flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Optional, Tuple

from repro.graphs.graph import NodeId


@dataclass(frozen=True)
class DataMessage:
    """A unicast data packet travelling hop by hop along the BFS tree.

    Used by collection (§4) and by both point-to-point subprotocols (§5).

    Attributes
    ----------
    msg_id:
        Globally unique message identifier, ``(origin, serial)``.
    origin:
        Station that injected the message.
    hop_sender / hop_dest:
        Current-hop transmitter and its intended next-hop receiver.  Per
        Theorem 3.1 each data message has exactly one destination.
    dest_address:
        Final destination as a DFS address (§5.1); ``None`` means "the
        root" (pure collection traffic).
    payload:
        Application payload (opaque).
    """

    msg_id: Tuple[NodeId, int]
    origin: NodeId
    hop_sender: NodeId
    hop_dest: NodeId
    dest_address: Optional[int] = None
    payload: Any = None

    def rehop(self, sender: NodeId, dest: NodeId) -> "DataMessage":
        """The same end-to-end message readdressed for the next hop."""
        return DataMessage(
            msg_id=self.msg_id,
            origin=self.origin,
            hop_sender=sender,
            hop_dest=dest,
            dest_address=self.dest_address,
            payload=self.payload,
        )


@dataclass(frozen=True)
class AckMessage:
    """A deterministic acknowledgement (§3) for one received data message.

    Sent in the slot immediately following the reception, by the station
    the data message was designated to, back toward ``hop_dest`` (the
    original transmitter).
    """

    msg_id: Tuple[NodeId, int]
    hop_sender: NodeId  # the acknowledging station
    hop_dest: NodeId  # the station whose transmission is being acked


@dataclass(frozen=True)
class JoinMessage:
    """BFS-expansion announcement: "I am at level ``level``, join under me"."""

    sender: NodeId
    level: int


@dataclass(frozen=True)
class LeaderMessage:
    """Epidemic leader-election gossip: the best (largest) ID heard so far."""

    sender: NodeId
    best_id: NodeId


@dataclass(frozen=True)
class TokenMessage:
    """The DFS token of §5.1 (only its holder transmits: conflict-free).

    During the first traversal (on the graph) the token broadcast carries
    the holder's ID and BFS parent, so all neighbors learn who is whose
    BFS child.  During the second traversal (on the BFS tree) it carries
    DFS-number assignments.
    """

    holder: NodeId
    next_holder: NodeId
    traversal: int  # 1 = DFS on the graph, 2 = DFS on the BFS tree
    holder_bfs_parent: Optional[NodeId] = None
    dfs_number: Optional[int] = None  # number assigned to next_holder
    returning: bool = False  # token backtracking to the parent
    max_descendant: Optional[int] = None  # reported while backtracking


@dataclass(frozen=True)
class BroadcastMessage:
    """A pipelined distribution packet (§6): the root's ``seq``-th message."""

    seq: int
    origin: NodeId
    payload: Any = None
    sender_level: int = 0


@dataclass(frozen=True)
class ResendRequest:
    """A NACK travelling to the root: "I am missing broadcast #``seq``".

    Carried as the payload of a collection DataMessage (§6: "v sends a
    message to the root requesting it to resend the missing message").
    """

    requester: NodeId
    seq: int


@dataclass(frozen=True)
class BroadcastSubmission:
    """A broadcast payload on its way up to the root for sequencing (§6)."""

    origin: NodeId
    body: Any


@dataclass(frozen=True)
class CheckpointAck:
    """§6's checkpoint acknowledgement: "I hold every message of
    checkpoint #``checkpoint``"."""

    origin: NodeId
    checkpoint: int


def message_bits(message: object) -> int:
    """Rough size of a message in bits, for model-compliance checks.

    The model allows messages of length O(log n); tests use this to assert
    that no protocol smuggles more than a constant number of IDs, sequence
    numbers and flags into one packet.
    """
    fields = getattr(message, "__dataclass_fields__", {})
    count = 0
    for name in fields:
        value = getattr(message, name)
        if isinstance(value, tuple):
            count += len(value)
        else:
            count += 1
    # Each field is an ID, a level, a sequence number or a flag: O(log n)
    # bits apiece.  Report "number of log-n words" * 1 for simplicity.
    return count


def is_protocol_message(payload: Hashable) -> bool:
    """Whether a payload is one of this module's message types."""
    return isinstance(
        payload,
        (
            DataMessage,
            AckMessage,
            JoinMessage,
            LeaderMessage,
            TokenMessage,
            BroadcastMessage,
            BroadcastSubmission,
            CheckpointAck,
            ResendRequest,
        ),
    )
