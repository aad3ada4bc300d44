"""Churn with recovery: independent per-station up/down Markov chains."""

from __future__ import annotations

import random
from bisect import bisect_right
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.graphs.graph import NodeId
from repro.radio.failures import CrashSpan, FailureModel
from repro.radio.process import QUIET_FOREVER
from repro.rng import child_rng

#: How far ahead :meth:`MarkovChurn.crash_span` runs a chain looking for
#: its next flip; a span that finds none ends there and is re-queried.
_LOOKAHEAD = 64


class MarkovChurn(FailureModel):
    """Stations crash and recover as independent two-state Markov chains.

    Each eligible station is, in every slot, either *up* or *down*; an up
    station goes down with probability ``fail_rate`` at the next slot and
    a down station comes back with probability ``recover_rate`` — i.e.
    geometric up-times with mean ``1/fail_rate`` and down-times with mean
    ``1/recover_rate``.  A recovered station resumes its process with the
    state it crashed with (the engine simply stops delivering callbacks
    while it is down), which is exactly the "crash-recovery with stable
    storage" failure model.

    Parameters
    ----------
    nodes:
        The stations subject to churn; stations not listed (typically the
        root) never fail.
    fail_rate / recover_rate:
        Per-slot transition probabilities (0 disables the transition).
    seed:
        Root seed; each station's chain draws from its own derived stream
        (``derive_seed(seed, "churn", node)``) so the realization does not
        depend on the order in which the engine queries stations.
    start_down:
        Stations that begin in the down state (default: all start up).
    """

    def __init__(
        self,
        nodes: Iterable[NodeId],
        fail_rate: float,
        recover_rate: float,
        seed: int,
        start_down: Iterable[NodeId] = (),
    ):
        for name, rate in (("fail_rate", fail_rate), ("recover_rate", recover_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0,1], got {rate}"
                )
        order = list(dict.fromkeys(nodes))
        self.nodes: FrozenSet[NodeId] = frozenset(order)
        # Materialized once: a generator would be exhausted by the check.
        start_down = frozenset(start_down)
        unknown_down = start_down - self.nodes
        if unknown_down:
            raise ConfigurationError(
                f"start_down stations not subject to churn: "
                f"{sorted(map(repr, unknown_down))}"
            )
        self.fail_rate = fail_rate
        self.recover_rate = recover_rate
        self.seed = seed
        self._rank: Dict[NodeId, int] = {
            node: rank for rank, node in enumerate(order)
        }
        self._start_down: Dict[NodeId, bool] = {
            node: node in start_down for node in self.nodes
        }
        self._down: Dict[NodeId, bool] = dict(self._start_down)
        self._rng: Dict[NodeId, random.Random] = {
            node: child_rng(seed, "churn", node)
            for node in self.nodes
        }
        # Slot up to which each chain has been advanced (``_down`` is its
        # state there), and the slots at which it flipped, ascending: the
        # state at any slot up to ``_advanced`` is the start state toggled
        # once per flip at or before it.  ``crash_span`` advances chains
        # ahead of the engine, so ``_horizon`` — the latest slot anyone
        # asked about — bounds what :meth:`churn_events` reports.
        self._advanced: Dict[NodeId, int] = {node: 0 for node in self.nodes}
        self._flips: Dict[NodeId, List[int]] = {node: [] for node in self.nodes}
        self._horizon = 0

    def _advance(self, node: NodeId, target: int, stop_on_flip: bool) -> None:
        """Run ``node``'s chain forward to ``target`` (or its next flip).

        One draw per slot whose exit rate is non-zero, as in the chain's
        definition, so how far and how often a chain is advanced never
        changes its realization.
        """
        draw = self._rng[node].random
        down = self._down[node]
        step = self._advanced[node]
        flips = self._flips[node]
        while step < target:
            rate = self.recover_rate if down else self.fail_rate
            if not rate:
                step = target  # no exit from this state: no draws
                break
            for step in range(step + 1, target + 1):
                if draw() < rate:
                    break
            else:
                break  # reached ``target`` without a flip
            down = not down
            flips.append(step)
            if stop_on_flip:
                break
        self._down[node] = down
        self._advanced[node] = step

    def node_down(self, node: NodeId, slot: int) -> bool:
        if node not in self.nodes:
            return False
        if slot > self._horizon:
            self._horizon = slot
        if slot > self._advanced[node]:
            self._advance(node, slot, stop_on_flip=False)
        flips = self._flips[node]
        if not flips or slot >= flips[-1]:
            return self._down[node]
        # A look-ahead already ran past ``slot``: replay the flip parity.
        return self._start_down[node] ^ bool(bisect_right(flips, slot) & 1)

    def crash_span(self, node: NodeId, slot: int) -> CrashSpan:
        if node not in self.nodes:
            return False, QUIET_FOREVER
        down = self.node_down(node, slot)
        if not (self.recover_rate if down else self.fail_rate):
            return down, QUIET_FOREVER  # no draws, so no flip, ever
        flips = self._flips[node]
        if not flips or flips[-1] <= slot:
            horizon = slot + _LOOKAHEAD
            if self._advanced[node] < horizon:
                self._advance(node, horizon, stop_on_flip=True)
            if not flips or flips[-1] <= slot:
                return down, self._advanced[node] + 1
        return down, flips[bisect_right(flips, slot)]

    def churn_events(self, node: Optional[NodeId] = None) -> List[Tuple[int, NodeId, bool]]:
        """Transitions up to the latest slot queried so far.

        ``(slot, node, went_down)`` triples ordered by slot, then by the
        station's position in ``nodes``: the same list however far the
        engine's look-ahead has advanced each chain.
        """
        horizon = self._horizon
        if node is None:
            stations: Iterable[NodeId] = self.nodes
        else:
            stations = (node,) if node in self.nodes else ()
        events = []
        for station in stations:
            self.node_down(station, horizon)
            down = self._start_down[station]
            for at in self._flips[station]:
                if at > horizon:
                    break
                down = not down
                events.append((at, station, down))
        events.sort(key=lambda t: (t[0], self._rank[t[1]]))
        return events
