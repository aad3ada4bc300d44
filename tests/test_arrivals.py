"""``ArrivalProcess.next_arrival_slot``: where the next batch may be.

An idle-aware driver polls arrivals only at the slots this query
names and jumps the network clock over the rest, so the query must
never skip a non-empty batch and must not perturb the process.  Each
shipped process is checked against a reference copy polled every slot.
"""

import pytest

from repro.workloads import (
    BernoulliArrivals,
    BurstArrivals,
    DeterministicSchedule,
    PoissonArrivals,
)
from repro.workloads.arrivals import NEVER, ArrivalProcess

HORIZON = 400

#: name -> (factory, whether a named slot always carries arrivals)
PROCESSES = {
    "bernoulli": (
        lambda: BernoulliArrivals(range(4), 0.3, phase_length=12, seed=3),
        False,
    ),
    "bernoulli-per-slot": (
        lambda: BernoulliArrivals(range(3), 0.05, phase_length=1, seed=4),
        False,
    ),
    "bernoulli-rate-0": (
        lambda: BernoulliArrivals(range(4), 0.0, phase_length=12, seed=3),
        True,
    ),
    "bernoulli-rate-1": (
        lambda: BernoulliArrivals(range(2), 1.0, phase_length=7, seed=3),
        True,
    ),
    "bernoulli-no-sources": (
        lambda: BernoulliArrivals((), 0.5, phase_length=7, seed=3),
        True,
    ),
    "poisson": (
        lambda: PoissonArrivals(range(3), 25.0, seed=5),
        True,
    ),
    "poisson-dense": (
        lambda: PoissonArrivals(range(5), 0.7, seed=6, start_slot=9),
        True,
    ),
    "poisson-per-phase": (
        lambda: PoissonArrivals.per_phase_rate(
            range(4), 0.1, phase_length=24, seed=7
        ),
        True,
    ),
    "deterministic": (
        lambda: DeterministicSchedule(
            [(3, 0, "a"), (3, 1, "b"), (50, 2, "c"), (399, 0, "d")]
        ),
        True,
    ),
    "deterministic-empty": (lambda: DeterministicSchedule([]), True),
    "burst": (lambda: BurstArrivals(range(3), period=30, bursts=5), True),
    "burst-jitter": (
        lambda: BurstArrivals(
            range(6), period=40, bursts=6, jitter=25, seed=8
        ),
        True,
    ),
    "burst-none": (lambda: BurstArrivals(range(3), period=9, bursts=0), True),
}


def _reference_batches(factory):
    process = factory()
    return [process.arrivals_at(slot) for slot in range(HORIZON)]


@pytest.mark.parametrize("name", sorted(PROCESSES))
class TestNextArrivalSlot:
    def test_no_slot_before_the_answer_has_arrivals(self, name):
        factory, exact = PROCESSES[name]
        batches = _reference_batches(factory)
        probe = factory()
        for slot in range(HORIZON):
            answer = probe.next_arrival_slot(slot)
            assert answer >= slot
            assert all(
                not batches[s] for s in range(slot, min(answer, HORIZON))
            ), (name, slot, answer)
            if exact and answer < HORIZON:
                assert batches[answer], (name, slot, answer)
            # The query changes nothing: the probe still matches.
            assert probe.arrivals_at(slot) == batches[slot]

    def test_jumping_driver_sees_the_same_arrivals(self, name):
        factory, _ = PROCESSES[name]
        batches = _reference_batches(factory)
        expected = [(s, b) for s, b in enumerate(batches) if b]
        process = factory()
        seen = []
        slot = process.next_arrival_slot(0)
        while slot < HORIZON:
            batch = process.arrivals_at(slot)
            if batch:
                seen.append((slot, batch))
            slot = process.next_arrival_slot(slot + 1)
        assert seen == expected


def test_never_is_returned_when_nothing_can_arrive():
    assert BernoulliArrivals(range(3), 0.0, 5, seed=1).next_arrival_slot(0) == NEVER
    assert BurstArrivals(range(3), 10, bursts=2).next_arrival_slot(11) == NEVER
    assert DeterministicSchedule([(4, 0, "x")]).next_arrival_slot(5) == NEVER
    assert PoissonArrivals((), 3.0, seed=1).next_arrival_slot(0) == NEVER


def test_base_class_polls_every_slot():
    class EverySlot(ArrivalProcess):
        def arrivals_at(self, slot):
            return [(0, slot)] if slot % 3 == 0 else []

    process = EverySlot()
    assert [process.next_arrival_slot(s) for s in range(5)] == list(range(5))
