"""Unit tests for the multiplexed slot schedule."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SlotKind, SlotStructure, decay_budget
from repro.errors import ConfigurationError


class TestDecayBudget:
    def test_paper_formula(self):
        # 2·ceil(log2 Δ)
        assert decay_budget(2) == 2
        assert decay_budget(3) == 4
        assert decay_budget(4) == 4
        assert decay_budget(5) == 6
        assert decay_budget(8) == 6
        assert decay_budget(9) == 8
        assert decay_budget(1024) == 20

    def test_degenerate_degrees(self):
        assert decay_budget(0) == 2
        assert decay_budget(1) == 2

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            decay_budget(-1)


class TestSlotStructure:
    def test_phase_length(self):
        s = SlotStructure(decay_budget=4, level_classes=3, with_acks=True)
        assert s.phase_length == 4 * 3 * 2

    def test_phase_length_without_acks(self):
        s = SlotStructure(decay_budget=4, level_classes=3, with_acks=False)
        assert s.phase_length == 12

    def test_decode_first_phase_layout(self):
        s = SlotStructure(decay_budget=2, level_classes=3, with_acks=True)
        expected = [
            # (decay_step, level_class, kind)
            (0, 0, SlotKind.DATA),
            (0, 0, SlotKind.ACK),
            (0, 1, SlotKind.DATA),
            (0, 1, SlotKind.ACK),
            (0, 2, SlotKind.DATA),
            (0, 2, SlotKind.ACK),
            (1, 0, SlotKind.DATA),
            (1, 0, SlotKind.ACK),
            (1, 1, SlotKind.DATA),
            (1, 1, SlotKind.ACK),
            (1, 2, SlotKind.DATA),
            (1, 2, SlotKind.ACK),
        ]
        for slot, (step, cls, kind) in enumerate(expected):
            info = s.decode(slot)
            assert info.phase == 0
            assert (info.decay_step, info.level_class, info.kind) == (
                step,
                cls,
                kind,
            )

    def test_phase_advances(self):
        s = SlotStructure(decay_budget=2, level_classes=3, with_acks=True)
        assert s.decode(s.phase_length).phase == 1
        assert s.decode(s.phase_length).decay_step == 0

    def test_is_data_slot_for_respects_level_class(self):
        s = SlotStructure(decay_budget=2, level_classes=3, with_acks=True)
        # Level 4 -> class 1; its data slots in phase 0 are slots 2 and 8.
        slots = [t for t in range(s.phase_length) if s.is_data_slot_for(t, 4)]
        assert slots == [2, 8]

    def test_every_data_slot_belongs_to_exactly_one_class(self):
        s = SlotStructure(decay_budget=3, level_classes=3, with_acks=True)
        for t in range(2 * s.phase_length):
            owners = [
                cls for cls in range(3) if s.is_data_slot_for(t, cls)
            ]
            info = s.decode(t)
            if info.kind is SlotKind.DATA:
                assert len(owners) == 1
            else:
                assert owners == []

    def test_ack_slot_after(self):
        s = SlotStructure(decay_budget=2, level_classes=3, with_acks=True)
        assert s.ack_slot_after(0) == 1
        assert s.ack_slot_after(2) == 3
        assert s.decode(s.ack_slot_after(2)).kind is SlotKind.ACK

    def test_ack_slot_after_rejects_ack_slot(self):
        s = SlotStructure(decay_budget=2, level_classes=3, with_acks=True)
        with pytest.raises(ConfigurationError):
            s.ack_slot_after(1)

    def test_ack_slot_after_without_acks(self):
        s = SlotStructure(decay_budget=2, with_acks=False)
        with pytest.raises(ConfigurationError):
            s.ack_slot_after(0)

    def test_single_class_schedule(self):
        s = SlotStructure(decay_budget=2, level_classes=1, with_acks=True)
        # data, ack, data, ack ...
        assert s.decode(0).kind is SlotKind.DATA
        assert s.decode(1).kind is SlotKind.ACK
        assert s.is_data_slot_for(0, 0) and s.is_data_slot_for(0, 7)

    def test_phase_helpers(self):
        s = SlotStructure(decay_budget=2, level_classes=3)
        assert s.phase_of(0) == 0
        assert s.first_slot_of_phase(2) == 2 * s.phase_length
        assert s.slots_for_phases(5) == 5 * s.phase_length

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            SlotStructure(decay_budget=0)
        with pytest.raises(ConfigurationError):
            SlotStructure(decay_budget=2, level_classes=0)


class TestArithmeticFastPaths:
    """The per-slot queries are plain arithmetic; ``decode`` is the spec.

    Every slot of three phases, at every level of two full cycles of
    level classes, must get the answer ``decode`` implies.
    """

    @pytest.mark.parametrize("with_acks", [True, False])
    @pytest.mark.parametrize("classes", [1, 2, 3])
    @pytest.mark.parametrize("budget", [1, 2, 6])
    def test_fast_paths_match_decode(self, budget, classes, with_acks):
        s = SlotStructure(budget, classes, with_acks)
        horizon = 3 * s.phase_length
        infos = [s.decode(slot) for slot in range(horizon + s.phase_length)]
        for slot in range(horizon):
            info = infos[slot]
            assert s.phase_of(slot) == info.phase
            for level in range(2 * classes):
                is_data = (
                    info.kind is SlotKind.DATA
                    and info.level_class == level % classes
                )
                assert s.is_data_slot_for(slot, level) == is_data
                expected_next = next(
                    t
                    for t in range(slot, len(infos))
                    if infos[t].kind is SlotKind.DATA
                    and infos[t].level_class == level % classes
                )
                assert s.next_data_slot_for(slot, level) == expected_next
            if with_acks and info.kind is SlotKind.DATA:
                ack = s.ack_slot_after(slot)
                assert ack == slot + 1
                assert infos[ack].kind is SlotKind.ACK
                assert infos[ack].level_class == info.level_class
            else:
                with pytest.raises(ConfigurationError):
                    s.ack_slot_after(slot)


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=4),
    st.booleans(),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=120)
def test_decode_is_consistent(budget, classes, acks, slot):
    """Decoded fields always reconstruct the original slot number."""
    s = SlotStructure(budget, classes, acks)
    info = s.decode(slot)
    assert 0 <= info.decay_step < budget
    assert 0 <= info.level_class < classes
    width = 2 if acks else 1
    reconstructed = (
        info.phase * s.phase_length
        + info.decay_step * classes * width
        + info.level_class * width
        + (1 if info.kind is SlotKind.ACK else 0)
    )
    assert reconstructed == slot


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2_000),
)
@settings(max_examples=80)
def test_data_slots_per_phase_count(budget, classes, phase):
    """Each level class gets exactly ``budget`` data slots per phase."""
    s = SlotStructure(budget, classes, with_acks=True)
    start = s.first_slot_of_phase(phase)
    for cls in range(classes):
        count = sum(
            1
            for t in range(start, start + s.phase_length)
            if s.is_data_slot_for(t, cls)
        )
        assert count == budget
