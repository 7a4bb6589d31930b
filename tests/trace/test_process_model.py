"""Tests for the per-process reference model."""

import pytest

from repro.errors import ConfigurationError
from repro.trace.process_model import (
    PROCESS_SPACE_BITS,
    ProcessModel,
    ProcessParameters,
)
from repro.trace.reference import AccessKind


def refs(model, n):
    return [model.next_reference() for _ in range(n)]


class TestValidation:
    def test_bad_fractions(self):
        with pytest.raises(ConfigurationError):
            ProcessParameters(instruction_fraction=1.5).validate()
        with pytest.raises(ConfigurationError):
            ProcessParameters(chase_fraction=-0.1).validate()

    def test_bad_structure(self):
        with pytest.raises(ConfigurationError):
            ProcessParameters(routines=0).validate()
        with pytest.raises(ConfigurationError):
            ProcessParameters(data_block=6).validate()
        with pytest.raises(ConfigurationError):
            ProcessParameters(allocation_skip_max=0).validate()
        with pytest.raises(ConfigurationError):
            ProcessParameters(placement_skew=0.5).validate()

    def test_negative_pid_rejected(self):
        with pytest.raises(ConfigurationError):
            ProcessModel(-1, seed=0)

    def test_shared_validation(self):
        with pytest.raises(ConfigurationError):
            ProcessParameters(shared_fraction=1.5).validate()
        with pytest.raises(ConfigurationError):
            ProcessParameters(shared_blocks=0).validate()
        with pytest.raises(ConfigurationError):
            ProcessParameters(shared_theta=0).validate()


class TestSharedSegment:
    def test_shared_references_land_in_pid0_slice(self):
        from repro.trace.process_model import PROCESS_SPACE_BITS

        params = ProcessParameters(shared_fraction=0.2)
        model = ProcessModel(3, seed=4, params=params)
        shared = [
            addr for _, addr in refs(model, 10_000)
            if (addr >> PROCESS_SPACE_BITS) == 0
        ]
        assert shared

    def test_two_processes_share_blocks(self):
        params = ProcessParameters(shared_fraction=0.2)
        a = ProcessModel(1, seed=4, params=params)
        b = ProcessModel(2, seed=9, params=params)
        blocks_a = {addr // 16 for _, addr in refs(a, 8_000) if addr < (1 << 26)}
        blocks_b = {addr // 16 for _, addr in refs(b, 8_000) if addr < (1 << 26)}
        assert blocks_a & blocks_b

    def test_zero_fraction_never_touches_shared(self):
        model = ProcessModel(1, seed=4)  # default shared_fraction = 0
        assert all(addr >= (1 << 26) for _, addr in refs(model, 5_000))


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = ProcessModel(3, seed=11)
        b = ProcessModel(3, seed=11)
        assert refs(a, 500) == refs(b, 500)

    def test_different_pids_different_streams(self):
        a = ProcessModel(3, seed=11)
        b = ProcessModel(4, seed=11)
        assert refs(a, 200) != refs(b, 200)

    @pytest.mark.parametrize("shared_fraction", [0.0, 0.2])
    def test_batch_boundaries_do_not_change_the_stream(self, shared_fraction):
        """The model's state carries across ``references`` calls, so
        any split of a run gives the same pairs as one call."""
        params = ProcessParameters(shared_fraction=shared_fraction)
        whole = ProcessModel(3, seed=11, params=params).references(6_000)
        model = ProcessModel(3, seed=11, params=params)
        pieces = []
        for count in (1, 7, 1024, 0, 2500, 1):
            pieces += model.references(count)
        pieces += refs(model, 6_000 - len(pieces))
        assert pieces == whole


class TestAddressSpace:
    def test_addresses_within_process_space(self):
        pid = 5
        model = ProcessModel(pid, seed=1)
        lo = pid << PROCESS_SPACE_BITS
        hi = (pid + 1) << PROCESS_SPACE_BITS
        for _, addr in refs(model, 3000):
            assert lo <= addr < hi

    def test_processes_never_share_addresses(self):
        a = {addr for _, addr in refs(ProcessModel(1, seed=1), 1000)}
        b = {addr for _, addr in refs(ProcessModel(2, seed=1), 1000)}
        assert not (a & b)

    def test_word_alignment(self):
        model = ProcessModel(1, seed=1)
        for _, addr in refs(model, 1000):
            assert addr % 4 == 0


class TestMix:
    def test_kind_fractions_near_parameters(self):
        params = ProcessParameters(instruction_fraction=0.5, store_fraction=0.2)
        model = ProcessModel(1, seed=9, params=params)
        sample = refs(model, 20_000)
        counts = {k: 0 for k in AccessKind}
        for kind, _ in sample:
            counts[kind] += 1
        ifrac = counts[AccessKind.INSTRUCTION] / len(sample)
        assert 0.45 < ifrac < 0.55
        data = counts[AccessKind.LOAD] + counts[AccessKind.STORE]
        sfrac = counts[AccessKind.STORE] / data
        assert 0.15 < sfrac < 0.25

    def test_instruction_stream_is_sequentialish(self):
        model = ProcessModel(1, seed=2)
        last = None
        sequential = total = 0
        for kind, addr in refs(model, 5000):
            if kind is AccessKind.INSTRUCTION:
                if last is not None:
                    total += 1
                    if addr == last + 4:
                        sequential += 1
                last = addr
            else:
                last = None
        assert sequential / total > 0.5

    def test_temporal_locality_of_data(self):
        model = ProcessModel(1, seed=2)
        blocks = [
            addr // 16
            for kind, addr in refs(model, 10_000)
            if kind is not AccessKind.INSTRUCTION
        ]
        assert len(set(blocks)) < len(blocks) * 0.5
