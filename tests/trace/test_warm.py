"""Tests for the warm (no-flush) workload variant."""

from repro.trace.synthetic import AtumWorkload


class TestWarmedWorkload:
    def test_warmed_removes_flushes(self):
        wl = AtumWorkload(segments=3, references_per_segment=200, seed=2)
        warm = wl.warmed()
        assert sum(1 for r in wl if r.is_flush) == 2
        assert sum(1 for r in warm if r.is_flush) == 0

    def test_same_references_otherwise(self):
        wl = AtumWorkload(segments=3, references_per_segment=200, seed=2)
        warm = wl.warmed()
        cold_refs = [r for r in wl if not r.is_flush]
        warm_refs = list(warm)
        assert cold_refs == warm_refs

    def test_len_unchanged(self):
        wl = AtumWorkload(segments=3, references_per_segment=200, seed=2)
        assert len(wl.warmed()) == len(wl)

    def test_scaled_preserves_cold_start_flag(self):
        warm = AtumWorkload(segments=2, references_per_segment=100).warmed()
        assert warm.scaled(0.5).cold_start is False
        assert warm.with_params(processes=2).cold_start is False

    def test_kernel_layout_shared_across_segments(self):
        # The OS pseudo-process keeps one layout, so segments share
        # kernel blocks — the substrate of warm-cache benefits.
        from repro.trace.process_model import PROCESS_SPACE_BITS

        # Seed chosen so the scheduler gives the kernel a quantum in
        # both (short) segments.
        wl = AtumWorkload(segments=2, references_per_segment=60_000, seed=1)
        kernel_pid = wl.params.processes + 1
        kernel_blocks = []
        for segment in range(2):
            blocks = {
                address // 32
                for batch in wl.segment_batches(segment)
                for _, address in batch
                if (address >> PROCESS_SPACE_BITS) == kernel_pid
            }
            kernel_blocks.append(blocks)
        assert kernel_blocks[0] & kernel_blocks[1]
