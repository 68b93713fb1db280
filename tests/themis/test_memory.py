"""Tests for the §4 / Table 1 memory-overhead model."""

import pytest

from repro.themis.memory import (FLOW_ENTRY_BYTES, MemoryParams,
                                 memory_overhead, queue_entries,
                                 TOFINO_SRAM_BYTES)


class TestReferenceValues:
    """Table 1's numbers plugged into Eq. 4."""

    def test_flow_entry_is_20_bytes(self):
        assert FLOW_ENTRY_BYTES == 20

    def test_queue_entries_reference(self):
        # BW*RTT = 400Gbps * 2us = 100 KB; * 1.5 / 1500 = 100 entries.
        assert queue_entries(MemoryParams()) == 100

    def test_per_qp_bytes(self):
        breakdown = memory_overhead(MemoryParams())
        assert breakdown.per_qp_bytes == 120

    def test_pathmap_bytes(self):
        breakdown = memory_overhead(MemoryParams())
        assert breakdown.pathmap_bytes == 512  # 256 paths * 2 B

    def test_total_is_about_193_kb(self):
        """§4: 'yields M_total ≈ 193 KB'."""
        breakdown = memory_overhead(MemoryParams())
        assert breakdown.total_bytes == 512 + 120 * 100 * 16
        assert breakdown.total_kb() == pytest.approx(192.5, abs=1.0)

    def test_sram_fraction_under_one_percent(self):
        """The paper quotes 0.6% of 64 MB; the arithmetic of Eq. 4 gives
        ~0.3% — either way well under 1% (see EXPERIMENTS.md note)."""
        breakdown = memory_overhead(MemoryParams())
        assert breakdown.sram_fraction() < 0.01
        assert breakdown.sram_fraction(TOFINO_SRAM_BYTES) \
            == pytest.approx(192512 / TOFINO_SRAM_BYTES)


class TestScaling:
    def test_entries_scale_with_bandwidth(self):
        slow = queue_entries(MemoryParams(bandwidth_bps=100e9))
        fast = queue_entries(MemoryParams(bandwidth_bps=400e9))
        assert fast == 4 * slow

    def test_entries_scale_with_rtt(self):
        short = queue_entries(MemoryParams(rtt_last_s=1e-6))
        long = queue_entries(MemoryParams(rtt_last_s=4e-6))
        assert long == 4 * short

    def test_entries_shrink_with_mtu(self):
        small = queue_entries(MemoryParams(mtu_bytes=1500))
        big = queue_entries(MemoryParams(mtu_bytes=4500))
        assert big < small

    def test_entry_width_is_the_rings_derived_width(self):
        """A ring past 127 entries (RTT_last x 4) or N = 512 paths no
        longer fits 1-byte entries; each entry then costs 2 bytes."""
        long = memory_overhead(MemoryParams(rtt_last_s=8e-6))
        assert long.queue_entries == 400
        assert long.per_qp_bytes == FLOW_ENTRY_BYTES + 400 * 2
        wide = memory_overhead(MemoryParams(n_paths=512))
        assert wide.per_qp_bytes == FLOW_ENTRY_BYTES + 100 * 2

    def test_total_scales_with_qps_and_nics(self):
        base = memory_overhead(MemoryParams()).total_bytes
        double_qp = memory_overhead(MemoryParams(n_qp=200)).total_bytes
        assert double_qp == pytest.approx(2 * base, rel=0.01)


class TestValidation:
    def test_f_must_exceed_one(self):
        with pytest.raises(ValueError):
            MemoryParams(expansion_factor=1.0)

    def test_counts_positive(self):
        with pytest.raises(ValueError):
            MemoryParams(n_qp=0)
