"""Figure 1 — performance impact of packet spraying on commodity RNICs.

Regenerates the three measurement panels of the §2.2 motivation study:

* 1b: retransmission ratio over time for the watched flow + fleet average,
* 1c: DCQCN sending rate over time for the watched flow,
* 1d: mean throughput, NIC-SR vs the Ideal oracle transport.

Paper reference points: ~16% average spurious retransmissions, ~86% of
line rate average sending rate, NIC-SR at ~71% of Ideal throughput
(68.09 vs 95.43 Gbps).  Shape targets asserted below; see EXPERIMENTS.md
for measured-vs-paper numbers.
"""

import pytest

from repro.harness.motivation import run_fig1d_comparison
from repro.harness.report import (format_series, format_table, percent,
                                  sparkline)

FLOW_BYTES = 4_000_000


def _run_pair():
    results = run_fig1d_comparison(flow_bytes=FLOW_BYTES)
    return results["nic_sr"], results["ideal"]


@pytest.mark.figure("fig1")
def test_fig1_motivation(benchmark):
    nic_sr, ideal = benchmark.pedantic(_run_pair, rounds=1, iterations=1)

    print("\n=== Figure 1b: retransmission ratio over time "
          f"(flow {nic_sr.watched_flow}) ===")
    print(format_series(nic_sr.retx_ratio_series, time_unit_ns=1000,
                        time_label="us"))
    print(f"Average spurious retransmission ratio (all flows): "
          f"{percent(nic_sr.avg_retx_ratio)}  [paper: ~16%]")

    print("\n=== Figure 1c: sending rate over time (Gbps) ===")
    print(sparkline([v for _, v in nic_sr.rate_series_gbps]))
    print(format_series(nic_sr.rate_series_gbps, time_unit_ns=1000,
                        time_label="us", value_fmt="{:.1f} Gbps"))
    print(f"Average rate: {nic_sr.avg_rate_gbps:.1f} / "
          f"{nic_sr.line_rate_gbps:.0f} Gbps "
          f"({percent(nic_sr.avg_rate_fraction)})  [paper: ~86%]")

    print("\n=== Figure 1d: average throughput ===")
    ratio = nic_sr.mean_goodput_gbps / ideal.mean_goodput_gbps
    print(format_table(
        ["reliable transport", "throughput (Gbps)"],
        [["NIC-SR", f"{nic_sr.mean_goodput_gbps:.2f}"],
         ["Ideal", f"{ideal.mean_goodput_gbps:.2f}"]]))
    print(f"NIC-SR / Ideal = {percent(ratio)}  [paper: 68.09/95.43 = 71%]")

    # --- shape assertions -------------------------------------------
    assert nic_sr.completed and ideal.completed
    assert nic_sr.drops == 0, "motivation study must be loss-free"
    assert nic_sr.avg_retx_ratio > 0.05, "persistent spurious retx"
    assert nic_sr.avg_rate_gbps < 0.92 * nic_sr.line_rate_gbps
    assert ideal.avg_retx_ratio == 0.0
    assert ideal.mean_goodput_gbps > 0.85 * ideal.line_rate_gbps
    assert ratio < 0.85, "NIC-SR clearly below Ideal"
