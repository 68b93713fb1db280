"""Result export: per-flow CSV and experiment JSON payloads.

Downstream analysis (pandas, gnuplot, spreadsheets) wants flat files;
these helpers serialize a run's :class:`~repro.harness.metrics.Metrics`
without any third-party dependency.
"""

from __future__ import annotations

import csv
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING

from repro.harness.report import write_json

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.harness.metrics import Metrics

FLOW_FIELDS = (
    "src", "dst", "qp", "bytes_posted", "packets_sent",
    "retransmissions", "nacks_received", "cnps_received", "timeouts",
    "receiver_duplicates", "receiver_ooo", "start_ns", "sender_done_ns",
    "receiver_done_ns", "goodput_gbps",
)


def flows_to_csv(metrics: "Metrics", path: str | Path) -> Path:
    """One row per flow (sender QP) with counters and timings."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FLOW_FIELDS)
        for flow, stats in sorted(metrics.flows.items(),
                                  key=lambda kv: (kv[0].src, kv[0].dst,
                                                  kv[0].qp)):
            writer.writerow([
                flow.src, flow.dst, flow.qp, stats.bytes_posted,
                stats.packets_sent, stats.retransmissions,
                stats.nacks_received, stats.cnps_received, stats.timeouts,
                stats.receiver_duplicates, stats.receiver_ooo,
                stats.start_ns, stats.sender_done_ns,
                stats.receiver_done_ns,
                round(stats.goodput_gbps(), 4),
            ])
    return path


def run_to_json(metrics: "Metrics", path: str | Path, *,
                extra: dict | None = None) -> Path:
    """Whole-run payload: global summary + Themis stats + per-flow."""
    payload = {
        "summary": metrics.summary(),
        # nacks_inspected is a property, which asdict() leaves out.
        "themis": {"nacks_inspected": metrics.themis.nacks_inspected,
                   **asdict(metrics.themis)},
        "flows": [
            {
                "flow": str(flow),
                "bytes_posted": stats.bytes_posted,
                "packets_sent": stats.packets_sent,
                "retransmissions": stats.retransmissions,
                "goodput_gbps": round(stats.goodput_gbps(), 4),
                "receiver_done_ns": stats.receiver_done_ns,
            }
            for flow, stats in sorted(metrics.flows.items(),
                                      key=lambda kv: str(kv[0]))
        ],
    }
    if extra:
        payload["experiment"] = extra
    return write_json(path, payload)
