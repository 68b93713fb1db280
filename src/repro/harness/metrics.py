"""Central measurement hub.

One :class:`Metrics` instance per experiment run.  Components push raw
events (packet sent, retransmission, drop, NACK blocked, ...) and the
harness reads aggregated counters and per-flow records out of it to
regenerate the paper's figures (time series are the recorder's:
``repro.obs.record.Recorder(window_ns=...)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.net.packet import FlowKey, Packet
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.port import Port


@dataclass
class JobCounters:
    """Progress/failure counters for one experiment-runner invocation.

    Filled in by :class:`repro.harness.jobs.JobRunner`; lives here so the
    measurement hub owns every counter surface the harness reports on.
    """

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    #: Jobs satisfied from a resume checkpoint instead of recomputed.
    skipped: int = 0
    #: Jobs satisfied from the spec-hash results store (run cache).
    cache_hits: int = 0

    @property
    def executed(self) -> int:
        return self.completed + self.failed

    def summary(self) -> dict:
        return {"jobs_submitted": self.submitted,
                "jobs_completed": self.completed,
                "jobs_failed": self.failed,
                "jobs_retried": self.retries,
                "jobs_timed_out": self.timeouts,
                "worker_crashes": self.crashes,
                "jobs_skipped_from_checkpoint": self.skipped,
                "jobs_cache_hits": self.cache_hits}

    def __str__(self) -> str:
        parts = [f"{self.completed}/{self.submitted} done"]
        parts += [f"{count} {what}" for count, what in (
            (self.skipped, "resumed"), (self.cache_hits, "cached"),
            (self.retries, "retried"), (self.timeouts, "timed out"),
            (self.crashes, "crashed"), (self.failed, "FAILED")) if count]
        return ", ".join(parts)


@dataclass(slots=True)
class FlowStats:
    """Per-flow (per sender QP) counters and timings: the one record of
    packets sent and retransmitted, which the run totals sum."""

    flow: FlowKey
    start_ns: int = 0               # the flow's first post (SenderQp)
    sender_done_ns: Optional[int] = None
    receiver_done_ns: Optional[int] = None
    bytes_posted: int = 0
    packets_sent: int = 0
    retransmissions: int = 0
    nacks_received: int = 0
    cnps_received: int = 0
    timeouts: int = 0
    receiver_duplicates: int = 0
    receiver_ooo: int = 0

    def goodput_gbps(self) -> float:
        """Application goodput: posted bytes over sender completion time."""
        if self.sender_done_ns is None or self.sender_done_ns <= self.start_ns:
            return 0.0
        return self.bytes_posted * 8.0 / (self.sender_done_ns
                                          - self.start_ns)


@dataclass
class ThemisStats:
    """Counters for the in-network middleware.  A cancelled compensation
    is not counted here: the NACK audit's ``nack_cancel`` records own
    that number."""

    nacks_blocked: int = 0
    nacks_forwarded: int = 0
    nacks_compensated: int = 0
    tpsn_not_found: int = 0
    queue_overflows: int = 0

    @property
    def nacks_inspected(self) -> int:
        """Every inspected NACK is either blocked or forwarded."""
        return self.nacks_blocked + self.nacks_forwarded

    @property
    def block_ratio(self) -> float:
        if self.nacks_inspected == 0:
            return 0.0
        return self.nacks_blocked / self.nacks_inspected


class Metrics:
    """Experiment-wide counters and per-flow stats."""

    def __init__(self, sim: Simulator) -> None:
        # ``sim`` is unread; it stays while the ledger's micro-benchmarks
        # (``benchmarks/ledger``) still pass it.

        # Global counters, each bumped where the event happens: drops by
        # on_drop, the control packets by the receiver that emits them.
        # Data packets sent and retransmitted are per-flow (FlowStats)
        # and summed on read.
        self.drops = 0
        self.nacks_generated = 0
        self.acks_generated = 0
        self.cnps_generated = 0

        self.flows: dict[FlowKey, FlowStats] = {}
        self.themis = ThemisStats()

        # Oracle hook used by the Ideal transport: called on every data
        # packet drop so the sender can schedule a clean retransmission.
        self.drop_listeners: list[Callable[[Packet], None]] = []

        # ACK-generation hook: the receiver calls each with (flow,
        # cumulative epsn) every time it emits an ACK.  REPS entropy
        # recycling rides this (see repro.switch.lb.RepsLB); empty
        # list = free.
        self.ack_listeners: list[Callable[[FlowKey, int], None]] = []

        # Posted messages still open — sends not yet acknowledged plus
        # receives not yet delivered — and the hook fired when the count
        # returns to zero (``Traffic`` wires it to ``net.stop``, ending a
        # run at completion instead of ticking idle timers to a deadline).
        self.open_messages = 0
        self.on_idle: Optional[Callable[[], None]] = None

        # Observability recorder of the run, attached by Network when
        # tracing is on; summary() then surfaces its per-event counts.
        self.recorder = None

    # ------------------------------------------------------------------
    # Flow registration
    # ------------------------------------------------------------------
    def flow_stats(self, flow: FlowKey) -> FlowStats:
        stats = self.flows.get(flow)
        if stats is None:
            stats = FlowStats(flow)
            self.flows[flow] = stats
        return stats

    # ------------------------------------------------------------------
    # Event sinks
    # ------------------------------------------------------------------
    def on_drop(self, packet: Packet,
                port: Optional["Port"] = None) -> None:
        """One discarded packet.  Shaped like the ``Port.on_drop`` hook so
        switch ports and NIC uplinks install it directly; a switch-level
        discard (no route, switch down) has no port."""
        self.drops += 1
        for listener in self.drop_listeners:
            listener(packet)

    def message_closed(self) -> None:
        """A posted send was acknowledged or a posted receive delivered.

        QPs call this *after* the message's own ``on_done``, so a
        completion callback that posts the next message keeps the
        count above zero.
        """
        self.open_messages -= 1
        if not self.open_messages and self.on_idle is not None:
            self.on_idle()

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def data_packets_sent(self) -> int:
        return sum(f.packets_sent for f in self.flows.values())

    @property
    def retransmissions(self) -> int:
        return sum(f.retransmissions for f in self.flows.values())

    @property
    def spurious_ratio(self) -> float:
        """Fraction of all transmitted data packets that were
        retransmissions — the paper's Fig. 1b headline number."""
        sent = self.data_packets_sent
        return self.retransmissions / sent if sent else 0.0

    def all_flows_done(self) -> bool:
        return all(f.receiver_done_ns is not None
                   for f in self.flows.values())

    def mean_goodput_gbps(self) -> float:
        flows = [f for f in self.flows.values() if f.bytes_posted > 0]
        if not flows:
            return 0.0
        return sum(f.goodput_gbps() for f in flows) / len(flows)

    def summary(self) -> dict:
        """Flat dict of headline numbers (handy for reports/tests)."""
        doc = {
            "data_packets_sent": self.data_packets_sent,
            "retransmissions": self.retransmissions,
            "spurious_ratio": round(self.spurious_ratio, 4),
            "drops": self.drops,
            "nacks_generated": self.nacks_generated,
            "cnps_generated": self.cnps_generated,
            "themis_blocked": self.themis.nacks_blocked,
            "themis_forwarded": self.themis.nacks_forwarded,
            "themis_compensated": self.themis.nacks_compensated,
            "mean_goodput_gbps": round(self.mean_goodput_gbps(), 3),
        }
        # Telemetry keys appear only when a run traced, so untraced
        # summaries (golden comparisons) are byte-identical to before.
        if self.recorder is not None:
            doc["trace_events"] = self.recorder.total_events()
            doc["trace_counts"] = self.recorder.counts_summary()
        return doc
