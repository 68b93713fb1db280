"""Experiment assembly: configuration -> a fully wired simulated fabric.

:class:`Network` is the public entry point most examples use: it builds
the topology, instantiates RNICs, installs the chosen load-balancing
scheme (plus the Themis middleware when requested), and exposes
``post_message`` / ``run``.

Supported schemes (``NetworkConfig.scheme``):

========================  ====================================================
``ecmp``                  flow-hash ECMP everywhere (baseline #1)
``rps``                   uniform random packet spraying
``ar``                    per-packet adaptive routing (baseline #2 in Fig. 5)
``themis``                PSN spraying + NACK validation + compensation
``themis_noval``          Themis-S spraying only (ablation: commodity NACKs)
``themis_nocomp``         validation without compensation (ablation)
``reps``                  recycled-entropy spraying (baseline zoo)
``prime``                 multi-part entropy selection (baseline zoo)
``spritz``                path-aware spraying (baseline zoo)
``sprinklers``            variable-size striping (baseline zoo)
========================  ====================================================

"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.cc.base import CongestionControl, FixedRate
from repro.cc.dcqcn import Dcqcn, DcqcnConfig
from repro.conweave.config import ConweaveConfig
from repro.harness.metrics import Metrics
from repro.net.packet import DEFAULT_MTU, FlowKey, Packet
from repro.obs import record as obs_record
from repro.obs.record import Recorder
from repro.net.topology import Topology, dragonfly, fat_tree, leaf_spine
from repro.rnic.config import RnicConfig
from repro.rnic.nic import Rnic
from repro.rnic.reliability import RECEIVER_CLASSES
from repro.sim.engine import US, Simulator
from repro.sim.rng import SimRng
from repro.switch.buffer import SharedBuffer
from repro.switch.ecn import EcnConfig, EcnMarker
from repro.switch.lb import (AdaptiveRoutingLB, EcmpLB, FlowletLB,
                             PrimeLB, RandomSprayLB, RepsLB,
                             SprinklersLB, SpritzLB)
from repro.switch.switch import Switch
from repro.themis.config import ThemisConfig

if TYPE_CHECKING:  # pragma: no cover - loaded by _switch_factory
    from repro.switch.pfc import PfcConfig

SCHEMES = ("ecmp", "rps", "ar", "flowlet", "themis", "themis_noval",
           "themis_nocomp", "conweave", "conweave_spray",
           "reps", "prime", "spritz", "sprinklers")
TRANSPORTS = tuple(RECEIVER_CLASSES)

#: Every fabric's RNICs run the one commodity-RNIC model.
RNIC_CONFIG = RnicConfig()

#: Delay before the Ideal transport's oracle notifies the sender of a drop
#: (stands in for one fabric RTT of detection latency).
ORACLE_NOTIFY_NS = 10 * US


@dataclass(frozen=True)
class TopologySpec:
    """Declarative topology selection."""

    kind: str = "leaf_spine"            # or "fat_tree" / "dragonfly"
    num_tors: int = 4
    num_spines: int = 4
    nics_per_tor: int = 2
    fat_tree_k: int = 4
    # Dragonfly dimensions (kind="dragonfly"); defaults give an 8-NIC
    # fabric that satisfies groups-1 <= routers * global_links.
    df_groups: int = 4
    df_routers: int = 2
    df_hosts: int = 1
    df_global_links: int = 2
    link_bandwidth_bps: float = 100e9
    link_delay_ns: int = US

    def __post_init__(self) -> None:
        if self.kind not in ("leaf_spine", "fat_tree", "dragonfly"):
            raise ValueError(f"unknown topology kind {self.kind!r}")


@dataclass(frozen=True)
class NetworkConfig:
    """Everything needed to reproduce one experimental condition."""

    topology: TopologySpec = TopologySpec()
    scheme: str = "ecmp"
    transport: str = "nic_sr"
    dcqcn: Optional[DcqcnConfig] = field(default_factory=DcqcnConfig)
    themis: ThemisConfig = field(default_factory=ThemisConfig)
    ecn: EcnConfig = field(default_factory=EcnConfig)
    buffer_bytes: int = 64 * 1024 * 1024
    #: None (default) runs the paper's lossy-with-ECN setting; a
    #: PfcConfig makes the data class lossless hop by hop.
    pfc: Optional[PfcConfig] = None
    #: Flowlet inactivity gap for scheme="flowlet" (§2.3 baseline).
    flowlet_gap_ns: int = 50 * US
    #: Settings for the conweave / conweave_spray baselines (§2.3).
    conweave: ConweaveConfig = field(default_factory=ConweaveConfig)
    seed: int = 1

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.transport not in TRANSPORTS:
            raise ValueError(f"unknown transport {self.transport!r}")


class Network:
    """A wired-up fabric ready to carry workloads."""

    def __init__(self, config: NetworkConfig, *,
                 sim: Optional[Simulator] = None,
                 recorder: Optional[Recorder] = None) -> None:
        self.config = config
        #: Injectable engine: the golden determinism tests run the same
        #: fabric on the reference heap engine (``tests/sim/heap_oracle``)
        #: to A/B against the calendar queue.
        self.sim = sim if sim is not None else Simulator()
        #: Handle of the workload posted through ``repro.harness.workload``
        #: (parts left, done time), and the installed fault injector.
        self.traffic = None
        self.fault_injector = None
        #: Observability recorder (repro.obs); channels are threaded to
        #: every component in _wire_recorder().  None = tracing off.
        self.recorder = recorder
        self.rng = SimRng(config.seed)
        self.metrics = Metrics(self.sim)
        #: Every RepsLB instance built by _make_lb (populated during
        #: topology construction, so it must exist before it).
        self._reps_lbs: list[RepsLB] = []
        self.topology = self._build_topology()
        self.nics = self._build_nics()
        self.topology.build_routes()
        #: Themis-S realizes Eq. 1 through a PathMap (Fig. 3) on a fat
        #: tree and picks the uplink directly elsewhere.
        self.sprays_by_pathmap = (config.scheme.startswith("themis")
                                  and config.topology.kind == "fat_tree")
        if config.scheme.startswith("themis"):
            self._install_themis()
        elif config.scheme.startswith("conweave"):
            self._install_conweave()
        if self._reps_lbs:
            self.metrics.ack_listeners.append(self._reps_recycle)
        if config.transport == "ideal":
            self.metrics.drop_listeners.append(self._oracle_drop)
        elif config.transport == "mp_rdma":
            # MPRDMA-style senders know the fabric's path counts (their
            # transport owns path selection in the real proposal).
            for nic in self.nics:
                nic.nack_filter_paths = (
                    lambda flow: self.topology.equal_paths(flow.src,
                                                           flow.dst))
        if recorder is not None:
            self._wire_recorder(recorder)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _make_lb(self, name: str):
        scheme = self.config.scheme
        if scheme in ("rps", "conweave_spray"):
            return RandomSprayLB(self.rng.fork(f"lb-{name}"))
        if scheme == "ar":
            return AdaptiveRoutingLB(self.rng.fork(f"ar-{name}"))
        if scheme == "flowlet":
            return FlowletLB(self.rng.fork(f"fl-{name}"),
                             gap_ns=self.config.flowlet_gap_ns)
        if scheme == "reps":
            lb = RepsLB(self.rng.fork(f"reps-{name}"))
            self._reps_lbs.append(lb)
            return lb
        if scheme == "prime":
            return PrimeLB()
        if scheme == "spritz":
            return SpritzLB(self.rng.fork(f"spz-{name}"),
                            mtu_bytes=DEFAULT_MTU)
        if scheme == "sprinklers":
            return SprinklersLB()
        # ECMP for both the ecmp scheme and as the non-sprayed fallback in
        # themis modes (Themis-S overrides selection where it applies).
        return EcmpLB()

    def _switch_factory(self, name: str) -> Switch:
        switch = Switch(
            self.sim, name,
            lb=self._make_lb(name),
            buffer=SharedBuffer(self.config.buffer_bytes),
            ecn_marker=EcnMarker(self.config.ecn,
                                 self.rng.fork(f"ecn-{name}")),
            metrics=self.metrics)
        if self.config.pfc is not None:
            from repro.switch.pfc import PfcController
            switch.pfc = PfcController(self.sim, switch, self.config.pfc)
        return switch

    def _build_topology(self) -> Topology:
        spec = self.config.topology
        if spec.kind == "leaf_spine":
            return leaf_spine(
                self.sim, self._switch_factory,
                num_tors=spec.num_tors, num_spines=spec.num_spines,
                nics_per_tor=spec.nics_per_tor,
                link_bandwidth_bps=spec.link_bandwidth_bps,
                link_delay_ns=spec.link_delay_ns)
        if spec.kind == "dragonfly":
            return dragonfly(
                self.sim, self._switch_factory,
                groups=spec.df_groups,
                routers_per_group=spec.df_routers,
                hosts_per_router=spec.df_hosts,
                global_links_per_router=spec.df_global_links,
                link_bandwidth_bps=spec.link_bandwidth_bps,
                link_delay_ns=spec.link_delay_ns)
        return fat_tree(self.sim, self._switch_factory, k=spec.fat_tree_k,
                        link_bandwidth_bps=spec.link_bandwidth_bps,
                        link_delay_ns=spec.link_delay_ns)

    def _cc_factory_for(self, line_rate_bps: float
                        ) -> Callable[[FlowKey], CongestionControl]:
        def factory(flow: FlowKey) -> CongestionControl:
            if self.config.dcqcn is None or self.config.transport == "ideal":
                return FixedRate(self.sim, line_rate_bps)
            cc = Dcqcn(self.sim, line_rate_bps, self.config.dcqcn,
                       rate_trace=self.metrics.rate_trace_for(flow))
            if self.recorder is not None:
                cc.rec = self.recorder.channel(obs_record.CC)
                # Only pay the label f-string when the CC category is on.
                if cc.rec is not None:
                    cc.rec_loc = f"cc:{flow}"
            return cc
        return factory

    def _build_nics(self) -> list[Rnic]:
        nics = []
        line_rate = self.config.topology.link_bandwidth_bps
        for nic_id in range(self.topology.num_nics):
            nic = Rnic(self.sim, nic_id,
                       config=RNIC_CONFIG, metrics=self.metrics,
                       rng=self.rng.fork(f"nic{nic_id}"),
                       cc_factory=self._cc_factory_for(line_rate),
                       transport=self.config.transport)
            nic.uplink = self.topology.attach_nic(nic_id, nic)
            # A packet lost on the host cable is a drop like any other.
            nic.uplink.on_drop = self.metrics.on_drop
            nics.append(nic)
        return nics

    # ------------------------------------------------------------------
    # Themis installation
    # ------------------------------------------------------------------
    def _n_paths_for(self, flow: FlowKey) -> int:
        if self.sprays_by_pathmap:
            return self.topology.path_count(flow.src, flow.dst)
        return self.topology.equal_paths(flow.src, flow.dst)

    def _queue_capacity_for(self, flow: FlowKey) -> int:
        """Ring-queue sizing (§4), with the last-hop RTT taken as
        propagation plus the ECN-bounded worst-case queueing delay at the
        ToR down port — in deployment this is the measured RTT_last."""
        spec = self.config.topology
        bandwidth = spec.link_bandwidth_bps
        queueing_ns = int(self.config.ecn.kmax_bytes * 8 * 1e9 / bandwidth)
        rtt_ns = 2 * spec.link_delay_ns + queueing_ns
        return self.config.themis.queue_entries(
            bandwidth, rtt_ns, DEFAULT_MTU)

    def _install_themis(self) -> None:
        # The ablation schemes switch Themis-D's halves off: themis_noval
        # both (spraying only), themis_nocomp compensation.
        from repro.themis.dest import ThemisDest
        from repro.themis.pathmap import build_pathmap
        from repro.themis.source import ThemisSource

        scheme = self.config.scheme
        validate = scheme != "themis_noval"
        compensate = scheme == "themis"
        provider = None
        if self.sprays_by_pathmap:
            def provider(flow: FlowKey, sport: int) -> list[int]:
                return build_pathmap(self.topology, flow, sport,
                                     self._n_paths_for(flow))
        for tor in self.topology.tors:
            tor.add_middleware(ThemisDest(
                self.config.themis, self.metrics,
                n_paths_for=self._n_paths_for,
                queue_capacity_for=self._queue_capacity_for,
                validate=validate, compensate=compensate))
            tor.add_middleware(ThemisSource(
                self.config.themis, pathmap_provider=provider))

    def _reps_recycle(self, flow: FlowKey, epsn: int) -> None:
        """Metrics ack_listeners hook: fan one cumulative ACK out to
        every REPS instance (each keeps only state for flows it saw)."""
        for lb in self._reps_lbs:
            lb.on_ack(flow, epsn)

    def _install_conweave(self) -> None:
        """§2.3 baseline: in-order delivery enforced at the dst ToR.

        ``conweave`` pairs the reorder buffer with flow-level rerouting
        (the system it models); ``conweave_spray`` pairs it with random
        packet spraying to measure what full packet-level LB would
        demand of the reordering resources.
        """
        from repro.conweave.dest import InOrderDest
        from repro.conweave.source import RerouteSource

        self.conweave_dests: list[InOrderDest] = []
        for tor in self.topology.tors:
            dest = InOrderDest(self.config.conweave)
            tor.add_middleware(dest)
            self.conweave_dests.append(dest)
            if self.config.scheme == "conweave":
                tor.add_middleware(RerouteSource(self.config.conweave))

    # ------------------------------------------------------------------
    # Link failure handling (§6)
    # ------------------------------------------------------------------
    def reconverge(self) -> bool:
        """Routing converges on the live graph; returns ``fabric_intact()``.

        The paper's §6 failure story, run by the fault injector
        ``converge_us`` after every cable or switch transition: dead
        ports leave every equal-cost candidate set, REPS purges the
        entropies it cached for them, and — because PSN-based spraying
        can no longer keep Eq. 1's path mapping consistent — every ToR
        bypasses its middleware (Themis reverts to plain ECMP) until the
        fabric is whole again.  A transient partition is legitimate:
        traffic through it surfaces as accounted drops.
        """
        self.topology.build_routes()
        for lb in self._reps_lbs:
            lb.evict_dead()
        intact = self.fabric_intact()
        for tor in self.topology.tors:
            for mw in tor.middleware:
                if intact:
                    mw.enable()
                else:
                    mw.disable()
        return intact

    def fabric_intact(self) -> bool:
        """Is every cable healthy and every switch forwarding?"""
        return (all(link.up for link in self.topology.links)
                and all(s.active for s in self.topology.switches))

    # ------------------------------------------------------------------
    # Observability wiring
    # ------------------------------------------------------------------
    def _wire_recorder(self, rec: Recorder) -> None:
        """Hand every component its pre-resolved category channel.

        A channel is ``None`` when the category is disabled, so hot
        paths pay a single attribute test per packet.  Runs after all
        construction: switches, ports, PFC, and Themis middleware exist;
        QPs and CC instances are created lazily and resolve their
        channels from ``nic.recorder`` / the cc factory at that point.
        """
        pkt = rec.channel(obs_record.PACKET)
        queue = rec.channel(obs_record.QUEUE)
        ecn = rec.channel(obs_record.ECN)
        drop = rec.channel(obs_record.DROP)
        nack = rec.channel(obs_record.NACK)
        pfc = rec.channel(obs_record.PFC)
        # The per-packet-rate call sites hold the recorder's emitter
        # closures instead of the recorder itself — one plain call per
        # event, no attribute loads.
        hop = pkt.packet_hop if pkt is not None else None
        enq, deq = ((queue.queue_enq, queue.queue_deq)
                    if queue is not None else (None, None))
        for switch in self.topology.switches:
            switch.rec = hop
            switch.rec_drop = drop
            if switch.pfc is not None:
                switch.pfc.rec = pfc
            for port in switch.ports:
                port._rec_enq = enq
                port._rec_deq = deq
                port._rec_drop = drop
                port._rec_ecn = ecn
            for mw in switch.middleware:
                if hasattr(mw, "rec"):  # Themis-D, the one NACK filter
                    mw.rec = nack
        for nic in self.nics:
            nic.recorder = rec
            for port in nic.ports:
                port._rec_enq = enq
                port._rec_deq = deq
                port._rec_drop = drop
        self.metrics.recorder = rec
        obs_record.set_active(rec)

    # ------------------------------------------------------------------
    # Ideal-transport oracle
    # ------------------------------------------------------------------
    def _oracle_drop(self, packet: Packet) -> None:
        if not packet.is_data:
            return
        sender = self.nics[packet.flow.src].senders.get(packet.flow)
        if sender is not None:
            self.sim.fire(ORACLE_NOTIFY_NS, sender.force_retransmit,
                          packet.psn)

    # ------------------------------------------------------------------
    # Workload API
    # ------------------------------------------------------------------
    def post_message(self, src: int, dst: int, nbytes: int, *, qp: int = 0,
                     on_receiver_done: Optional[Callable[[], None]] = None
                     ) -> FlowKey:
        """Post a message on the (src, dst, qp) QP and pre-post the
        matching receive.  Returns the flow key."""
        flow = self.nics[src].post_send(dst, nbytes, qp=qp)
        self.nics[dst].expect_message(src, nbytes, qp=qp,
                                      on_done=on_receiver_done)
        return flow

    def watch_flow(self, src: int, dst: int) -> FlowKey:
        """Enable traces for the flow on QP 0.  Call before posting."""
        flow = FlowKey(src, dst)
        self.metrics.watch_flow(flow)
        return flow

    def run(self, until_ns: Optional[int] = None) -> int:
        """Run to quiescence (or ``until_ns``); returns events executed.

        When a recorder is attached and the simulation raises, the
        flight-recorder ring is dumped (best-effort) before the error
        propagates, so post-mortems always have the last N events.
        """
        try:
            return self.sim.run(until=until_ns)
        except BaseException:
            if self.recorder is not None:
                try:
                    self.recorder.dump_flight(reason="sim-exception")
                except Exception:  # pragma: no cover - dump best-effort
                    pass
            raise

    def stop(self) -> None:
        """Cancel all NIC timers so the event queue can drain."""
        for nic in self.nics:
            nic.stop()

    @property
    def now_ns(self) -> int:
        return self.sim.now
