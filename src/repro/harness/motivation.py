"""Fig. 1 motivation study.

Reproduces §2.2's experiment: a leaf-spine fabric with eight nodes in two
interleaved groups ({0,2,4,6} and {1,3,5,7}), each node streaming one
large message to the next node of its group (a ring per group), random
packet spraying as the load balancer, 100 Gbps links.

Measured outputs mirror the figure panels:

* **1b** — retransmission ratio over time for a chosen flow (0 -> 2) and
  the average spurious-retransmission ratio over all flows,
* **1c** — the DCQCN sending rate of that flow over time and its
  time-weighted average vs line rate,
* **1d** — mean per-flow goodput, compared across transports
  (``nic_sr`` vs ``ideal``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cc.dcqcn import DcqcnConfig
from repro.collectives.group import interleaved_ring_groups, ring_pairs
from repro.harness.network import Network, NetworkConfig, TopologySpec
from repro.harness.workload import post_messages, run_built
from repro.net.packet import FlowKey
from repro.obs.record import CC, Recorder
from repro.sim.engine import SEC, US

#: Paper value: 100 MB per flow at 100 Gbps.  Pure-Python default is
#: size-scaled (see DESIGN.md §3); pass ``flow_bytes`` to raise it.
DEFAULT_FLOW_BYTES = 4_000_000
DEFAULT_DEADLINE_NS = 2 * SEC
#: The flow Fig. 1b/1c trace: node 0 to the next node of its ring.
WATCHED_FLOW = FlowKey(0, 2)
#: Fig. 1b's window: retransmissions over sends per 100 us.
WINDOW_NS = 100 * US


def motivation_config(scheme: str = "rps", transport: str = "nic_sr",
                      seed: int = 1, **overrides) -> NetworkConfig:
    """The Fig. 1a fabric: 4 racks x 2 NICs, 1:1 subscribed, 100 Gbps.

    Two spines give each rack exactly as much uplink as host capacity, so
    when both groups stream at line rate the core runs fully loaded and
    multi-path delay variation is persistent — the regime §2.2 studies.
    The DCQCN timers follow the NIC-default style recovery (TI = 55 us)
    with a rate-decrease interval of 300 us, which reproduces Fig. 1c's
    sparse NACK-triggered dips; Fig. 5 sweeps (TI, TD) explicitly.
    """
    topo = TopologySpec(kind="leaf_spine", num_tors=4, num_spines=2,
                        nics_per_tor=2, link_bandwidth_bps=100e9,
                        link_delay_ns=US)
    overrides.setdefault("dcqcn", DcqcnConfig().with_timers(55, 300))
    return NetworkConfig(topology=topo, scheme=scheme, transport=transport,
                         seed=seed, **overrides)


@dataclass
class MotivationResult:
    """Everything Fig. 1's panels are drawn from."""

    scheme: str
    transport: str
    flow_bytes: int
    watched_flow: FlowKey
    duration_ns: int
    completed: bool
    # Fig. 1b
    retx_ratio_series: list[tuple[int, float]] = field(default_factory=list)
    avg_retx_ratio: float = 0.0
    # Fig. 1c
    rate_series_gbps: list[tuple[int, float]] = field(default_factory=list)
    avg_rate_gbps: float = 0.0
    line_rate_gbps: float = 100.0
    # Fig. 1d
    mean_goodput_gbps: float = 0.0
    # Context
    drops: int = 0
    nacks: int = 0
    summary: dict = field(default_factory=dict)

    @property
    def avg_rate_fraction(self) -> float:
        return self.avg_rate_gbps / self.line_rate_gbps


def build_motivation(config: Optional[NetworkConfig] = None, *,
                     flow_bytes: int = DEFAULT_FLOW_BYTES) -> Network:
    """The Fig. 1 fabric with its two-ring traffic posted, and a recorder
    that keeps what Fig. 1b/1c plot (the sink's windows, the ``cc_rate``
    rows); run it with :func:`~repro.harness.workload.run_built` and read
    ``net.traffic``."""
    if config is None:
        config = motivation_config()
    net = Network(config, recorder=Recorder(
        categories=(CC,), retain=(CC,), window_ns=WINDOW_NS))
    spec = config.topology
    post_messages(net, ring_pairs(interleaved_ring_groups(
        spec.num_tors * spec.nics_per_tor, 2)), flow_bytes)
    return net


def run_motivation(config: Optional[NetworkConfig] = None, *,
                   flow_bytes: int = DEFAULT_FLOW_BYTES,
                   deadline_ns: int = DEFAULT_DEADLINE_NS
                   ) -> MotivationResult:
    """Run the two-ring workload and collect the Fig. 1 measurements."""
    net = build_motivation(config, flow_bytes=flow_bytes)
    run_built(net, deadline_ns)
    config = net.config
    traffic = net.traffic
    watched = WATCHED_FLOW

    metrics = net.metrics
    line_gbps = config.topology.link_bandwidth_bps / 1e9
    result = MotivationResult(
        scheme=config.scheme, transport=config.transport,
        flow_bytes=flow_bytes, watched_flow=watched,
        duration_ns=traffic.end_ns, completed=traffic.complete,
        line_rate_gbps=line_gbps,
        drops=metrics.drops, nacks=metrics.nacks_generated,
        summary=metrics.summary())

    recorder = net.recorder
    result.retx_ratio_series = recorder.retx_ratios().get(watched, [])
    result.avg_retx_ratio = metrics.spurious_ratio

    # The label the watched QP's own CC writes (a fixed-rate CC has none).
    loc = getattr(net.nics[watched.src].senders[watched].cc, "rec_loc", None)
    rates = [(t, data["rate_bps"])
             for t, _, _, where, data in recorder.records(CC)
             if where == loc]
    result.rate_series_gbps = [(t, v / 1e9) for t, v in rates]
    stats = metrics.flows.get(watched)
    if rates and stats is not None:
        end = stats.sender_done_ns or net.now_ns
        # The rate in force from flow start to completion: line rate
        # until the first change, the last value held to the end.
        in_force = [(stats.start_ns, config.topology.link_bandwidth_bps),
                    *(r for r in rates if r[0] <= end)]
        in_force.append((end, in_force[-1][1]))
        result.avg_rate_gbps = time_weighted_mean(in_force) / 1e9
    else:
        result.avg_rate_gbps = line_gbps

    result.mean_goodput_gbps = metrics.mean_goodput_gbps()
    return result


def time_weighted_mean(samples: list[tuple[int, float]]) -> float:
    """Mean of ``(time_ns, value)`` samples, each weighted by how long it
    held (the last one not at all); the plain mean if no time passes."""
    total = 0.0
    weight = 0
    for (t0, v), (t1, _) in zip(samples, samples[1:]):
        total += v * (t1 - t0)
        weight += t1 - t0
    if weight == 0:
        return (sum(v for _, v in samples) / len(samples)
                if samples else 0.0)
    return total / weight


def run_fig1d_comparison(*, flow_bytes: int = DEFAULT_FLOW_BYTES
                         ) -> dict[str, MotivationResult]:
    """NIC-SR vs Ideal average throughput under random spraying."""
    return {transport: run_motivation(motivation_config(transport=transport),
                                      flow_bytes=flow_bytes)
            for transport in ("nic_sr", "ideal")}
