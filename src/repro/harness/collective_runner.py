"""Collective-communication experiment runner (§5 / Fig. 5 machinery).

Builds the evaluation fabric, starts the same collective in every
communication group simultaneously, and reports the *slowest group's*
completion time — the paper's metric for a training job's communication
bottleneck.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field
from typing import Optional

from repro.cc.dcqcn import DcqcnConfig
from repro.collectives.group import cross_rack_groups
from repro.harness.network import Network, NetworkConfig, TopologySpec
from repro.harness.workload import start_collectives
from repro.sim.engine import MS, SEC, US
from repro.switch.ecn import EcnConfig

DEFAULT_DEADLINE_NS = 60 * SEC


@dataclass(frozen=True)
class EvalScale:
    """Size of the §5 evaluation.

    The default is a *rate-scaled* fabric: the paper runs 300 MB
    collectives over 400 Gbps links (a ~6 ms transfer, amortizing the
    900 us DCQCN recovery cycles it sweeps).  A pure-Python packet
    simulation cannot push 10^8 packets, so the default shrinks the
    message to 4 MB *and* the line rate to 25 Gbps together — keeping the
    transfer-time : DCQCN-timer ratio (the quantity the Fig. 5 sweep
    actually probes) in the paper's regime while staying at ~10^5 packets
    per run.  ECN thresholds and switch buffers scale with line rate.
    Export ``REPRO_EVAL_SCALE=paper`` for the full-size configuration.
    """

    num_tors: int = 4
    num_spines: int = 4
    nics_per_tor: int = 4
    collective_bytes: int = 4_000_000
    link_bandwidth_bps: float = 25e9
    ecn_kmin_bytes: int = 15_000
    ecn_kmax_bytes: int = 60_000
    buffer_bytes: int = 4_000_000

    @classmethod
    def from_env(cls) -> "EvalScale":
        """Paper-size fabric when REPRO_EVAL_SCALE=paper is exported."""
        if os.environ.get("REPRO_EVAL_SCALE", "").lower() == "paper":
            return cls(num_tors=16, num_spines=16, nics_per_tor=16,
                       collective_bytes=300_000_000,
                       link_bandwidth_bps=400e9,
                       ecn_kmin_bytes=100_000, ecn_kmax_bytes=400_000,
                       buffer_bytes=64 * 1024 * 1024)
        return cls()


def fig5_config(scheme: str, ti_us: float, td_us: float, *,
                scale: Optional[EvalScale] = None,
                seed: int = 1) -> NetworkConfig:
    """One Fig. 5 condition: 1:1 leaf-spine + DCQCN(TI, TD)."""
    scale = scale or EvalScale.from_env()
    topo = TopologySpec(kind="leaf_spine", num_tors=scale.num_tors,
                        num_spines=scale.num_spines,
                        nics_per_tor=scale.nics_per_tor,
                        link_bandwidth_bps=scale.link_bandwidth_bps,
                        link_delay_ns=US)
    dcqcn = DcqcnConfig().with_timers(ti_us, td_us)
    ecn = EcnConfig(kmin_bytes=scale.ecn_kmin_bytes,
                    kmax_bytes=scale.ecn_kmax_bytes, pmax=0.2)
    return NetworkConfig(topology=topo, scheme=scheme, transport="nic_sr",
                         dcqcn=dcqcn, ecn=ecn,
                         buffer_bytes=scale.buffer_bytes, seed=seed)


@dataclass
class CollectiveRunResult:
    """Outcome of one (scheme, collective, DCQCN config) condition."""

    scheme: str
    collective: str
    bytes_per_group: int
    tail_completion_ns: int
    group_completion_ns: list[int]
    completed: bool
    summary: dict = field(default_factory=dict)

    @property
    def tail_completion_ms(self) -> float:
        return self.tail_completion_ns / MS


def run_collective(config: NetworkConfig, collective: str, *,
                   bytes_per_group: Optional[int] = None,
                   scale: Optional[EvalScale] = None,
                   deadline_ns: int = DEFAULT_DEADLINE_NS
                   ) -> CollectiveRunResult:
    """Run ``collective`` in every cross-rack group simultaneously."""
    scale = scale or EvalScale.from_env()
    nbytes = bytes_per_group or scale.collective_bytes
    net = Network(config)
    spec = config.topology
    traffic = start_collectives(
        net, collective,
        cross_rack_groups(spec.num_tors, spec.nics_per_tor), nbytes)
    net.run(until_ns=deadline_ns)
    completed = traffic.complete
    net.stop()

    times = [coll.completion_time_ns() if coll.complete else deadline_ns
             for coll in traffic.collectives]
    return CollectiveRunResult(
        scheme=config.scheme, collective=collective,
        bytes_per_group=nbytes,
        tail_completion_ns=max(times),
        group_completion_ns=times, completed=completed,
        summary=net.metrics.summary())


def run_collective_cell(params: dict, seed: int) -> dict:
    """The ``collective`` job kind: one Fig. 5 (condition, scheme) cell."""
    scale = EvalScale(**params["scale"])
    config = fig5_config(params["scheme"], params["ti_us"],
                         params["td_us"], scale=scale, seed=seed)
    return asdict(run_collective(
        config, params["collective"],
        bytes_per_group=params.get("bytes_per_group"), scale=scale))
