"""Traced reference scenarios for ``repro trace`` and ``repro profile``.

One canonical workload — a lossy alltoall on a sprayed leaf-spine fabric
— sized by node count, with a :class:`repro.obs.record.Recorder` wired
through the whole stack.  The lossy uplinks plus per-packet spraying
produce the full NACK life cycle (skew-blocked, compensated, cancelled),
which is what the causality audit exists to explain.
"""

from __future__ import annotations

from typing import Optional

from repro.harness.network import Network, NetworkConfig, TopologySpec
from repro.harness.workload import (alltoall_pairs, lossy_uplinks,
                                    post_messages, run_built)
from repro.obs.record import ALL_CATEGORIES, FAULT, NACK, Recorder
from repro.sim.engine import MS, US

#: Simulated-time deadline: a wedged run must not hang the CLI.
TRACE_DEADLINE_NS = 800 * MS


def build_traced_alltoall(*, nodes: int = 32, loss: float = 0.01,
                          seed: int = 7, message_bytes: int = 20_000,
                          scheme: str = "themis",
                          recorder: Optional[Recorder] = None,
                          retain_all: bool = False,
                          faults: Optional[dict] = None,
                          ) -> tuple[Network, Recorder]:
    """A lossy alltoall fabric with a recorder threaded through it.

    ``nodes`` must be even and >= 4 (two NICs per ToR).  The default
    recorder keeps every category in the flight ring and retains the
    NACK and FAULT categories in full for the causality audit, or every
    category (``retain_all``, for a Perfetto export); pass your own
    ``recorder`` for anything else.

    ``faults`` takes a compiled fault-scenario spec
    (:func:`repro.faults.spec.compiled_spec` output or anything it
    accepts); the installed :class:`~repro.faults.injector.FaultInjector`
    is exposed as ``net.fault_injector``.
    """
    if nodes < 4 or nodes % 2:
        raise ValueError("nodes must be even and >= 4")
    if recorder is None:
        recorder = Recorder(
            retain=set(ALL_CATEGORIES) if retain_all else {NACK, FAULT})
    num_tors = nodes // 2
    topo = TopologySpec(kind="leaf_spine", num_tors=num_tors,
                        num_spines=max(2, num_tors // 2),
                        nics_per_tor=2, link_bandwidth_bps=100e9,
                        link_delay_ns=US)
    net = Network(NetworkConfig(topology=topo, scheme=scheme,
                                transport="nic_sr", seed=seed),
                  recorder=recorder)
    if loss > 0.0:
        lossy_uplinks(net, net.topology.tors, loss, "trace-loss")
    post_messages(net, alltoall_pairs(nodes), message_bytes)
    if faults is not None:
        from repro.faults.injector import FaultInjector
        net.fault_injector = FaultInjector(net, faults)
        net.fault_injector.install()
    return net, recorder


def run_traced_alltoall(**build) -> tuple[Network, Recorder]:
    """Build (``build`` = :func:`build_traced_alltoall` keywords) and run
    the traced alltoall to :data:`TRACE_DEADLINE_NS`; returns (network,
    recorder)."""
    net, recorder = build_traced_alltoall(**build)
    run_built(net, TRACE_DEADLINE_NS)
    return net, recorder
