"""repro — Themis: packet spraying over commodity RNICs, reproduced.

A packet-level discrete-event simulation of the full system described in
"Enabling Packet Spraying over Commodity RNICs with In-Network Support":
the commodity RNIC model (NIC-SR / Go-Back-N reliable transports, DCQCN),
a Clos fabric with pluggable load balancing, and the Themis ToR middleware
(PSN-based spraying, NACK validation, NACK compensation).

Quickstart::

    from repro import Network, NetworkConfig, TopologySpec

    config = NetworkConfig(
        topology=TopologySpec(num_tors=4, num_spines=4, nics_per_tor=2),
        scheme="themis")
    net = Network(config)
    net.post_message(src=0, dst=2, nbytes=1_000_000)
    net.run()
    print(net.metrics.summary())
"""

import importlib

__version__ = "1.0.0"

#: The quickstart names, by defining module.  They load on first use
#: (PEP 562), so ``import repro.harness.network`` pulls in no sweep, job
#: runner or audit it does not call.
_HOMES = {
    "repro.harness.network": ("Network", "NetworkConfig", "TopologySpec"),
    "repro.harness.metrics": ("Metrics",),
    "repro.themis.config": ("ThemisConfig",),
    "repro.themis.memory": ("memory_overhead", "MemoryParams"),
    "repro.themis.pathmap": ("build_pathmap",),
    "repro.cc.dcqcn": ("Dcqcn", "DcqcnConfig"),
    "repro.cc.base": ("FixedRate",),
    "repro.switch.ecn": ("EcnConfig",),
    "repro.rnic.nic": ("Rnic",),
    "repro.rnic.config": ("RnicConfig",),
    "repro.net.packet": ("FlowKey", "Packet", "PacketType"),
    "repro.collectives": ("RingAllreduce", "RingAllgather",
                          "RingReduceScatter", "AllToAll",
                          "HalvingDoublingAllreduce", "TrainingJob",
                          "cross_rack_groups", "interleaved_ring_groups"),
    "repro.harness.motivation": ("run_motivation", "motivation_config",
                                 "run_fig1d_comparison", "MotivationResult"),
    "repro.harness.collective_runner": ("run_collective",
                                        "CollectiveRunResult",
                                        "fig5_config", "EvalScale"),
    "repro.harness.sweep": ("run_fig5_sweep", "SweepResult", "DCQCN_SWEEP"),
}
_EXPORTS = {name: module for module, names in _HOMES.items()
            for name in names}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
