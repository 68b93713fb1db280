"""Experiment harness: network assembly, metrics, runners, reports."""

from repro.harness.collective_runner import (CollectiveRunResult, EvalScale,
                                             fig5_config, run_collective)
from repro.harness.metrics import FlowStats, Metrics, ThemisStats
from repro.harness.motivation import (MotivationResult, motivation_config,
                                      run_fig1d_comparison, run_motivation)
from repro.harness.analysis import (LinkUtilization, flow_fairness,
                                    jain_fairness, link_utilization,
                                    uplink_imbalance)
from repro.harness.network import (Network, NetworkConfig, TopologySpec,
                                   SCHEMES, TRANSPORTS)
from repro.harness.replication import (ReplicatedStat, replicate,
                                       replicate_many)
from repro.harness.sweep import (DCQCN_SWEEP, SweepResult, run_fig5_sweep)

__all__ = [
    "Network", "NetworkConfig", "TopologySpec", "SCHEMES", "TRANSPORTS",
    "Metrics", "FlowStats", "ThemisStats",
    "MotivationResult", "motivation_config", "run_motivation",
    "run_fig1d_comparison",
    "CollectiveRunResult", "EvalScale", "fig5_config", "run_collective",
    "SweepResult", "DCQCN_SWEEP", "run_fig5_sweep",
    "ReplicatedStat", "replicate", "replicate_many",
    "LinkUtilization", "link_utilization", "uplink_imbalance",
    "jain_fairness", "flow_fairness",
]
