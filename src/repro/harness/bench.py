"""The three reference scenarios: fixed rps fabrics with traffic posted.

* ``incast``   — 15-to-1 congestion onto one receiver (deep queues, ECN
  marking, CNP feedback).
* ``alltoall`` — all-to-all spray across a 32-node leaf-spine fabric
  (16 ToRs x 8 spines, the Fig. 5 regime).
* ``lossy``    — recovery on a lossy uplink (NACK/RTO churn, the
  sparsest calendar).

Nothing here measures time.  The users are ``tests/test_goldens.py``
(quick-mode event counts and the counter surface), the heap-oracle tests
(``tests/sim/test_batched_golden.py``: bitwise event order against the
reference heap engine), ``tests/obs/test_profile.py``, and the
performance ledger, whose point workloads share :data:`DEADLINE_NS`
and whose ``spray_alltoall`` builds the full-mode ``alltoall`` fabric
(docs/benchmarking.md).
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.harness.network import Network, NetworkConfig, TopologySpec
from repro.harness.workload import (alltoall_pairs, lossy_uplinks,
                                    post_messages)
from repro.sim.engine import MS, US

#: Scenario names in run order.
SCENARIOS = ("incast", "alltoall", "lossy")
#: Hard simulated-time deadline so a regression can't hang a run.
DEADLINE_NS = 800 * MS


#: name -> ((ToRs, spines, NICs per ToR), (src, dst) pairs, full-mode
#: message bytes, 1% loss on tor0's uplinks?).
_SCENARIO_SPECS = {
    "incast": ((2, 2, 8), [(src, 0) for src in range(1, 16)],
               2_000_000, False),
    # Wide fabric: 8-way spray at every source ToR, 992 concurrent flows.
    "alltoall": ((16, 8, 2), alltoall_pairs(32), 120_000, False),
    # Spraying keeps hitting the lossy uplinks, so recovery (NACKs, RTO
    # re-arms) dominates the event mix.
    "lossy": ((2, 2, 2), ((0, 2), (1, 3), (2, 0), (3, 1)),
              8_000_000, True),
}


def build_scenario(name: str, quick: bool, sim=None,
                   recorder=None) -> Network:
    """The wired fabric of one scenario with its traffic posted.

    Quick mode shrinks message sizes ~8x.  The fabric stops once every
    message is delivered and acknowledged (the one stop rule of
    :class:`~repro.harness.workload.Traffic`), so a run covers the
    traffic regime, not a tail of idle DCQCN timer ticks.
    """
    (num_tors, num_spines, nics_per_tor), pairs, nbytes, lossy = \
        _SCENARIO_SPECS[name]
    topo = TopologySpec(kind="leaf_spine", num_tors=num_tors,
                        num_spines=num_spines, nics_per_tor=nics_per_tor,
                        link_bandwidth_bps=100e9, link_delay_ns=US)
    net = Network(NetworkConfig(topology=topo, scheme="rps",
                                transport="nic_sr", seed=7), sim=sim,
                  recorder=recorder)
    if lossy:
        lossy_uplinks(net, net.topology.tors[:1], 0.01, "bench-loss")
    post_messages(net, pairs, nbytes // 8 if quick else nbytes)
    return net


#: ``BUILDERS[name](quick, sim, recorder)`` — what the golden tests call
#: to run the scenarios on the reference engine.
BUILDERS: dict[str, Callable[..., Network]] = {
    name: partial(build_scenario, name) for name in SCENARIOS}
