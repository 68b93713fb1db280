"""Python frames per simulated event, pinned with an exact count.

The per-packet path is a handful of frames per event (an idle port
transmits without queueing, the port does its own buffer and ECN
arithmetic, each NIC side handles a packet in one frame); a pass-through
layer put back on it costs every simulation, arena cell and tier-1 run.
The count — Python-level calls inside ``net.run`` over events executed,
builtins left out — repeats exactly for a seed, so the ceilings below sit
about 10 % above today's values (4.19 on the AR fabric, 3.73 on the
sprayed one) and well under what the path cost with the queue-policy
layer and the split NIC handlers in place (6.92 and 5.97).
docs/benchmarking.md, "Frames per event".
"""

from __future__ import annotations

import cProfile
import pstats

import pytest

from repro.harness.collective_runner import EvalScale
from repro.harness.network import Network, NetworkConfig, TopologySpec
from repro.harness.workload import Traffic, alltoall_pairs, post_messages
from repro.sim.engine import SEC, US
from tests.test_goldens import fig5_smoke


def ar_allreduce() -> tuple[Network, Traffic]:
    """The ledger's ``ar_allreduce`` fabric at a tenth of its size."""
    return fig5_smoke("ar", EvalScale())


def rps_alltoall() -> tuple[Network, Traffic]:
    """Random spraying, 8 NICs all-to-all: busy ports, no adaptive LB."""
    topo = TopologySpec(kind="leaf_spine", num_tors=4, num_spines=4,
                        nics_per_tor=2, link_bandwidth_bps=100e9,
                        link_delay_ns=US)
    net = Network(NetworkConfig(topology=topo, scheme="rps",
                                transport="nic_sr", seed=7))
    traffic = post_messages(net, alltoall_pairs(8), 120_000,
                            on_done=net.stop)
    return net, traffic


@pytest.mark.parametrize("build, ceiling", [
    pytest.param(ar_allreduce, 4.6, id="ar_allreduce"),
    pytest.param(rps_alltoall, 4.1, id="rps_alltoall")])
def test_frames_per_event_ceiling(build, ceiling):
    net, traffic = build()
    profiler = cProfile.Profile()
    profiler.enable()
    net.run(until_ns=2 * SEC)
    profiler.disable()
    net.stop()
    assert traffic.complete
    frames = sum(ncalls for (filename, _line, _name),
                 (_prim, ncalls, _tt, _ct, _callers)
                 in pstats.Stats(profiler).stats.items()
                 if filename != "~")
    per_event = frames / net.sim.executed
    assert per_event <= ceiling, (
        f"{per_event:.2f} Python frames per event, ceiling {ceiling}: "
        "a layer went back onto the per-packet path")
