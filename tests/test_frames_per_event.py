"""Python frames per data packet sent, pinned with an exact count.

The per-packet path is a handful of frames per event (an idle port
transmits without queueing, the port does its own buffer and ECN
arithmetic, each NIC side handles a packet in one frame); a pass-through
layer put back on it costs every simulation, arena cell and tier-1 run.
The count — Python-level calls inside ``net.run`` over data packets sent,
builtins left out — repeats exactly for a seed, so the ceilings below sit
about 10 % above today's values: 38.6 on the AR fabric and 32.6 on the
sprayed one.  They were 42.0 and 38.1 until the per-QP timers left the
``Event`` path and three no-op calls left the per-packet path (the
``Switch._select`` pass-through for data, ``cc.on_bytes_sent`` without a
byte counter, the ``rate_bps`` property), and the AR select drew its
random number inline: 38.0 and 35.2.  Building each data packet at the
wire (one frame per data packet) while control packets stopped passing
through ``Rnic.transmit`` (one frame fewer per ACK, NACK and CNP) added
0.6 and 0.7.  The pull-mode uplink took the sprayed fabric from 35.9 to
32.6: a line-rate QP no longer arms a pacing timer per segment nor hands
the uplink a token, the wire pulls from it (``SenderQp.pull``).

The divisor is packets, not events: removing events is the better
optimisation, and it raises a per-event ratio.  Stopping when the
traffic is acknowledged rather than at a deadline took 21.8 k cheap idle
timer events out of the AR run (80.1 k -> 58.3 k) and its frames from
333 k to 289 k, yet frames per event rose from 4.16 to 4.95.  Per packet
the same change reads 48.5 -> 42.0.  docs/benchmarking.md, "Frames per
event".
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
    return net, post_messages(net, alltoall_pairs(8), 120_000)


@pytest.mark.parametrize("build, ceiling", [
    pytest.param(ar_allreduce, 42.5, id="ar_allreduce"),
    pytest.param(rps_alltoall, 36.0, id="rps_alltoall")])
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
    per_packet = frames / net.metrics.data_packets_sent
    assert per_packet <= ceiling, (
        f"{per_packet:.1f} Python frames per data packet, ceiling "
        f"{ceiling}: a layer went back onto the per-packet path")
