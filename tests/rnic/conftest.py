"""Fixtures: two RNICs wired back-to-back with a direct cable.

No switches involved — reliability/pacing behaviour in isolation.
"""

import pytest

from repro.cc.base import FixedRate
from repro.harness.metrics import Metrics
from repro.net.port import Port
from repro.rnic.config import RnicConfig
from repro.rnic.nic import Rnic
from repro.sim.engine import Simulator
from repro.sim.rng import SimRng


class NicPair:
    """Two directly cabled RNICs plus shared sim/metrics."""

    def __init__(self, transport="nic_sr", config=None,
                 bandwidth_bps=100e9, delay_ns=1000, cc_factory=None):
        self.sim = Simulator()
        self.metrics = Metrics(self.sim)
        self.config = config or RnicConfig()
        line = bandwidth_bps

        def default_cc(flow):
            return FixedRate(self.sim, line)

        self.nics = []
        for nic_id in (0, 1):
            nic = Rnic(self.sim, nic_id, config=self.config,
                       metrics=self.metrics, rng=SimRng(nic_id),
                       cc_factory=cc_factory or default_cc,
                       transport=transport)
            self.nics.append(nic)
        for me, other in ((0, 1), (1, 0)):
            port = Port(self.sim, self.nics[me],
                        bandwidth_bps=bandwidth_bps, delay_ns=delay_ns)
            port.connect(self.nics[other])
            self.nics[me].uplink = port

    def run(self, until=None):
        return self.sim.run(until=until)

    def tap(self):
        """List of ``(psn, payload_bytes)``, one per data segment NIC 0's
        uplink delivers, filled in as the run goes."""
        seen = []
        uplink = self.nics[0].uplink
        deliver = uplink._peer_recv

        def record(packet, port):
            if packet.is_data:
                seen.append((packet.psn, packet.payload_bytes))
            deliver(packet, port)

        uplink._peer_recv = record
        return seen


@pytest.fixture
def nic_pair():
    return NicPair()


@pytest.fixture
def make_nic_pair():
    return NicPair
