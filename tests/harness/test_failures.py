"""Tests for §6 link-failure tolerance: fail, revert to ECMP, heal.

Every failure goes through :class:`FaultInjector` (``tests/faults/drive``),
the one fault path; ``tests/faults/test_injector.py`` covers scheduling,
validation and partitions.
"""

import pytest

from repro.faults.spec import ScenarioError
from repro.harness.network import Network, NetworkConfig, TopologySpec
from repro.sim.engine import US
from tests.faults.drive import fail_link

TOPO = TopologySpec(kind="leaf_spine", num_tors=2, num_spines=2,
                    nics_per_tor=2, link_bandwidth_bps=25e9)


def make(scheme="themis"):
    return Network(NetworkConfig(topology=TOPO, scheme=scheme, seed=3))


class TestFailLink:
    def test_dead_port_leaves_candidate_sets(self):
        net = make()
        fail_link(net, "tor0:spine0")
        tor0 = net.topology.tors[0]
        candidates = tor0.routes[2]
        assert len(candidates) == 1
        assert candidates[0].peer.name == "spine1"

    def test_both_directions_fail(self):
        net = make()
        fail_link(net, "tor0:spine0")
        spine0 = next(s for s in net.topology.switches
                      if s.name == "spine0")
        tor0 = net.topology.tors[0]
        assert any(not p.up for p in spine0.ports)
        assert any(not p.up for p in tor0.ports)

    def test_unknown_switch_raises(self):
        net = make()
        with pytest.raises(ScenarioError, match="nope"):
            fail_link(net, "tor0:nope")
        with pytest.raises(ScenarioError):
            fail_link(net, "tor0:tor1")     # both exist, no cable

    def test_reconvergence_evicts_reps_entropies(self):
        """REPS (2407.21625) must not keep an entropy for a dead egress
        past reconvergence, cached or still awaiting its ACK."""
        def held_ports():
            for lb in net._reps_lbs:
                for cache in lb._cache.values():
                    yield from (port for _, port in cache)
                for inflight in lb._inflight.values():
                    yield from (port for _, port in inflight.values())

        net = make(scheme="reps")
        net.post_message(0, 2, 2_000_000)
        net.run(until_ns=100_000)
        dead = net.topology.link("tor0:spine0").ports
        assert any(port in dead for port in held_ports())
        fail_link(net, "tor0:spine0")
        assert all(port.up for port in held_ports())
        net.run(until_ns=30_000_000_000)
        assert net.metrics.all_flows_done()


class TestThemisFallback:
    def test_failure_disables_themis(self):
        net = make()
        fail_link(net, "tor0:spine0")
        for tor in net.topology.tors:
            assert all(not mw.enabled for mw in tor.middleware)

    def test_traffic_completes_after_failure(self):
        net = make()
        fail_link(net, "tor0:spine0")
        net.post_message(0, 2, 200_000)
        net.post_message(3, 1, 200_000)
        net.run(until_ns=10_000_000_000)
        assert net.metrics.all_flows_done()
        # With Themis disabled, no packet was sprayed / no NACK touched.
        assert net.metrics.themis.nacks_inspected == 0

    def test_mid_flight_failure_still_completes(self):
        net = make()
        net.post_message(0, 2, 2_000_000)
        net.post_message(1, 3, 2_000_000)
        net.run(until_ns=20_000)           # let traffic start
        fail_link(net, "tor0:spine1")
        net.run(until_ns=30_000_000_000)
        assert net.metrics.all_flows_done()

    def test_heal_restores_routes_and_themis(self):
        net = make()
        fail_link(net, "tor0:spine0", heal_after_us=1)
        tor0 = net.topology.tors[0]
        assert len(tor0.routes[2]) == 1
        net.run(until_ns=net.now_ns + US)
        assert net.fabric_intact()
        assert len(tor0.routes[2]) == 2
        for tor in net.topology.tors:
            assert all(mw.enabled for mw in tor.middleware)

    def test_heal_resets_dest_state(self):
        net = make()
        net.post_message(0, 2, 200_000)
        net.run(until_ns=10_000_000_000)
        # NIC 2 hangs off tor1: its Themis-D holds the flow's entry.
        dest = next(mw for mw in net.topology.tors[1].middleware
                    if hasattr(mw, "table"))
        assert len(dest.table) == 1
        fail_link(net, "tor0:spine0", heal_after_us=1)
        net.run(until_ns=net.now_ns + US)
        assert len(dest.table) == 0

    def test_ecmp_scheme_failure_works_without_middleware(self):
        net = make(scheme="ecmp")
        fail_link(net, "tor0:spine0")
        net.post_message(0, 2, 100_000)
        net.run(until_ns=10_000_000_000)
        assert net.metrics.all_flows_done()
