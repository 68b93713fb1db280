"""End-to-end tests for the FaultInjector on a live fabric."""

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.spec import (LatencyShift, LinkFlap, PfcStorm,
                               RandomLoss, RateDegrade, Scenario,
                               ScenarioError, SwitchReboot)
from repro.harness.network import Network, NetworkConfig, TopologySpec
from repro.obs.record import DROP, FAULT, Recorder
from repro.sim.engine import US
from tests.net.test_port import drop_log

TOPO = TopologySpec(kind="leaf_spine", num_tors=2, num_spines=2,
                    nics_per_tor=2, link_bandwidth_bps=25e9)
LONG = 60_000_000_000


def make(scheme="themis", seed=3, recorder=None, **config):
    return Network(NetworkConfig(topology=TOPO, scheme=scheme, seed=seed,
                                 **config),
                   recorder=recorder)


def install(net, scenario):
    injector = FaultInjector(net, scenario)
    injector.install()
    return injector


def alltoall(net, nbytes=60_000):
    nodes = len(net.nics)
    for qp, (src, dst) in enumerate(
            (s, d) for s in range(nodes) for d in range(nodes) if s != d):
        net.post_message(src, dst, nbytes, qp=qp)


class TestValidation:
    def test_unknown_link_rejected(self):
        net = make()
        with pytest.raises(ScenarioError, match="link"):
            FaultInjector(net, Scenario("x").add(
                LinkFlap(link="tor0:spine9", at_us=0, down_us=1)))

    def test_unknown_switch_rejected(self):
        net = make()
        with pytest.raises(ScenarioError, match="unknown switch"):
            FaultInjector(net, Scenario("x").add(
                SwitchReboot(switch="core0", at_us=0, down_us=1)))

    def test_tor_reboot_refused(self):
        net = make()
        with pytest.raises(ScenarioError, match="ToR"):
            FaultInjector(net, Scenario("x").add(
                SwitchReboot(switch="tor0", at_us=0, down_us=1)))

    def test_double_install_rejected(self):
        net = make()
        injector = install(net, Scenario("empty"))
        with pytest.raises(RuntimeError):
            injector.install()

    def test_empty_scenario_schedules_nothing(self):
        net = make()
        injector = FaultInjector(net, Scenario("empty"))
        assert injector.install() == 0
        assert injector.first_fault_ns is None
        assert injector.last_event_ns is None

    def test_link_name_order_is_irrelevant(self):
        net = make()
        injector = install(net, Scenario("x").add(
            LinkFlap(link="spine0:tor0", at_us=10, down_us=10)))
        assert injector.first_fault_ns == 10 * US


class TestLinkFlap:
    def scenario(self):
        return Scenario("flap").add(
            LinkFlap(link="tor0:spine0", at_us=10, down_us=40))

    def test_traffic_completes_through_flap(self):
        net = make()
        injector = install(net, self.scenario())
        alltoall(net)
        net.run(until_ns=LONG)
        assert net.metrics.all_flows_done()
        assert len(injector.applied) == 2
        assert [kind for _, kind, _ in injector.applied] == [
            "link_down", "link_up"]

    def test_themis_disabled_while_down_reenabled_after(self):
        net = make()
        install(net, self.scenario())
        alltoall(net)
        # After the down-event reconverges (10 + 25 us) Themis is off.
        net.run(until_ns=40 * US)
        assert not any(mw.enabled for tor in net.topology.tors
                       for mw in tor.middleware)
        # After the up-event reconverges (50 + 25 us) it is back on.
        net.run(until_ns=LONG)
        assert all(mw.enabled for tor in net.topology.tors
                   for mw in tor.middleware)
        assert net.fabric_intact()

    def test_routes_shrink_then_recover(self):
        net = make()
        install(net, self.scenario())
        net.run(until_ns=40 * US)
        tor0 = net.topology.tors[0]
        assert len(tor0.routes[2]) == 1          # spine0 uplink gone
        net.run(until_ns=200 * US)
        assert len(tor0.routes[2]) == 2

    def test_drops_are_accounted_not_silent(self):
        net = make()
        install(net, self.scenario())
        alltoall(net)
        net.run(until_ns=LONG)
        assert net.metrics.drops > 0
        assert net.metrics.retransmissions >= net.metrics.drops
        for switch in net.topology.switches:
            assert switch.buffer.used_bytes == 0


class TestDegradeAndLatency:
    def test_degrade_slows_then_restores(self):
        net = make()
        install(net, Scenario("slow").add(
            RateDegrade(link="tor0:spine0", at_us=10, duration_us=100,
                        factor=0.25)))
        link = net.topology.link("tor0:spine0")
        nominal = link.port_ab.nominal_bandwidth_bps
        net.run(until_ns=50 * US)
        assert link.port_ab.bandwidth_bps == pytest.approx(nominal / 4)
        assert link.port_ba.bandwidth_bps == pytest.approx(nominal / 4)
        net.run(until_ns=200 * US)
        assert link.port_ab.bandwidth_bps == pytest.approx(nominal)

    def test_degrade_stretches_completion(self):
        def run(with_fault):
            net = make(scheme="ecmp")
            if with_fault:
                install(net, Scenario("slow")
                        .add(RateDegrade(link="tor0:spine0", at_us=0,
                                         duration_us=100_000,
                                         factor=0.1))
                        .add(RateDegrade(link="tor0:spine1", at_us=0,
                                         duration_us=100_000,
                                         factor=0.1)))
            net.post_message(0, 2, 200_000)
            net.run(until_ns=LONG)
            assert net.metrics.all_flows_done()
            from repro.net.packet import FlowKey
            return net.metrics.flows[FlowKey(0, 2, 0)].receiver_done_ns
        assert run(True) > run(False)

    def test_asymmetric_latency_shift(self):
        net = make()
        install(net, Scenario("skew").add(
            LatencyShift(link="tor0:spine0", at_us=10, duration_us=100,
                         extra_us=7, direction="ab")))
        link = net.topology.link("tor0:spine0")
        nominal = link.port_ab.nominal_delay_ns
        net.run(until_ns=50 * US)
        assert link.port_ab.delay_ns == nominal + 7 * US
        assert link.port_ba.delay_ns == link.port_ba.nominal_delay_ns
        net.run(until_ns=200 * US)
        assert link.port_ab.delay_ns == nominal


class TestSwitchReboot:
    def scenario(self):
        return Scenario("reboot").add(
            SwitchReboot(switch="spine0", at_us=20, down_us=100))

    def test_reboot_deactivates_downs_links_then_recovers(self):
        net = make()
        install(net, self.scenario())
        alltoall(net)
        spine0 = next(s for s in net.topology.switches
                      if s.name == "spine0")
        net.run(until_ns=60 * US)
        assert not spine0.active
        assert all(not link.up
                   for link in net.topology.links_of("spine0"))
        net.run(until_ns=LONG)
        assert spine0.active
        assert all(link.up for link in net.topology.links_of("spine0"))
        assert net.metrics.all_flows_done()
        assert spine0.buffer.used_bytes == 0

    def test_recovery_restores_only_reboot_downed_links(self):
        net = make()
        install(net, Scenario("mix")
                .add(LinkFlap(link="tor0:spine0", at_us=10, down_us=300))
                .add(SwitchReboot(switch="spine0", at_us=20, down_us=50)))
        net.run(until_ns=100 * US)
        # spine0 recovered at 70us, but the flap holds tor0:spine0 down
        # until 310us — recovery must not resurrect it early.
        assert not net.topology.link("tor0:spine0").up
        assert net.topology.link("tor1:spine0").up
        net.run(until_ns=LONG)
        assert net.fabric_intact()


class TestPartition:
    """A scheduled partition: spine0 reboots while tor0's only other
    uplink is down, so tor0 holds nic0's segments for a NIC it cannot
    reach (nic0 -> nic2 is still sending when the routes are rebuilt)."""

    def partitioned(self, recorder=None, **config):
        net = make(seed=0, recorder=recorder, **config)
        install(net, Scenario("partition")
                .add(SwitchReboot(switch="spine0", at_us=0, down_us=5))
                .add(SwitchReboot(switch="spine0", at_us=19, down_us=7))
                .add(LinkFlap(link="tor0:spine1", at_us=10, down_us=16)))
        net.post_message(0, 1, 10_000, qp=0)
        net.post_message(0, 2, 80_000, qp=1)
        net.run(until_ns=LONG)
        return net

    def test_route_miss_is_an_accounted_drop_not_a_crash(self):
        recorder = Recorder(retain={DROP})
        net = self.partitioned(recorder)
        assert net.metrics.all_flows_done()
        assert net.fabric_intact()
        for switch in net.topology.switches:
            assert switch.buffer.used_bytes == 0
            assert not switch.routes_degraded
        no_route = [r for r in recorder.records(DROP)
                    if r[4]["reason"] == "no_route"]
        assert no_route
        assert net.metrics.drops >= len(no_route)

    def test_route_miss_balances_pfc_credit(self):
        from repro.switch.pfc import PfcConfig
        net = self.partitioned(pfc=PfcConfig(xoff_bytes=12_000,
                                             xon_bytes=6_000))
        assert net.metrics.all_flows_done()
        for switch in net.topology.switches:
            assert switch.buffer.used_bytes == 0
            assert not any(switch.pfc._ingress_bytes.values())

    def test_intact_fabric_without_the_route_still_raises(self):
        net = make()
        spine1 = next(s for s in net.topology.switches
                      if s.name == "spine1")
        del spine1.routes[0]
        net.post_message(2, 0, 60_000)
        with pytest.raises(LookupError, match="no route to NIC 0"):
            net.run(until_ns=LONG)


def nic_flap():
    """A host cable fails mid-transfer: nic0's uplink drops what it was
    serializing and queueing, tor0's down port what was headed to nic0."""
    return Scenario("nic-flap", workload={"nodes": 8,
                                          "message_bytes": 200_000}
                    ).add(LinkFlap(link="tor0:nic0", at_us=40, down_us=80))


class TestDropAccounting:
    """Wherever a packet dies — switch port, NIC uplink, a switch that is
    down or has no route — it is one ``Metrics.drops`` increment and one
    DROP record with a reason."""

    @pytest.mark.parametrize("scheme", ["themis", "rps"])
    @pytest.mark.parametrize("scenario", ["spine-reboot", "nic-flap",
                                          "gray-failure"])
    def test_every_drop_counted_and_recorded_once(self, scenario, scheme):
        from repro.faults.scenarios import builtin
        from repro.harness.tracing import run_traced_alltoall

        spec = nic_flap() if scenario == "nic-flap" else builtin(scenario)
        net, recorder = run_traced_alltoall(
            nodes=8, loss=0.0, seed=1, scheme=scheme, retain_all=True,
            message_bytes=spec.workload["message_bytes"], faults=spec)
        drops = recorder.records(DROP)
        assert net.metrics.drops > 0
        assert (net.metrics.drops == recorder.counts.get("drop", 0)
                == len(drops))
        assert all(r[4]["reason"] for r in drops)
        assert net.metrics.all_flows_done()
        for switch in net.topology.switches:
            assert switch.buffer.used_bytes == 0
        if scenario == "spine-reboot":
            blackholed = [r for r in drops
                          if r[4]["reason"] == "switch_down"]
            assert blackholed
            assert {r[3] for r in blackholed} == {"spine0"}

    def test_ideal_oracle_hears_nic_side_losses(self):
        """Fig. 1d's oracle repairs every loss out of band, so a host
        cable flap must cost the flows that lost packets on it no RTO."""
        from repro.harness.workload import alltoall_pairs, post_messages
        from repro.sim.engine import MS

        topo = TopologySpec(kind="leaf_spine", num_tors=4, num_spines=2,
                            nics_per_tor=2, link_bandwidth_bps=100e9)
        net = Network(NetworkConfig(topology=topo, scheme="rps",
                                    transport="ideal", seed=1))
        post_messages(net, alltoall_pairs(8), 200_000)
        install(net, nic_flap())
        dropped = drop_log(net.nics[0].uplink)
        net.run(until_ns=LONG)
        assert net.metrics.all_flows_done()
        assert dropped
        from_nic0 = [s for f, s in net.metrics.flows.items() if f.src == 0]
        assert len(from_nic0) == 7
        assert all(s.timeouts == 0 for s in from_nic0)
        assert net.traffic.done_ns < MS


class TestPfcStorm:
    def scenario(self):
        return Scenario("storm").add(
            PfcStorm(switch="spine0", at_us=10, duration_us=80))

    def victims(self, net):
        ports = []
        for link in net.topology.links_of("spine0"):
            ports.append(link.port_ba if link.a_name == "spine0"
                         else link.port_ab)
        return ports

    def test_lossy_fabric_direct_pause(self):
        net = make()
        install(net, self.scenario())
        alltoall(net, nbytes=30_000)
        net.run(until_ns=50 * US)
        assert all(p.data_paused for p in self.victims(net))
        net.run(until_ns=LONG)
        assert all(not p.data_paused for p in self.victims(net))
        assert net.metrics.all_flows_done()

    def test_lossless_fabric_storm_overrides_xon(self):
        from repro.switch.pfc import PfcConfig
        net = make(scheme="rps", buffer_bytes=120_000,
                   pfc=PfcConfig(xoff_bytes=12_000, xon_bytes=6_000))
        install(net, self.scenario())
        alltoall(net, nbytes=30_000)
        net.run(until_ns=50 * US)
        paused = [p for p in self.victims(net) if p.data_paused]
        assert paused
        net.run(until_ns=LONG)
        assert all(not p.data_paused for p in self.victims(net))
        assert net.metrics.all_flows_done()


class TestRandomLoss:
    def test_loss_window_drops_then_heals(self):
        net = make()
        install(net, Scenario("gray").add(
            RandomLoss(link="tor0:spine0", at_us=0, duration_us=500,
                       rate=0.2)))
        alltoall(net)
        net.run(until_ns=LONG)
        link = net.topology.link("tor0:spine0")
        assert link.port_ab.loss_rate == 0.0
        assert net.metrics.drops > 0
        assert net.metrics.all_flows_done()

    def test_loss_uses_dedicated_substream(self):
        """Same seed, same scenario => identical drop counts."""
        def run():
            net = make()
            install(net, Scenario("gray").add(
                RandomLoss(link="tor0:spine0", at_us=0, duration_us=500,
                           rate=0.2)))
            alltoall(net)
            net.run(until_ns=LONG)
            return (net.metrics.drops, net.metrics.retransmissions,
                    net.now_ns)
        assert run() == run()


class TestObservability:
    def test_every_action_is_recorded(self):
        recorder = Recorder(retain={FAULT})
        net = make(recorder=recorder)
        install(net, Scenario("flap").add(
            LinkFlap(link="tor0:spine0", at_us=10, down_us=40)))
        net.run(until_ns=LONG)
        names = [name for _, _, name, _, _ in recorder.records(FAULT)]
        assert "fault_link_down" in names
        assert "fault_link_up" in names
        # Each liveness change reconverges routing, visibly.
        assert names.count("fault_reconverge") == 2

    def test_reconverge_record_carries_themis_state(self):
        recorder = Recorder(retain={FAULT})
        net = make(recorder=recorder)
        install(net, Scenario("flap").add(
            LinkFlap(link="tor0:spine0", at_us=10, down_us=40)))
        net.run(until_ns=LONG)
        reconv = [detail for _, _, name, _, detail
                  in recorder.records(FAULT)
                  if name == "fault_reconverge"]
        assert reconv[0]["themis_enabled"] is False
        assert reconv[-1]["themis_enabled"] is True

    def test_no_recorder_is_fine(self):
        net = make(recorder=None)
        install(net, Scenario("flap").add(
            LinkFlap(link="tor0:spine0", at_us=10, down_us=40)))
        alltoall(net, nbytes=20_000)
        net.run(until_ns=LONG)
        assert net.metrics.all_flows_done()
