"""Property tests (hypothesis): invariants under randomized fault schedules.

Whatever combination of flaps, degradations, latency shifts, gray loss,
and spine reboots a scenario throws at the fabric, once every fault has
healed the conservation laws must hold: all traffic completes, switch
buffers balance to zero, port busy time never exceeds elapsed time,
retransmissions exactly account for the extra transmissions, and every
discarded packet is counted once and recorded once.
"""

from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

from repro.faults.injector import FaultInjector
from repro.faults.spec import (LatencyShift, LinkFlap, RandomLoss,
                               RateDegrade, Scenario, SwitchReboot)
from repro.harness.network import Network, NetworkConfig, TopologySpec
from repro.net.packet import FlowKey
from repro.obs.record import DROP, Recorder

TOPO = TopologySpec(kind="leaf_spine", num_tors=2, num_spines=2,
                    nics_per_tor=2, link_bandwidth_bps=25e9)
LINKS = ["tor0:spine0", "tor0:spine1", "tor1:spine0", "tor1:spine1",
         "tor0:nic0", "tor1:nic3"]  # fabric links + two host cables
LONG = 120_000_000_000

times = st.floats(0, 200, allow_nan=False, allow_infinity=False)
durations = st.floats(5, 300, allow_nan=False, allow_infinity=False)
links = st.sampled_from(LINKS)

layer = st.one_of(
    st.builds(LinkFlap, link=links, at_us=times, down_us=durations),
    st.builds(RateDegrade, link=links, at_us=times,
              duration_us=durations,
              factor=st.floats(0.05, 0.95)),
    st.builds(LatencyShift, link=links, at_us=times,
              duration_us=durations,
              extra_us=st.floats(0.5, 20),
              direction=st.sampled_from(["ab", "ba", "both"])),
    st.builds(RandomLoss, link=links, at_us=times,
              duration_us=durations,
              rate=st.floats(0.01, 0.3)),
    st.builds(SwitchReboot, switch=st.sampled_from(["spine0"]),
              at_us=times, down_us=durations),
)

schedules = st.lists(layer, min_size=1, max_size=4)

flows = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3),
              st.integers(10_000, 80_000)).filter(lambda t: t[0] != t[1]),
    min_size=1, max_size=4)


#: Found by hypothesis: spine0 reboots while tor0's only other uplink
#: is down, so tor0 is cut off and spine1 holds packets it cannot route.
PARTITION = [SwitchReboot("spine0", at_us=0, down_us=5),
             SwitchReboot("spine0", at_us=19, down_us=7),
             LinkFlap("tor0:spine1", at_us=10, down_us=16)]
PARTITION_FLOWS = [(0, 1, 10_000), (0, 2, 35_147)]


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**16), layers=schedules, workload=flows)
@example(seed=0, layers=PARTITION, workload=PARTITION_FLOWS)
def test_conservation_under_random_fault_schedules(seed, layers,
                                                   workload):
    recorder = Recorder(retain={DROP})
    net = Network(NetworkConfig(topology=TOPO, scheme="themis",
                                seed=seed), recorder=recorder)
    scenario = Scenario("prop")
    for fault_layer in layers:
        scenario.add(fault_layer)
    injector = FaultInjector(net, scenario)
    scheduled = injector.install()

    for qp, (src, dst, nbytes) in enumerate(workload):
        net.post_message(src, dst, nbytes, qp=qp)
    net.run(until_ns=LONG)

    # 1. Every scheduled fault action was applied (none lost or skipped).
    assert len(injector.applied) == scheduled

    # 2. All faults heal, so reliable transport must finish everything.
    assert net.metrics.all_flows_done()
    assert net.fabric_intact()

    # 3. Byte/packet conservation per flow, retransmissions accounted.
    for qp, (src, dst, nbytes) in enumerate(workload):
        stats = net.metrics.flows[FlowKey(src, dst, qp)]
        assert stats.bytes_posted == nbytes
        needed = net.nics[src].config.packets_for(nbytes)
        assert stats.packets_sent >= needed
        assert stats.retransmissions == stats.packets_sent - needed

    # 4. No shared-buffer leak: flushes and drops released every byte.
    for switch in net.topology.switches:
        assert switch.buffer.used_bytes == 0

    # 5. busy_ns invariant: a port cannot be busy longer than the clock,
    #    even though lost packets still charge wire time.
    for switch in net.topology.switches:
        for port in switch.ports:
            assert 0 <= port.busy_ns <= net.now_ns

    # 6. Links ended healthy: nominal rate and delay restored.
    for link in net.topology.links:
        for port in link.ports:
            assert port.up
            assert port.bandwidth_bps == port.nominal_bandwidth_bps
            assert port.delay_ns == port.nominal_delay_ns
            assert port.loss_rate == 0.0

    # 7. One drop path: every discard, at a switch port, a NIC uplink or
    #    a switch that is down or routeless, is one counter increment
    #    and one DROP record.
    assert (net.metrics.drops == recorder.counts.get("drop", 0)
            == len(recorder.records(DROP)))


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**16), layers=schedules)
def test_fault_schedules_are_deterministic(seed, layers):
    """Same seed + same schedule => identical counters, twice over."""
    def run_once():
        net = Network(NetworkConfig(topology=TOPO, scheme="themis",
                                    seed=seed))
        scenario = Scenario("prop")
        for fault_layer in layers:
            scenario.add(fault_layer)
        FaultInjector(net, scenario).install()
        net.post_message(0, 2, 60_000)
        net.post_message(3, 1, 60_000)
        net.run(until_ns=LONG)
        return (net.metrics.data_packets_sent,
                net.metrics.retransmissions, net.metrics.drops,
                net.metrics.nacks_generated)

    assert run_once() == run_once()
