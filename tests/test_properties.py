"""End-to-end property tests (hypothesis) on the whole stack.

Each generated case builds a small fabric, posts a random workload under a
random scheme, runs to completion, and checks conservation invariants that
must hold regardless of load balancing, reordering, or retransmission
behaviour.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.harness.network import Network, NetworkConfig, TopologySpec
from repro.net.packet import FlowKey

SCHEMES = ["ecmp", "rps", "ar", "themis", "themis_nocomp"]

workloads = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3),
              st.integers(5_000, 120_000)).filter(lambda t: t[0] != t[1]),
    min_size=1, max_size=6)


def build(scheme, seed):
    topo = TopologySpec(kind="leaf_spine", num_tors=2, num_spines=2,
                        nics_per_tor=2, link_bandwidth_bps=25e9)
    return Network(NetworkConfig(topology=topo, scheme=scheme, seed=seed))


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scheme=st.sampled_from(SCHEMES), seed=st.integers(0, 2**16),
       flows=workloads)
def test_random_workloads_complete_and_conserve(scheme, seed, flows):
    net = build(scheme, seed)
    # Aggregate duplicate (src, dst) pairs onto distinct QPs so each
    # posted message is its own flow.
    for qp, (src, dst, nbytes) in enumerate(flows):
        net.post_message(src, dst, nbytes, qp=qp)
    net.run(until_ns=20_000_000_000)

    # 1. Everything completes (lossless fabric, retransmission safety).
    assert net.metrics.all_flows_done()

    for (qp, (src, dst, nbytes)) in enumerate(flows):
        flow = FlowKey(src, dst, qp)
        stats = net.metrics.flows[flow]
        # 2. Byte conservation per flow.
        assert stats.bytes_posted == nbytes
        # 3. Receiver finished no earlier than sender started.
        assert stats.receiver_done_ns >= stats.start_ns
        # 4. Sent >= needed; retransmissions accounted inside the total.
        needed = net.nics[src].config.packets_for(nbytes)
        assert stats.packets_sent >= needed
        assert stats.retransmissions == stats.packets_sent - needed

    # 5. No switch buffer leaks.
    for switch in net.topology.switches:
        assert switch.buffer.used_bytes == 0

    # 6. Themis accounting balances.
    themis = net.metrics.themis
    assert themis.nacks_inspected \
        == themis.nacks_blocked + themis.nacks_forwarded


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**16),
       loss_permille=st.integers(1, 8),
       nbytes=st.integers(20_000, 150_000))
def test_lossy_fabric_still_completes(seed, loss_permille, nbytes):
    """With random drops injected, reliable transport must still finish
    (by NACK, compensation, or timeout) under Themis."""
    net = build("themis", seed)
    for sw in net.topology.switches:
        if sw.name.startswith("spine"):
            for port in sw.ports:
                port.set_loss(loss_permille / 1000.0,
                              net.rng.fork(f"loss{port.name}"))
    net.post_message(0, 2, nbytes)
    net.post_message(1, 3, nbytes)
    net.run(until_ns=60_000_000_000)
    assert net.metrics.all_flows_done()


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**16))
def test_same_seed_reproduces_exact_counters(seed):
    def run_once():
        net = build("rps", seed)
        net.post_message(0, 2, 150_000)
        net.post_message(3, 1, 150_000)
        net.run(until_ns=20_000_000_000)
        return (net.now_ns, net.metrics.data_packets_sent,
                net.metrics.retransmissions, net.metrics.nacks_generated)

    assert run_once() == run_once()


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**16), flows=workloads)
def test_pfc_fabric_never_drops(seed, flows):
    """Losslessness property: with PFC configured with proper headroom,
    no data packet is ever dropped, for arbitrary small workloads."""
    from repro.switch.pfc import PfcConfig

    topo = TopologySpec(kind="leaf_spine", num_tors=2, num_spines=2,
                        nics_per_tor=2, link_bandwidth_bps=25e9)
    net = Network(NetworkConfig(
        topology=topo, scheme="rps", seed=seed, buffer_bytes=120_000,
        pfc=PfcConfig(xoff_bytes=12_000, xon_bytes=6_000)))
    for qp, (src, dst, nbytes) in enumerate(flows):
        net.post_message(src, dst, nbytes, qp=qp)
    net.run(until_ns=60_000_000_000)
    assert net.metrics.drops == 0
    assert net.metrics.all_flows_done()


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**16), flows=workloads)
def test_conweave_reorder_buffer_conserves_packets(seed, flows):
    """The in-order middleware never loses or duplicates a held packet:
    every posted byte still completes."""
    net = build("conweave_spray", seed)
    for qp, (src, dst, nbytes) in enumerate(flows):
        net.post_message(src, dst, nbytes, qp=qp)
    net.run(until_ns=60_000_000_000)
    assert net.metrics.all_flows_done()
    for dest in net.conweave_dests:
        for flow_state in dest._state.values():
            assert not flow_state.buffer  # everything released
