"""The one traffic poster: parts, stop rule, done time."""

import pytest

from repro.harness.network import Network, NetworkConfig, TopologySpec
from repro.harness.workload import (alltoall_pairs, lossy_uplinks,
                                    post_messages, run_built,
                                    start_collectives)
from repro.switch.switch import Switch

TOPO = TopologySpec(kind="leaf_spine", num_tors=2, num_spines=2,
                    nics_per_tor=2, link_bandwidth_bps=25e9)
DEADLINE = 50_000_000


def make(scheme="rps"):
    return Network(NetworkConfig(topology=TOPO, scheme=scheme, seed=3))


class TestPostMessages:
    def test_stop_callback_fires_once_at_the_last_receiver(self):
        """``done_ns`` is the last receiver; the stop fires once, when the
        last sender has its ACK too — never before."""
        net = make()
        traffic = post_messages(net, alltoall_pairs(4), 20_000)
        assert net.traffic is traffic
        assert net.metrics.on_idle == net.stop
        fired = []
        net.metrics.on_idle = lambda: (fired.append(net.now_ns), net.stop())
        assert (traffic.left, traffic.complete) == (12, False)
        assert traffic.done_ns is None and traffic.end_ns == net.now_ns
        net.run(until_ns=DEADLINE)
        flows = net.metrics.flows.values()
        last = max(f.receiver_done_ns for f in flows)
        assert traffic.complete
        assert traffic.done_ns == traffic.end_ns == last
        assert fired == [max(f.sender_done_ns for f in flows)]
        assert fired[0] >= traffic.done_ns

    def test_the_stop_rule_does_not_move_the_done_time(self):
        stopped, idle = make(), make()
        post_messages(stopped, alltoall_pairs(4), 20_000)
        post_messages(idle, alltoall_pairs(4), 20_000)
        idle.metrics.on_idle = None
        stopped.run(until_ns=DEADLINE)
        idle.run(until_ns=DEADLINE)
        assert stopped.traffic.done_ns == idle.traffic.done_ns
        assert stopped.metrics.summary() == idle.metrics.summary()
        # The clock drains to the deadline; done_ns is what remembers.
        assert stopped.now_ns == DEADLINE > stopped.traffic.done_ns

    def test_posting_order_is_pair_order(self):
        net = make()
        post_messages(net, [(3, 0), (1, 2)], 5_000)
        assert [(f.src, f.dst) for f in net.metrics.flows] \
            == [(3, 0), (1, 2)]

    def test_unfinished_traffic_reports_the_clock(self):
        net = make()
        traffic = post_messages(net, [(0, 2)], 4_000_000)
        net.run(until_ns=10_000)
        assert not traffic.complete
        assert traffic.done_ns is None and traffic.end_ns == 10_000


class TestStartCollectives:
    def test_one_part_per_group(self):
        net = make()
        traffic = start_collectives(net, "allreduce", [[0, 2], [1, 3]],
                                    40_000)
        assert traffic.left == 2 and len(traffic.collectives) == 2
        net.run(until_ns=DEADLINE)
        assert traffic.complete
        assert traffic.done_ns == max(c.done_ns
                                      for c in traffic.collectives)

    def test_unknown_collective(self):
        with pytest.raises(ValueError, match="unknown collective"):
            start_collectives(make(), "gossip", [[0, 2]], 40_000)


def armed_timers(net):
    """How many QP timers (send, RTO, delayed ACK) are armed: an odd
    token is an armed one."""
    tokens = [token for nic in net.nics
              for qp in nic.senders.values()
              for token in (qp._send_token, qp._rto_token)]
    tokens += [qp._ack_token for nic in net.nics
               for qp in nic.receivers.values()]
    return sum(token & 1 for token in tokens)


class TestRunBuilt:
    def test_the_deadline_first_leaves_no_timer_armed(self):
        net, bare = make(), make()
        traffic = post_messages(net, alltoall_pairs(4), 4_000_000)
        post_messages(bare, alltoall_pairs(4), 4_000_000)
        run_built(net, 10_000)
        bare.run(until_ns=10_000)
        assert not traffic.complete and traffic.done_ns is None
        assert net.now_ns == bare.now_ns == 10_000
        assert armed_timers(bare) > 0
        assert armed_timers(net) == 0


def test_lossy_uplinks_share_one_named_substream():
    net = make()
    lossy_uplinks(net, net.topology.tors[:1], 0.25, "bench-loss")
    streams = set()
    for tor in net.topology.tors:
        for port in tor.ports:
            lossy = isinstance(port.peer, Switch) \
                and tor is net.topology.tors[0]
            assert port.loss_rate == (0.25 if lossy else 0.0)
            if lossy:
                streams.add(port._loss_rng)
    (stream,) = streams
    assert stream.seed == net.rng.fork("bench-loss").seed
