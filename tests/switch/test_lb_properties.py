"""Property tests (hypothesis) for the LoadBalancer contract.

Every policy in the zoo must, for arbitrary packet sequences and
candidate sets: (1) return a member of ``candidates``, (2) be
deterministic under the same seed, and — for REPS — (3) never recycle an
entropy mapped onto a dead link, under randomized fault schedules.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.net.node import Device
from repro.net.packet import FlowKey, data_packet
from repro.sim.engine import Simulator
from repro.sim.rng import SimRng
from repro.switch.buffer import SharedBuffer
from repro.switch.ecn import EcnConfig, EcnMarker
from repro.switch.lb import (AdaptiveRoutingLB, EcmpLB, FlowletLB,
                             PrimeLB, RandomSprayLB, RepsLB,
                             SprinklersLB, SpritzLB)
from repro.switch.switch import Switch

LB_NAMES = ["ecmp", "rps", "flowlet", "ar", "reps", "prime", "spritz",
            "sprinklers"]


def make_lb(name, seed):
    if name == "ecmp":
        return EcmpLB()
    if name == "rps":
        return RandomSprayLB(SimRng(seed))
    if name == "flowlet":
        return FlowletLB(SimRng(seed), gap_ns=1000)
    if name == "ar":
        return AdaptiveRoutingLB(SimRng(seed))
    if name == "reps":
        return RepsLB(SimRng(seed))
    if name == "prime":
        return PrimeLB()
    if name == "spritz":
        return SpritzLB(SimRng(seed))
    if name == "sprinklers":
        return SprinklersLB()
    raise ValueError(name)


def make_switch(sim, n_ports=4):
    sw = Switch(sim, "psw", lb=EcmpLB(), buffer=SharedBuffer(10**6),
                ecn_marker=EcnMarker(EcnConfig(), SimRng(0)))
    sink = Device(sim, "sink")
    ports = []
    for _ in range(n_ports):
        port = sw.add_port(1e9, 0)
        port.connect(sink)
        ports.append(port)
    return sw, ports


# One step of a generated packet sequence: (flow src, flow dst, psn,
# udp sport, first candidate index, candidate count).
steps = st.lists(
    st.tuples(st.integers(0, 3), st.integers(4, 7),
              st.integers(0, 500), st.integers(0, 0xFFFF),
              st.integers(0, 2), st.integers(2, 4)),
    min_size=1, max_size=60)


def replay(lb, sw, ports, sequence):
    picks = []
    for src, dst, psn, sport, start, count in sequence:
        candidates = ports[start:start + count]
        if len(candidates) < 2:
            candidates = ports[:2]
        pkt = data_packet(FlowKey(src, dst), psn, 100, udp_sport=sport)
        picks.append(lb.select(sw, pkt, candidates))
        assert picks[-1] in candidates, \
            f"{lb.name} returned a non-candidate port"
    return picks


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(LB_NAMES), seed=st.integers(0, 2**16),
       sequence=steps)
def test_selected_port_is_always_a_candidate(name, seed, sequence):
    sim = Simulator()
    sw, ports = make_switch(sim, n_ports=6)
    replay(make_lb(name, seed), sw, ports, sequence)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(LB_NAMES), seed=st.integers(0, 2**16),
       sequence=steps)
def test_same_seed_same_decisions(name, seed, sequence):
    """Two instances with identical seeds replay identically — the
    invariant the arena's spec-hashed determinism rests on."""
    sim = Simulator()
    sw, ports = make_switch(sim, n_ports=6)
    a = replay(make_lb(name, seed), sw, ports, sequence)
    b = replay(make_lb(name, seed), sw, ports, sequence)
    assert a == b


# A REPS fault schedule interleaves sends, cumulative ACKs, port
# failures, and reconvergence (evict_dead) in arbitrary order.
reps_ops = st.lists(
    st.one_of(
        st.tuples(st.just("send"), st.integers(0, 3)),
        st.tuples(st.just("ack"), st.integers(0, 3)),
        st.tuples(st.just("fail"), st.integers(0, 3)),
        st.tuples(st.just("heal"), st.integers(0, 3)),
        st.tuples(st.just("evict"), st.just(0)),
    ),
    min_size=5, max_size=80)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**16), ops=reps_ops)
def test_reps_never_resurrects_dead_link_entropy(seed, ops):
    """ISSUE satellite: under randomized fault schedules a recycled
    (cache-hit) selection must always land on a live port, and eviction
    must leave no dead-port state behind."""
    sim = Simulator()
    sw, ports = make_switch(sim, n_ports=4)
    lb = RepsLB(SimRng(seed))
    next_psn = {}
    flows = [FlowKey(0, 9), FlowKey(1, 9), FlowKey(2, 8), FlowKey(3, 8)]
    for op, arg in ops:
        if op == "send":
            flow = flows[arg]
            psn = next_psn.get(flow, 0)
            next_psn[flow] = psn + 1
            before = lb.recycled_hits
            pick = lb.select(sw, data_packet(flow, psn, 100), ports)
            if lb.recycled_hits > before:
                # Recycled entropy: must be a live port, always.
                assert pick.up, "REPS recycled entropy onto a dead link"
        elif op == "ack":
            flow = flows[arg]
            lb.on_ack(flow, next_psn.get(flow, 0))
        elif op == "fail":
            ports[arg].up = False
        elif op == "heal":
            ports[arg].up = True
        elif op == "evict":
            lb.evict_dead()
            for cache in lb._cache.values():
                for _, port in cache:
                    assert port.up, "evict_dead left a dead-port entry"
    # Final reconvergence leaves only live state regardless of schedule.
    lb.evict_dead()
    for cache in lb._cache.values():
        for _, port in cache:
            assert port.up
    for inflight in lb._inflight.values():
        for _, port in inflight.values():
            assert port.up
