"""Golden equality: batched dispatch vs. the heap reference engine.

``Simulator.run_batched`` drains whole calendar buckets per step (one
sort per claimed bucket, same-timestamp events folded into a single
dispatch loop).  These tests pin its determinism contract on every
benchmark scenario plus a fault-injected run: the **event sequence**
(time, seq, callback qualname), the **flow-level outcomes**
(completions, posted bytes, retransmissions), the **per-port busy
time**, and the **RNG stream positions** must all be bit-identical to
the seed heapq engine executing the same workload.

The bench builders are reused in quick mode so the workloads are the
exact (scaled-down) geometries the perf numbers are measured on.
"""

import pytest

from repro.harness.bench import BUILDERS, DEADLINE_NS
from tests.sim.heap_oracle import HeapSimulator


def _rng_digest(rng):
    """Position digest for a SimRng (or a raw ``random.Random``)."""
    gen = getattr(rng, "_gen", rng)
    return hash(gen.getstate())


def _fingerprint(net):
    """Deterministic digest of everything the engines must agree on."""
    flows = {}
    for flow, stats in sorted(net.metrics.flows.items(),
                              key=lambda kv: str(kv[0])):
        flows[str(flow)] = (stats.bytes_posted, stats.packets_sent,
                            stats.retransmissions, stats.sender_done_ns,
                            stats.receiver_done_ns)
    busy = {}
    for switch in net.topology.switches:
        for port in switch.ports:
            busy[port.name] = port.busy_ns
    rng = {"root": _rng_digest(net.rng)}
    for label, child in net.rng._substreams.items():
        rng[f"sub:{label}"] = _rng_digest(child)
    for nic in net.nics:
        busy[nic.uplink.name] = nic.uplink.busy_ns
        rng[f"nic{nic.nic_id}"] = _rng_digest(nic.rng)
        if nic.uplink._loss_rng is not None:
            rng[f"loss{nic.nic_id}"] = _rng_digest(nic.uplink._loss_rng)
    return {"flows": flows, "busy": busy, "rng": rng,
            "executed": net.sim.executed, "now": net.now_ns}


def _run(scenario, sim, faults=None):
    net = BUILDERS[scenario](True, sim, None)  # quick geometry, untraced
    log = []

    def trace(time, seq, callback):
        log.append((time, seq, getattr(callback, "__qualname__",
                                       repr(callback))))

    net.sim.trace = trace
    if faults is not None:
        faults(net).install()
    net.run(until_ns=DEADLINE_NS)
    net.stop()
    return log, _fingerprint(net)


@pytest.mark.parametrize("scenario", ["incast", "alltoall", "lossy"])
def test_batched_matches_heap_reference(scenario):
    batched_log, batched_fp = _run(scenario, None)
    heap_log, heap_fp = _run(scenario, HeapSimulator())
    assert len(batched_log) > 1_000
    if batched_log != heap_log:
        for i, (a, b) in enumerate(zip(batched_log, heap_log)):
            assert a == b, (f"{scenario}: first divergence at event {i}: "
                            f"batched={a} heap={b}")
        raise AssertionError(
            f"{scenario}: common prefix identical but lengths differ: "
            f"batched={len(batched_log)} heap={len(heap_log)}")
    assert batched_fp == heap_fp


def test_batched_matches_heap_under_faults():
    """A mid-run link failure (reroute + RTO churn through the overflow
    tier) must not perturb batched/heap equality either."""
    from repro.faults.injector import FaultInjector
    from repro.faults.spec import LinkFlap, Scenario

    def make_faults(net):
        spec = Scenario("golden-flap", converge_us=0.0).add(
            LinkFlap(link="tor0:spine0", at_us=5.0, down_us=40.0))
        return FaultInjector(net, spec)

    batched_log, batched_fp = _run("lossy", None, faults=make_faults)
    heap_log, heap_fp = _run("lossy", HeapSimulator(), faults=make_faults)
    assert batched_log == heap_log
    assert batched_fp == heap_fp
