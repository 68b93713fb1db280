"""Golden determinism test: calendar engine vs. the seed heap engine.

Runs one seeded spray workload on a 2-ToR leaf-spine fabric twice — once
on the default :class:`Simulator` (bucketed calendar queue) and once on
:class:`HeapSimulator` (the seed heapq engine kept as the reference
implementation) — recording every executed event's ``(time, seq,
callback name)`` through the engines' ``trace`` hook.  The two sequences
must be **bit-identical**: that is the determinism contract the calendar
engine's bucket geometry was designed around (disjoint windows, per-bucket
``(time, seq)`` order, lockstep ``seq`` consumption in ``fire``).

A golden SHA-256 of the sequence is also pinned.  It guards against
*accidental* behaviour drift (an engine edit that changes execution order,
an RNG stream reshuffle); a PR that intentionally changes the event
sequence should re-pin the hash in the same commit and say why.
"""

import hashlib

from repro.harness.network import Network, NetworkConfig, TopologySpec
from repro.sim.engine import MS, US
from tests.sim.heap_oracle import HeapSimulator

#: SHA-256 of the (time, seq, callback-name) event sequence of the
#: workload below.  Re-pin deliberately, never to "make the test pass".
#: Re-pinned for the batched-dispatch PR: packet deliveries now dispatch
#: straight into the peer's ``receive`` via ``fire2`` (traced callback
#: name changed from ``Port._deliver`` to ``Switch.receive``/
#: ``Rnic.receive`` at the same (time, seq)), and the sender RTO timer
#: became lazy (one calendar event per RTO span instead of a
#: cancel+schedule per ACK, shifting ``seq`` allocation).  Flow
#: completion times and RNG substreams are unchanged; both engines agree
#: on the new sequence (see test_engines_execute_identical_sequences).
#: Re-pinned when the per-QP timers moved from ``schedule``/``cancel`` to
#: ``fire`` with a token: every entry keeps its (time, seq), but a
#: cancelled timer now runs (as a no-op) and so appears in the sequence.
#: Re-pinned when NIC uplinks became pull-mode TX arbiters: a QP whose
#: pacing gap has ended waits on its uplink's ring and the wire pulls its
#: segment, so backlogged QPs schedule no ``_send_one`` events and
#: segments leave in round-robin order of the ring (a model change).
GOLDEN_SHA256 = ("8ada95506ca1000c63a4cb23a698cdbc"
                 "46aab1baa6b140016da9d55874d37b65")


def _run_traced(sim):
    """Run the golden workload on ``sim``; return the event sequence."""
    topo = TopologySpec(kind="leaf_spine", num_tors=2, num_spines=2,
                        nics_per_tor=2, link_bandwidth_bps=100e9,
                        link_delay_ns=US)
    net = Network(NetworkConfig(topology=topo, scheme="rps",
                                transport="nic_sr", seed=11), sim=sim)
    log = []

    def trace(time, seq, callback):
        log.append((time, seq, getattr(callback, "__qualname__",
                                       repr(callback))))

    net.sim.trace = trace
    # Cross-ToR spray traffic in both directions plus one same-ToR flow,
    # sizes chosen to span several pacing windows and delayed-ACK rounds.
    for qp, (src, dst) in enumerate(((0, 2), (1, 3), (2, 1), (3, 0),
                                     (0, 1))):
        net.post_message(src, dst, 60_000, qp=qp)
    net.run(until_ns=5 * MS)
    net.stop()
    return log


def test_engines_execute_identical_sequences():
    calendar_log = _run_traced(None)          # default calendar engine
    heap_log = _run_traced(HeapSimulator())
    assert len(calendar_log) > 1_000          # the workload is non-trivial
    # Compare in slices so a failure points at the first divergence
    # instead of dumping two huge lists.
    if calendar_log != heap_log:
        for i, (a, b) in enumerate(zip(calendar_log, heap_log)):
            assert a == b, (f"first divergence at event {i}: "
                            f"calendar={a} heap={b}")
        raise AssertionError(
            f"common prefix identical but lengths differ: "
            f"calendar={len(calendar_log)} heap={len(heap_log)}")


def test_golden_hash_pinned():
    log = _run_traced(None)
    digest = hashlib.sha256(
        "\n".join(f"{t} {s} {n}" for t, s, n in log).encode()).hexdigest()
    if GOLDEN_SHA256 is None:
        raise AssertionError(
            f"golden hash not pinned yet — set GOLDEN_SHA256 = {digest!r}")
    assert digest == GOLDEN_SHA256, (
        "event sequence changed — if intentional, re-pin GOLDEN_SHA256 "
        f"to {digest!r} and explain the behaviour change in the commit")
