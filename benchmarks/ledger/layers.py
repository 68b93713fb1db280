"""Layer micro-benchmarks: what one operation of one layer costs.

Fixed method, in one helper: the worker is a fresh process; the cyclic GC
is off after a ``gc.collect()``; every number is the best of
``TRIALS`` trials of at least 100 000 operations (the job-runner and
store benchmarks, whose operations cost milliseconds, run fewer and say
so); the cost of the same loop around a no-op is subtracted.  Fixtures are
built only from public constructors and public attributes — a layer whose
cost cannot be reached that way is not measured (see README, "dropped").

Each benchmark belongs to the workload whose end-to-end number it should
move (README, "how the metrics interact"); ``run_for(workload, ...)``
runs that workload's group, so a traced run of one workload prices the
layers that matter to it and every number is measured in one place.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Callable, Optional

from repro.cc.base import FixedRate
from repro.cc.dcqcn import Dcqcn, DcqcnConfig
from repro.harness.jobs import JobRunner, JobSpec
from repro.harness.metrics import Metrics
from repro.net.node import Device
from repro.net.packet import (FlowKey, data_packet, nack_packet,
                              release_packet)
from repro.net.port import Port
from repro.obs.record import Recorder
from repro.results import ResultsStore, emit_arena_doc, ingest_doc
from repro.rnic.config import RnicConfig
from repro.rnic.nic import Rnic
from repro.sim.engine import Simulator
from repro.sim.rng import SimRng
from repro.switch.buffer import SharedBuffer
from repro.switch.ecn import EcnConfig, EcnMarker
from repro.switch.lb import (AdaptiveRoutingLB, EcmpLB, FlowletLB, PrimeLB,
                             RandomSprayLB, RepsLB, SprinklersLB, SpritzLB)
from repro.switch.switch import Switch
from repro.themis.config import ThemisConfig
from repro.themis.dest import ThemisDest
from repro.themis.ring_queue import PsnRingQueue
from repro.themis.source import ThemisSource

_clock = time.perf_counter

TRIALS = 5
N_OPS = 100_000
#: Operations between two untimed ``between()`` calls of :func:`measure`.
CHUNK = 1024
N_FLOWS = 64
N_PORTS = 8
PAYLOAD = 1000


def _noop(*_args) -> None:
    return None


def best_of(trial: Callable[[], float],
            trials: Optional[int] = None) -> float:
    """Smallest of ``trials`` (default ``TRIALS``) results of ``trial()``,
    GC off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(trials or TRIALS):
            gc.collect()
            best = min(best, trial())
        return best
    finally:
        if was_enabled:
            gc.enable()


def measure(make: Callable[[], tuple]) -> float:
    """ns per operation over ``N_OPS`` operations, no-op loop cost
    subtracted.

    ``make()`` builds a fresh fixture and returns ``(op, between)``:
    ``op(i)`` is the operation (``i`` counts up from 0) and ``between(i)``,
    if not ``None``, runs untimed before every chunk of ``CHUNK``
    operations (to drain a queue, acknowledge packets, refill a ring).
    """
    def trial(noop: bool) -> float:
        op, between = make()
        if noop:
            op = _noop
        total = 0.0
        for base in range(0, N_OPS, CHUNK):
            if between is not None:
                between(base)
            stop = min(base + CHUNK, N_OPS)
            start = _clock()
            for i in range(base, stop):
                op(i)
            total += _clock() - start
        return total

    cost = best_of(lambda: trial(False)) - best_of(lambda: trial(True))
    return max(0.0, cost) / N_OPS * 1e9


def run_timed(make: Callable[[], tuple]) -> float:
    """ns per operation of a fixture timed as a whole: ``make()`` returns
    ``(run, count)``; ``run()`` is timed and ``count()`` afterwards says
    how many operations it performed."""
    def trial() -> float:
        run, count = make()
        start = _clock()
        run()
        elapsed = _clock() - start
        return elapsed / count()

    return best_of(trial) * 1e9


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
class _Sink(Device):
    """A terminal device: recycles whatever is delivered to it."""

    def receive(self, packet, in_port) -> None:
        release_packet(packet)


def _switch(sim: Simulator, lb, *, n_ports: int = N_PORTS) -> Switch:
    """One switch with ``n_ports`` live uplinks to sinks; NIC 1000+ is
    reached over all of them, NICs 0..N_FLOWS-1 hang below it."""
    switch = Switch(sim, "sw", lb=lb, buffer=SharedBuffer(1 << 40),
                    ecn_marker=EcnMarker(EcnConfig(kmin_bytes=1 << 38,
                                                   kmax_bytes=1 << 39),
                                         SimRng(3)))
    for _ in range(n_ports):
        port = switch.add_port(100e9, 1000)
        port.connect(_Sink(sim, "sink"))
    uplinks = list(switch.ports)
    for flow in _up_flows():
        switch.routes[flow.dst] = uplinks
    switch.down_nics = set(range(N_FLOWS))
    return switch


def _up_flows() -> list[FlowKey]:
    """Flows from a NIC below the switch to a NIC beyond its uplinks."""
    return [FlowKey(i, 1000 + i, 0) for i in range(N_FLOWS)]


def _down_flows() -> list[FlowKey]:
    """Flows arriving over the fabric for a NIC below the switch."""
    return [FlowKey(1000 + i, i, 0) for i in range(N_FLOWS)]


def _packets(flows: list[FlowKey]) -> list:
    return [data_packet(flow, 0, PAYLOAD, udp_sport=2000 + i)
            for i, flow in enumerate(flows)]


# ----------------------------------------------------------------------
# repro.sim
# ----------------------------------------------------------------------
def sim_schedule_ns() -> float:
    def make():
        schedule = Simulator().schedule
        return (lambda i: schedule(1000, _noop)), None
    return measure(make)


def sim_fire_ns() -> float:
    def make():
        fire = Simulator().fire
        return (lambda i: fire(1000, _noop)), None
    return measure(make)


def sim_cancel_ns() -> float:
    """Timer re-arm: schedule 500 us ahead (overflow tier), then cancel —
    the RTO / DCQCN pattern, lazy-cancel compaction included."""
    def make():
        schedule = Simulator().schedule
        return (lambda i: schedule(500_000, _noop).cancel()), None
    return measure(make)


def _calendar_ns_per_event(chains: int) -> float:
    """Self-re-arming empty callbacks, each firing every 512 ns (8 calendar
    buckets of 64 ns): ``chains / 8`` events per bucket.  One schedule
    plus one dispatch per event."""
    def make():
        sim = Simulator()
        fire = sim.fire

        def tick(_arg) -> None:
            fire(512, tick)

        for chain in range(chains):
            fire(chain * 512 // chains, tick)
        rounds = max(1, 2 * N_OPS // chains)
        return (lambda: sim.run(until=rounds * 512)), (lambda: sim.executed)
    return run_timed(make)


def sim_dense_ns_per_event() -> float:
    return _calendar_ns_per_event(800)      # 100 events per bucket


def sim_sparse_ns_per_event() -> float:
    return _calendar_ns_per_event(8)        # 1 event per bucket


# ----------------------------------------------------------------------
# repro.net / repro.switch
# ----------------------------------------------------------------------
def net_port_hop_ns() -> float:
    """One packet across one port: dequeue, serialise, deliver (two
    events), from a backlog of ``N_OPS`` packets."""
    def make():
        sim = Simulator()
        port = Port(sim, Device(sim, "a"), bandwidth_bps=100e9,
                    delay_ns=1000)
        port.connect(_Sink(sim, "b"))
        flow = FlowKey(0, 1, 0)
        for psn in range(N_OPS):
            port.enqueue(data_packet(flow, psn, PAYLOAD))
        return sim.run, (lambda: N_OPS)
    return run_timed(make)


def switch_receive_ns() -> float:
    """``Switch.receive`` of a data packet: ECMP over 8 candidates, no
    middleware, egress enqueue included; queues drained between chunks."""
    def make():
        sim = Simulator()
        switch = _switch(sim, EcmpLB())
        flows = _up_flows()
        receive = switch.receive

        def op(i: int) -> None:
            receive(data_packet(flows[i % N_FLOWS], i, PAYLOAD,
                                udp_sport=2000 + i % N_FLOWS), None)

        return op, (lambda _base: sim.run())

    def baseline():
        flows = _up_flows()

        def op(i: int) -> None:
            data_packet(flows[i % N_FLOWS], i, PAYLOAD,
                        udp_sport=2000 + i % N_FLOWS)

        return op, None

    return max(0.0, measure(make) - measure(baseline))


LB_POLICIES: dict[str, Callable[[], object]] = {
    "ecmp": EcmpLB,
    "rps": lambda: RandomSprayLB(SimRng(5)),
    "flowlet": lambda: FlowletLB(SimRng(5)),
    "ar": lambda: AdaptiveRoutingLB(SimRng(5)),
    "reps": lambda: RepsLB(SimRng(5)),
    "prime": PrimeLB,
    "spritz": lambda: SpritzLB(SimRng(5)),
    "sprinklers": SprinklersLB,
}


def switch_lb_select_ns(policy: str) -> float:
    """``select`` over 8 live idle ports, 64 flows, PSNs advancing; every
    flow is acknowledged between chunks so REPS recycles entropies."""
    def make():
        sim = Simulator()
        lb = LB_POLICIES[policy]()
        switch = _switch(sim, lb)
        packets = _packets(_up_flows())
        candidates = switch.routes[packets[0].dst]
        select = lb.select
        on_ack = getattr(lb, "on_ack", None)

        def op(i: int) -> None:
            packet = packets[i % N_FLOWS]
            packet.psn = i // N_FLOWS
            select(switch, packet, candidates)

        def between(base: int) -> None:
            if on_ack is not None:
                for packet in packets:
                    on_ack(packet.flow, base // N_FLOWS)

        return op, between

    def baseline():
        packets = _packets(_up_flows())

        def op(i: int) -> None:
            packets[i % N_FLOWS].psn = i // N_FLOWS

        return op, None

    return max(0.0, measure(make) - measure(baseline))


# ----------------------------------------------------------------------
# repro.themis
# ----------------------------------------------------------------------
def themis_source_select_ns() -> float:
    def make():
        switch = _switch(Simulator(), EcmpLB())
        source = ThemisSource(ThemisConfig())
        packets = _packets(_up_flows())
        candidates = switch.routes[packets[0].dst]
        select_port = source.select_port

        def op(i: int) -> None:
            packet = packets[i % N_FLOWS]
            packet.psn = i // N_FLOWS
            select_port(switch, packet, candidates)

        return op, None
    return measure(make)


def themis_ring_enqueue_ns() -> float:
    def make():
        return PsnRingQueue(64).enqueue, None
    return measure(make)


def themis_ring_find_tpsn_ns() -> float:
    """tPSN lookup that scans two entries: the ring holds PSNs in arrival
    order and each NACK's ePSN is the older of the next two."""
    def make():
        ring = PsnRingQueue(2 * N_OPS, psn_bits=32)
        for psn in range(2 * N_OPS):
            ring.enqueue(psn)
        find_tpsn = ring.find_tpsn
        return (lambda i: find_tpsn(2 * i)), None
    return measure(make)


def _themis_dest(sim: Simulator) -> tuple[Switch, ThemisDest]:
    switch = _switch(sim, EcmpLB())
    dest = ThemisDest(ThemisConfig(), Metrics(sim),
                      n_paths_for=lambda flow: N_PORTS,
                      queue_capacity_for=lambda flow: 64)
    switch.add_middleware(dest)
    return switch, dest


def themis_dest_data_ns() -> float:
    """``ThemisDest.on_packet`` for a data packet bound for a local NIC:
    flow-table lookup plus ring enqueue."""
    def make():
        switch, dest = _themis_dest(Simulator())
        packets = _packets(_down_flows())
        on_packet = dest.on_packet

        def op(i: int) -> None:
            packet = packets[i % N_FLOWS]
            packet.psn = i // N_FLOWS
            on_packet(switch, packet, None)

        return op, None
    return measure(make)


def themis_dest_nack_ns() -> float:
    """``ThemisDest.on_packet`` for a NACK that is blocked (the common
    case on a loss-free fabric): tPSN scan, Eq. 3, arming guard.  Between
    chunks each flow receives, untimed, the out-of-order data packets the
    chunk's NACKs will be matched against."""
    per_flow = CHUNK // N_FLOWS

    def make():
        switch, dest = _themis_dest(Simulator())
        flows = _down_flows()
        packets = _packets(flows)
        on_packet = dest.on_packet
        nacks: list = []

        def between(base: int) -> None:
            # PSN p is odd, the NACK expects p - 1: different paths mod 8,
            # so Eq. 3 calls every one of them invalid.
            nacks.clear()
            first = 2 * (base // N_FLOWS) + 1
            for k in range(per_flow):
                for packet in packets:
                    packet.psn = first + 2 * k
                    on_packet(switch, packet, None)
            for k in range(per_flow):
                for flow in flows:
                    nacks.append(nack_packet(flow, first + 2 * k - 1))

        def op(i: int) -> None:
            on_packet(switch, nacks[i % CHUNK], None)

        return op, between

    def baseline():
        nacks = [None] * CHUNK
        return (lambda i: nacks[i % CHUNK]), None

    return max(0.0, measure(make) - measure(baseline))


# ----------------------------------------------------------------------
# repro.rnic / repro.cc / repro.obs
# ----------------------------------------------------------------------
def rnic_pair_ns_per_pkt() -> float:
    """Two NICs on one cable, fixed rate, in order, no loss: host time per
    data packet of bare send / receive / ACK — the smallest configuration
    a packet can cross."""
    def make():
        sim = Simulator()
        metrics = Metrics(sim)
        config = RnicConfig()
        nics = [Rnic(sim, i, config=config, metrics=metrics,
                     rng=SimRng(i),
                     cc_factory=lambda flow: FixedRate(sim, 100e9))
                for i in range(2)]
        for nic, peer in ((nics[0], nics[1]), (nics[1], nics[0])):
            nic.uplink = Port(sim, nic, bandwidth_bps=100e9, delay_ns=1000)
            nic.uplink.connect(peer)
        nbytes = N_OPS * config.payload_bytes
        nics[0].post_send(1, nbytes)
        nics[1].expect_message(0, nbytes, on_done=lambda: [n.stop()
                                                           for n in nics])
        return sim.run, (lambda: metrics.data_packets_sent)
    return run_timed(make)


def cc_dcqcn_tick_ns() -> float:
    """One DCQCN timer event (alpha decay or rate increase) including its
    dispatch: 1000 reaction points, each cut once by a CNP, then left to
    their timers for 5.5 ms of simulated time."""
    def make():
        sim = Simulator()
        points = [Dcqcn(sim, 100e9, DcqcnConfig()) for _ in range(1000)]
        for point in points:
            point.on_cnp()
        return (lambda: sim.run(until=5_500_000)), (lambda: sim.executed)
    return run_timed(make)


def obs_recorder_emit_ns() -> float:
    def make():
        packet_hop = Recorder().packet_hop
        packet = data_packet(FlowKey(0, 1, 0), 0, PAYLOAD)
        return (lambda i: packet_hop(i, "sw", packet)), None
    return measure(make)


# ----------------------------------------------------------------------
# repro.harness / repro.results
# ----------------------------------------------------------------------
def harness_network_build_ms(build: Callable[[], object]) -> float:
    """Best of ``TRIALS`` constructions of one workload's fabric, traffic
    posting included."""
    def trial() -> float:
        start = _clock()
        build()
        return _clock() - start
    return best_of(trial) * 1e3


def _zero_jobs(n: int) -> list[JobSpec]:
    # ``int(seed)``: an importable callable that does no work.
    return [JobSpec(kind="callable", seed=seed,
                    params={"target": "builtins:int"}) for seed in range(n)]


def harness_jobs_ms_per_job(workdir: str) -> dict[str, float]:
    """Runner overhead per zero-work job: in-process and in-process with
    a JSONL checkpoint (1000 jobs), and in a spawned subprocess (8 jobs,
    best of 3; a spawn costs a fifth of a second)."""
    def per_job(n: int, **kwargs) -> Callable[[], float]:
        def trial() -> float:
            path = kwargs.get("checkpoint")
            if path and os.path.exists(path):
                os.remove(path)
            specs = _zero_jobs(n)
            start = _clock()
            outcomes = JobRunner(workers=1, **kwargs).run(specs)
            elapsed = _clock() - start
            if not all(outcome.ok for outcome in outcomes.values()):
                raise RuntimeError("zero-work job failed")
            return elapsed / n
        return trial

    checkpoint = os.path.join(workdir, "jobs.jsonl")
    return {
        "harness.jobs.inproc_ms_per_job":
            best_of(per_job(N_OPS // 100, isolation="inproc")) * 1e3,
        "harness.jobs.checkpoint_ms_per_job":
            best_of(per_job(N_OPS // 100, isolation="inproc",
                            checkpoint=checkpoint)) * 1e3,
        "harness.jobs.subprocess_ms_per_job":
            best_of(per_job(max(2, N_OPS // 12_500), isolation="subprocess",
                            mp_method="spawn"), trials=min(3, TRIALS)) * 1e3,
    }


def results_store_us(workdir: str) -> dict[str, float]:
    """``put_job_result`` (one commit each, 500 puts) and
    ``get_job_result`` (5000 hits) on a store of arena-cell-sized rows."""
    result = {"completed": True, "tail_ns": 123456, "mean_slowdown": 1.2345,
              "goodput_gbps": 12.345, "reorder_rate": 0.0123,
              "nack_validity": 0.9876, "nacks": 12, "drops": 0,
              "nacks_blocked": 3, "retransmissions": 4}
    specs = [JobSpec(kind="arena_cell", seed=seed,
                     params={"lb": "rps", "transport": "themis",
                             "workload": "alltoall", "bytes": 40_000})
             for seed in range(N_OPS // 200)]
    hashes = [spec.spec_hash for spec in specs]
    path = os.path.join(workdir, "micro.sqlite")

    def put_trial() -> float:
        _remove_store(path)
        with ResultsStore(path) as store:
            start = _clock()
            for spec in specs:
                store.put_job_result(spec, result)
            return (_clock() - start) / len(specs)

    put_us = best_of(put_trial) * 1e6

    def get_trial() -> float:
        with ResultsStore(path) as store:
            start = _clock()
            for _ in range(10):
                for spec_hash in hashes:
                    store.get_job_result(spec_hash)
            return (_clock() - start) / (10 * len(hashes))

    return {"results.store.put_us": put_us,
            "results.store.get_us": best_of(get_trial) * 1e6}


def results_ingest(workdir: str, arena_doc: dict) -> dict[str, float]:
    """Ingest and re-emit of one quick-arena document."""
    path = os.path.join(workdir, "ingest.sqlite")
    rows = len(arena_doc["cells"]) + len(arena_doc["ranking"])
    run_ids: list[int] = []

    def ingest_trial() -> float:
        _remove_store(path)
        with ResultsStore(path) as store:
            start = _clock()
            receipt = ingest_doc(store, arena_doc)
            elapsed = _clock() - start
            run_ids.append(receipt["run_id"])
            return elapsed

    ingest_s = best_of(ingest_trial)

    def emit_trial() -> float:
        with ResultsStore(path) as store:
            start = _clock()
            emit_arena_doc(store, run_ids[-1])
            return _clock() - start

    return {"results.ingest.rows_per_s": rows / ingest_s,
            "results.emit_ms": best_of(emit_trial) * 1e3}


def _remove_store(path: str) -> None:
    for suffix in ("", "-wal", "-shm"):
        if os.path.exists(path + suffix):
            os.remove(path + suffix)


# ----------------------------------------------------------------------
# Which workload's traced run prices which layers
# ----------------------------------------------------------------------
def run_for(workload: str, *, workdir: str, smoke: bool = False,
            build: Optional[Callable[[], object]] = None,
            arena_doc: Optional[dict] = None) -> dict[str, float]:
    """The micro-benchmarks that belong to ``workload``.

    ``build`` constructs the workload's fabric (simulation workloads);
    ``arena_doc`` is a quick-arena document (dashboard_serve).
    """
    global N_OPS, TRIALS
    if smoke:
        # One group, once, in a worker of its own: resizing the module's
        # two constants in place reaches every fixture and nothing else.
        N_OPS, TRIALS = 2 * CHUNK, 1
    out: dict[str, float] = {}
    if build is not None:
        out["harness.network.build_ms"] = harness_network_build_ms(build)
    if workload == "spray_alltoall":
        out["sim.schedule_ns"] = sim_schedule_ns()
        out["sim.fire_ns"] = sim_fire_ns()
        out["sim.dense_ns_per_event"] = sim_dense_ns_per_event()
        out["net.port.hop_ns"] = net_port_hop_ns()
        out["switch.receive_ns"] = switch_receive_ns()
        out["rnic.pair_ns_per_pkt"] = rnic_pair_ns_per_pkt()
        out["obs.recorder.emit_ns"] = obs_recorder_emit_ns()
    elif workload == "themis_allreduce":
        out["themis.source.select_ns"] = themis_source_select_ns()
        out["themis.ring.enqueue_ns"] = themis_ring_enqueue_ns()
        out["themis.ring.find_tpsn_ns"] = themis_ring_find_tpsn_ns()
        out["themis.dest.data_ns"] = themis_dest_data_ns()
        out["themis.dest.nack_ns"] = themis_dest_nack_ns()
    elif workload == "ar_allreduce":
        out["cc.dcqcn.tick_ns"] = cc_dcqcn_tick_ns()
    elif workload == "themis_lossy":
        out["sim.cancel_ns"] = sim_cancel_ns()
        out["sim.sparse_ns_per_event"] = sim_sparse_ns_per_event()
    elif workload == "arena_pipeline":
        for policy in LB_POLICIES:
            out[f"switch.lb.{policy}.select_ns"] = switch_lb_select_ns(policy)
        out.update(harness_jobs_ms_per_job(workdir))
    elif workload == "arena_warm":
        out.update(results_store_us(workdir))
    elif workload == "dashboard_serve":
        out.update(results_ingest(workdir, arena_doc))
    return out

