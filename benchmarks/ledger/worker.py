"""One repetition of one workload, in a fresh process.

``run.py`` launches this file once per repetition (never two at a time)
and reads the JSON object it prints last.  ``setup_s`` runs from the first
line below — before ``repro`` is imported — to the start of the timed
region (the reference loop excluded); GC stays at the interpreter default,
because that is what a ``repro`` user pays.  Times are reported raw, with
the reference-loop time beside them; the parent does the scaling.  Modes:

* default      one untraced repetition: end-to-end numbers, exact counts,
               output checks;
* ``--traced`` the same repetition with the tracer of ``tracing.py`` on;
* ``--recorder`` (spray_alltoall) with an all-category ``Recorder`` wired
               through the fabric, to price ``repro.obs``;
* ``--layers`` the micro-benchmarks of ``layers.py`` that belong to the
               workload.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import http.client  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import zlib  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import check  # noqa: E402
import workloads  # noqa: E402
from repro.harness import network as netmod  # noqa: E402

_clock = time.perf_counter

def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _percentile(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class _RefObject:
    __slots__ = ("a", "b", "window")

    def __init__(self) -> None:
        self.a, self.b, self.window = 0, 1, []

    def step(self, i: int) -> int:
        self.a += i
        self.b ^= self.a
        window = self.window
        window.append(i)
        if len(window) > 64:
            window.pop(0)
        return self.b


#: Iterations of the reference loop (``--smoke``: a token amount).
REFERENCE_OPS = 1_000_000
SMOKE_REFERENCE_OPS = 10_000


def reference_loop(ops: int) -> float:
    """Seconds a fixed piece of interpreter work takes right now: method
    calls, slot and dict stores, list churn — a quarter of a second on the
    box the baseline was recorded on.  It depends on nothing under
    ``src/``, so it measures the machine, not the program."""
    start = _clock()
    objects = [_RefObject() for _ in range(64)]
    table = {}
    for i in range(ops):
        table[i & 1023] = objects[i & 63].step(i)
    return _clock() - start


class TimedRegion:
    """A workload's timed region, bracketed by the reference loop.

    The shared box has slow phases of tens of seconds in which everything
    runs up to 40 % slower; the reference loop, timed immediately before
    and after the region, slows down with it (README, "the reference
    loop"), so the parent can scale host times to a steady machine.  The
    traced layer table covers exactly the region.
    """

    def __init__(self, args, tracer) -> None:
        self.tracer = tracer
        self.ref_ops = SMOKE_REFERENCE_OPS if args.smoke else REFERENCE_OPS
        self.ref_before_s = reference_loop(self.ref_ops)
        if tracer is not None:
            tracer.reset()
        self.start = _clock()

    def stop(self, remainder: str, wall_s: float | None = None) -> dict:
        """End the region; host time no layer claimed goes to
        ``remainder``.  ``wall_s`` overrides the clock when the region's
        time is a sum of separately timed calls."""
        if wall_s is None:
            wall_s = _clock() - self.start
        layers = (None if self.tracer is None
                  else self.tracer.layer_table(wall_s, remainder))
        ref_s = (self.ref_before_s + reference_loop(self.ref_ops)) / 2
        return {"setup_s": self.start - T0 - self.ref_before_s,
                "wall_s": wall_s, "ref_s": ref_s, "layers": layers}


# ----------------------------------------------------------------------
# Simulation workloads
# ----------------------------------------------------------------------
def sim_counts(run: workloads.SimRun) -> dict:
    net = run.net
    metrics = net.metrics
    flows = sorted((tuple(f.flow), f.start_ns, f.receiver_done_ns,
                    f.packets_sent, f.retransmissions)
                   for f in metrics.flows.values())
    first_tx = metrics.data_packets_sent - metrics.retransmissions
    events = net.sim.executed
    themis = metrics.themis
    return {
        "sim.events": events,
        "sim.batches": net.sim.batches,
        "sim.tail_ns": run.tail_ns(),
        "sim.fingerprint": zlib.crc32(repr(flows).encode()),
        "sim.events_per_pkt": events / max(1, first_tx),
        "sim.events_per_batch": events / max(1, net.sim.batches),
        "rnic.data_pkts_sent": metrics.data_packets_sent,
        "rnic.retransmissions": metrics.retransmissions,
        "rnic.nacks_generated": metrics.nacks_generated,
        "rnic.acks_generated": metrics.acks_generated,
        "rnic.ooo_arrivals": sum(f.receiver_ooo
                                 for f in metrics.flows.values()),
        "cc.cnps_generated": metrics.cnps_generated,
        "switch.ecn_marks": sum(s.ecn_marker.marked
                                for s in net.topology.switches),
        "net.port.drops": metrics.drops,
        "themis.nacks_inspected": themis.nacks_inspected,
        "themis.nacks_blocked": themis.nacks_blocked,
        "themis.nacks_forwarded": themis.nacks_forwarded,
        "themis.nacks_compensated": themis.nacks_compensated,
        "themis.queue_overflows": themis.queue_overflows,
        "themis.tpsn_not_found": themis.tpsn_not_found,
    }


def run_sim(args, tracer) -> dict:
    kwargs = {}
    if args.recorder:
        from repro.obs.record import Recorder
        kwargs["recorder"] = Recorder()
    run = workloads.SIM_BUILDERS[args.workload](args.seed, args.smoke,
                                                **kwargs)
    region = TimedRegion(args, tracer)
    run.net.run(until_ns=run.deadline_ns)
    timing = region.stop("other")
    run.net.stop()
    counts = sim_counts(run)
    return {**timing,
            "work": counts["rnic.data_pkts_sent"]
            - counts["rnic.retransmissions"],
            "attempted": 1, "counts": counts, "stages": {}}


# ----------------------------------------------------------------------
# Arena workloads
# ----------------------------------------------------------------------
def _arena_counts(doc: dict, doc_json: str) -> dict:
    """Exact counts an arena document carries, summed over its cells."""
    counts = dict.fromkeys(check.COUNT_NAMES, 0)
    cells = doc["cells"]
    counts["sim.tail_ns"] = sum(c["tail_ns"] for c in cells)
    counts["sim.fingerprint"] = zlib.crc32(doc_json.encode())
    counts["rnic.retransmissions"] = sum(c["retransmissions"] for c in cells)
    counts["rnic.nacks_generated"] = sum(c["nacks"] for c in cells)
    counts["net.port.drops"] = sum(c["drops"] for c in cells)
    counts["themis.nacks_blocked"] = sum(c["nacks_blocked"] for c in cells)
    return counts


def _warm_calls(run_arena, store, kwargs, cold_json: str, calls: int) -> dict:
    """``calls`` warm ``run_arena`` calls, each timed on its own; the
    checks between them are not timed."""
    from repro.harness.metrics import JobCounters

    times = []
    executed = hits = mismatches = 0
    for _ in range(calls):
        counters = JobCounters()
        start = _clock()
        doc = run_arena(cache=store, counters=counters, **kwargs)
        times.append(_clock() - start)
        executed += counters.executed
        hits += counters.cache_hits
        mismatches += _canonical(doc) != cold_json
    return {"times": times, "warm_calls": calls, "warm_executed": executed,
            "warm_hits": hits, "warm_mismatches": mismatches}


def run_arena_workload(args, tracer, workdir: str) -> dict:
    from repro.harness.arena import run_arena, validate_arena_doc
    from repro.harness.metrics import JobCounters
    from repro.results import ResultsStore, emit_arena_doc, ingest_doc

    warm_only = args.workload == "arena_warm"
    kwargs = workloads.arena_kwargs(args.seed, args.smoke)
    store = ResultsStore(os.path.join(workdir, "results.sqlite"))
    try:
        if tracer is not None:
            store.get_job_result = tracer.timed("results.store",
                                                store.get_job_result)
            store.put_job_result = tracer.timed("results.store",
                                                store.put_job_result)
        counters = JobCounters()
        # On arena_warm the cold fill is set-up, not a timed region.
        region = None if warm_only else TimedRegion(args, tracer)
        cold_doc = run_arena(cache=store, counters=counters, **kwargs)
        if region is not None:
            timing = region.stop("harness.jobs")
        cold_json = _canonical(cold_doc)
        cells = len(cold_doc["cells"])
        arena = {"doc_problems": validate_arena_doc(cold_doc),
                 "cells": cells, "cold_json": cold_json,
                 "cold_executed": counters.executed,
                 "cold_hits": counters.cache_hits}

        if warm_only:
            calls = 5 if args.smoke else workloads.WARM_CALLS
            region = TimedRegion(args, tracer)
            warm = _warm_calls(run_arena, store, kwargs, cold_json, calls)
            timing = region.stop("harness.jobs", wall_s=sum(warm["times"]))
            work = cells * calls
            stages = {}
        else:
            warm = _warm_calls(run_arena, store, kwargs, cold_json,
                               workloads.WARM_SAMPLES)
            work = cells
            start = _clock()
            receipt = ingest_doc(store, cold_doc)
            ingest_s = _clock() - start
            arena["emitted_json"] = _canonical(
                emit_arena_doc(store, receipt["run_id"]))
            stages = {"results.ingest_ms": ingest_s * 1e3}
        arena.update(warm)
        stages.update({
            "harness.arena.warm_ms": statistics.median(warm["times"]) * 1e3,
            "harness.arena.jobs_executed":
                arena["cold_executed"] + warm["warm_executed"],
            "harness.arena.cache_hits": arena["cold_hits"] + warm["warm_hits"],
        })
    finally:
        store.close()
    return {**timing, "work": work,
            "attempted": 1, "counts": _arena_counts(cold_doc, cold_json),
            "stages": stages, "arena": arena}


# ----------------------------------------------------------------------
# Dashboard workload
# ----------------------------------------------------------------------
def _get(port: int, path: str) -> tuple[int, str, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return (response.status, response.getheader("Content-Type", ""),
                response.read())
    finally:
        conn.close()


def run_dashboard(args, tracer, workdir: str) -> dict:
    from repro.harness.arena import run_arena
    from repro.results import ResultsStore, ingest_doc
    from repro.results.server import make_server

    db_path = os.path.join(workdir, "results.sqlite")
    doc = run_arena(**workloads.arena_kwargs(args.seed, args.smoke))
    with ResultsStore(db_path) as store:
        for i in range(workloads.DASHBOARD_RUNS):
            run_id = ingest_doc(store, doc, source=f"run-{i}")["run_id"]
        for i, bench in enumerate(workloads.synthetic_bench_docs(args.seed)):
            ingest_doc(store, bench, source=f"bench-{i}")
    pages = workloads.dashboard_paths(run_id, doc["cells"][0]["spec_hash"])

    server = make_server(db_path, port=0, quiet=True)
    render_times: list[float] = []
    if tracer is not None:
        inner = server.dashboard.render

        def render(path, host="localhost"):
            start = _clock()
            try:
                return inner(path, host=host)
            finally:
                render_times.append(_clock() - start)

        server.dashboard.render = tracer.timed("results.render", render)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        port = server.server_address[1]
        # One validated request per page: checks the output and lets
        # per-thread connections and sqlite caches fill before timing.
        page_problems, lengths = [], {}
        for name, path in pages:
            status, ctype, body = _get(port, path)
            page_problems += check.page_problem(path, status, ctype, body)
            lengths[name] = len(body)
        render_times.clear()

        rounds = 5 if args.smoke else workloads.DASHBOARD_ROUNDS
        latencies: dict[str, list[float]] = {name: [] for name, _ in pages}
        errors = 0
        region = TimedRegion(args, tracer)
        for _ in range(rounds):
            for name, path in pages:
                t0 = _clock()
                status, _ctype, body = _get(port, path)
                latencies[name].append(_clock() - t0)
                if status != 200 or len(body) != lengths[name]:
                    errors += 1
        timing = region.stop("results.http")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=30)

    every = [t for times in latencies.values() for t in times]
    stages = {f"results.serve.{name}_p50_ms":
              statistics.median(times) * 1e3
              for name, times in latencies.items()}
    stages["results.serve.p50_ms"] = statistics.median(every) * 1e3
    stages["results.serve.p95_ms"] = _percentile(every, 0.95) * 1e3
    stages["results.serve.requests"] = len(every)
    stages["results.serve.errors"] = errors
    if render_times:
        stages["results.serve.http_overhead_ms"] = (
            statistics.median(every) - statistics.median(render_times)) * 1e3
    return {**timing, "work": len(every),
            "attempted": len(every), "failed": errors,
            "counts": dict.fromkeys(check.COUNT_NAMES, 0), "stages": stages,
            "serve": {"page_problems": page_problems, "errors": errors,
                      "requests": len(every)}}


# ----------------------------------------------------------------------
# Micro-benchmarks
# ----------------------------------------------------------------------
def run_layers(args, workdir: str) -> dict:
    import layers

    build = arena_doc = None
    if args.workload in workloads.SIM_BUILDERS:
        builder = workloads.SIM_BUILDERS[args.workload]
        build = lambda: builder(args.seed, args.smoke)  # noqa: E731
    elif args.workload == "dashboard_serve":
        from repro.harness.arena import run_arena
        arena_doc = run_arena(**workloads.arena_kwargs(args.seed, args.smoke))
    return {"micro": layers.run_for(args.workload, workdir=workdir,
                                    smoke=args.smoke, build=build,
                                    arena_doc=arena_doc)}


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--recorder", action="store_true")
    parser.add_argument("--layers", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    tmp_root = os.path.join(ROOT, ".ledger_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=tmp_root)
    try:
        if args.layers:
            result = run_layers(args, workdir)
        else:
            result = run_repetition(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(workload=args.workload, seed=args.seed)
    print(json.dumps(result))
    return 0


def run_repetition(args, workdir: str) -> dict:
    tracer = None
    if args.traced:
        from tracing import Tracer, traced_network_class
        tracer = Tracer()
        netmod.Network = traced_network_class(tracer)
    if args.workload in workloads.SIM_BUILDERS:
        result = run_sim(args, tracer)
    elif args.workload == "dashboard_serve":
        result = run_dashboard(args, tracer, workdir)
    else:
        result = run_arena_workload(args, tracer, workdir)
    result["smoke"] = args.smoke
    result["problems"] = check.CHECKS[args.workload](result)
    result.setdefault("failed", 1 if result["problems"] else 0)
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024)
    if tracer is not None and args.trace_out:
        tracer.write_chrome_trace(args.trace_out, args.workload)
    # Checked above; too bulky to ship to the parent.
    for key in ("arena", "serve"):
        result.pop(key, None)
    return result


if __name__ == "__main__":
    sys.exit(main())
