"""Perf-benchmark harness: ``python -m repro bench``.

Runs three canonical scenarios on the calendar-queue engine and reports
events/sec and wall time, writing the results to ``BENCH_engine.json`` at
the repo root so the perf trajectory is tracked across PRs:

* ``incast``   — 15-to-1 congestion onto one receiver (deep queues, ECN
  marking, CNP feedback; stresses buffer/marking hot paths).
* ``alltoall`` — all-to-all spray across a 32-node leaf-spine fabric
  (16 ToRs x 8 spines, the Fig. 5 regime; stresses the spraying +
  reordering hot path and is the scenario the engine-speedup acceptance
  gate is measured on).
* ``lossy``    — recovery on a lossy uplink (NACK/RTO churn; stresses
  timer cancellation and the sparsest calendar).

The determinism contract behind the numbers (bit-identical event order
against the reference heap engine) is pinned by
``tests/sim/test_batched_golden.py``; this harness only measures.

Measurement methodology
-----------------------
Wall-clock timing of a Python event loop is noisy in ways that bias a
comparison across commits if ignored:

* **Allocator warm-up.**  Repeated runs inside one process drift — a
  later measurement benefits from arenas an earlier one paid to map.
  Each measurement therefore runs in a **fresh spawned process** (pyperf
  style); the parent only collects the numbers.
* **GC pauses.**  Cyclic GC fires at allocation-dependent points.  The
  timed region runs with the collector disabled (after an explicit
  ``gc.collect()``); pooling keeps real garbage negligible for the run
  lengths measured here.
* **Scheduling noise.**  Each scenario is measured ``repeats`` times and the **minimum** wall time is reported — the
  standard best-of-N estimator for "how fast can this code run".

``--quick`` shrinks message sizes ~8x, uses one repeat, and skips process
isolation, for CI smoke runs where only "does it run" matters.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable, Iterator, Optional

from repro.harness.network import Network, NetworkConfig, TopologySpec
from repro.harness.workload import (alltoall_pairs, lossy_uplinks,
                                    post_messages)
from repro.sim.engine import DEFAULT_BUCKET_NS, MS, US

#: Output file tracked at the repo root.
DEFAULT_OUT = "BENCH_engine.json"
#: Scenario names in run order.
SCENARIOS = ("incast", "alltoall", "lossy")
#: Hard simulated-time deadline so a regression can't hang the harness.
DEADLINE_NS = 800 * MS
#: Default best-of-N repeats for a full (non-quick) run.
DEFAULT_REPEATS = 3
#: Regression gate: allowed events/sec drop below the baseline.  Absolute
#: throughput differs across machines, hence the wide margin.
MAX_REGRESSION = 0.30
#: Regression gate: allowed growth of the tracing ``overhead_ratio``.  A
#: same-machine quotient, so much tighter than the raw-throughput one.
MAX_TRACING_REGRESSION = 0.15


@dataclass
class ScenarioResult:
    """One scenario's measurement."""

    scenario: str
    engine: str
    events: int
    wall_s: float
    events_per_sec: float
    sim_time_ns: int
    completed: bool


#: name -> ((ToRs, spines, NICs per ToR), (src, dst) pairs, full-mode
#: message bytes, 1% loss on tor0's uplinks?).  Full-mode sizes make every
#: run take >0.5 s of wall time: shorter runs were dominated by per-run
#: constant costs and timer jitter, making the regression gate noisy.
_SCENARIO_SPECS = {
    "incast": ((2, 2, 8), [(src, 0) for src in range(1, 16)],
               2_000_000, False),
    # Wide fabric: 8-way spray at every source ToR, 992 concurrent flows.
    "alltoall": ((16, 8, 2), alltoall_pairs(32), 120_000, False),
    # Spraying keeps hitting the lossy uplinks, so recovery (NACKs, RTO
    # re-arms) dominates the event mix.
    "lossy": ((2, 2, 2), ((0, 2), (1, 3), (2, 0), (3, 1)),
              8_000_000, True),
}


def build_scenario(name: str, quick: bool, sim=None,
                   recorder=None) -> Network:
    """The wired fabric of one scenario with its traffic posted.

    Quick mode shrinks message sizes ~8x for CI smoke runs.  The fabric
    stops once every message is delivered and acknowledged (the one
    stop rule of :class:`~repro.harness.workload.Traffic`), so a run
    measures the traffic regime, not a tail of idle DCQCN timer ticks.
    """
    (num_tors, num_spines, nics_per_tor), pairs, nbytes, lossy = \
        _SCENARIO_SPECS[name]
    topo = TopologySpec(kind="leaf_spine", num_tors=num_tors,
                        num_spines=num_spines, nics_per_tor=nics_per_tor,
                        link_bandwidth_bps=100e9, link_delay_ns=US)
    net = Network(NetworkConfig(topology=topo, scheme="rps",
                                transport="nic_sr", seed=7), sim=sim,
                  recorder=recorder)
    if lossy:
        lossy_uplinks(net, net.topology.tors[:1], 0.01, "bench-loss")
    post_messages(net, pairs, nbytes // 8 if quick else nbytes)
    return net


#: ``BUILDERS[name](quick, sim, recorder)`` — what the golden tests call
#: to run the bench geometries on the reference engine.
BUILDERS: dict[str, Callable[..., Network]] = {
    name: partial(build_scenario, name) for name in SCENARIOS}


@contextmanager
def gc_paused() -> Iterator[None]:
    """Collect once, then keep the cyclic GC off for a timed region."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def run_scenario(name: str, *, quick: bool = False,
                 traced: bool = False) -> ScenarioResult:
    """Build and run one scenario, timing the event loop only.

    The timed region excludes topology construction and runs with the
    cyclic GC disabled (see the module docstring).

    ``traced=True`` wires an all-category flight recorder (ring only, no
    retained lists) through the run — the configuration every traced sim
    pays for — so ``run_bench`` can price the tracing overhead.
    """
    recorder = None
    if traced:
        from repro.obs.record import Recorder
        recorder = Recorder()
    net = BUILDERS[name](quick, None, recorder)
    with gc_paused():
        start = time.perf_counter()
        net.run(until_ns=DEADLINE_NS)
        wall = time.perf_counter() - start
    completed = net.metrics.all_flows_done()
    events = net.sim.executed
    net.stop()
    return ScenarioResult(
        scenario=name, engine="calendar", events=events,
        wall_s=round(wall, 4),
        events_per_sec=round(events / wall) if wall > 0 else 0,
        sim_time_ns=net.traffic.end_ns, completed=completed)


def run_bench_cell(params: dict, seed: int) -> dict:
    """The ``bench`` job kind: one measurement, as a JSON payload."""
    return asdict(run_scenario(params["scenario"], quick=params["quick"],
                               traced=params.get("traced", False)))


# ----------------------------------------------------------------------
# Process isolation (via the experiment job runner)
# ----------------------------------------------------------------------
def _best_of(name: str, *, quick: bool, repeats: int,
             fresh_process: bool, traced: bool = False) -> ScenarioResult:
    """Best-of-N wall time, each measurement a job-runner job; asserts
    the runs executed identical events.

    Full mode uses a fresh **spawned** subprocess per measurement (the
    pyperf-style cold process of the methodology above — ``fork`` would
    inherit the parent's warmed allocator arenas).  The runner degrades
    to an in-process run if spawning fails (restricted environments);
    the numbers are then subject to warm-up drift but the harness still
    works everywhere.
    """
    from repro.harness.jobs import JobRunner, JobSpec

    label = f"bench/{name}" + ("/traced" if traced else "")
    spec = JobSpec(kind="bench", seed=0, label=label,
                   params={"scenario": name, "quick": quick,
                           "traced": traced})
    results = []
    for _ in range(max(1, repeats)):
        outcome = JobRunner(
            isolation="subprocess" if fresh_process else "inproc",
            retries=1, mp_method="spawn").run_one(spec)
        if not outcome.ok:
            raise RuntimeError(f"bench measurement {label} failed: "
                               f"{outcome.error}")
        results.append(ScenarioResult(**outcome.result))
    events = {r.events for r in results}
    if len(events) != 1:
        raise AssertionError(
            f"{name}: repeated runs executed different event "
            f"counts {sorted(events)} — nondeterminism detected")
    return min(results, key=lambda r: r.wall_s)


def run_bench(*, quick: bool = False, repeats: Optional[int] = None,
              out: Optional[str] = DEFAULT_OUT,
              echo: Callable[[str], None] = print) -> dict:
    """Run all scenarios and write ``out``.

    Returns the result document (also what lands in the JSON file).
    """
    if repeats is None:
        repeats = 1 if quick else DEFAULT_REPEATS
    fresh_process = not quick
    doc: dict = {
        "schema_version": 5,
        "generated_by": "python -m repro bench" + (" --quick" if quick else ""),
        "quick": quick,
        "python": ".".join(map(str, sys.version_info[:3])),
        "engine": {"kind": "calendar", "bucket_ns": DEFAULT_BUCKET_NS},
        "measurement": {"repeats": repeats,
                        "estimator": "min wall time",
                        "fresh_process": fresh_process,
                        "gc_disabled": True},
        "scenarios": {},
    }
    if not fresh_process:
        # In-proc mode: warm the interpreter (allocator arenas, lazily
        # imported modules, type caches) before the first measurement,
        # or the first scenario measured pays the cold-start alone and
        # skews every cross-scenario comparison.
        run_scenario("incast", quick=quick)
    for name in SCENARIOS:
        res = _best_of(name, quick=quick, repeats=repeats,
                       fresh_process=fresh_process)
        doc["scenarios"][name] = asdict(res)
        echo(f"{name:<10} {res.events:>9} events  {res.wall_s:>7.3f} s  "
             f"{res.events_per_sec:>9,} ev/s  "
             f"(sim {res.sim_time_ns / 1000:.0f} us, "
             f"completed={res.completed})")

    # Price the observability layer: one traced alltoall run against the
    # untraced number above.  check_regression() gates the growth of
    # this same-machine ratio, not the traced run's raw events/sec.
    traced = _best_of("alltoall", quick=quick, repeats=repeats,
                      fresh_process=fresh_process, traced=True)
    cal = doc["scenarios"]["alltoall"]
    if traced.events != cal["events"]:
        raise AssertionError(
            "tracing changed the simulation: traced alltoall executed "
            f"{traced.events} events vs {cal['events']} untraced — the "
            "recorder must be observation-only")
    overhead = (cal["events_per_sec"] / traced.events_per_sec
                if traced.events_per_sec else 0.0)
    doc["tracing"] = {"scenario": "alltoall",
                      "events": traced.events,
                      "wall_s": traced.wall_s,
                      "events_per_sec": traced.events_per_sec,
                      "overhead_ratio": round(overhead, 3)}
    echo(f"{'traced':<10} {traced.events:>9} events  "
         f"{traced.wall_s:>7.3f} s  {traced.events_per_sec:>9,} ev/s")
    echo(f"full-tracing overhead (alltoall): {overhead:.2f}x untraced")

    if out:
        with open(out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=False)
            fh.write("\n")
        echo(f"wrote {out}")
    return doc


# ----------------------------------------------------------------------
# Regression gate (CI)
# ----------------------------------------------------------------------
def check_regression(doc: dict, baseline_path: str, *,
                     echo: Callable[[str], None] = print) -> list[str]:
    """Compare a bench document against a tracked baseline file.

    Returns the list of regressions: scenarios whose ``events_per_sec``
    fell more than ``MAX_REGRESSION`` (fraction) below the baseline, and
    a tracing regression if the traced-run ``overhead_ratio`` grew more
    than ``MAX_TRACING_REGRESSION`` above the baseline's.  Scenarios
    present on only one side are compared on the intersection; the gate
    is a catch-big-regressions tripwire, not a precision benchmark.  A
    quick run and a full-mode one are not comparable in either
    direction: that is said, and nothing is gated.
    """
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    run_mode, base_mode = ("quick" if d.get("quick") else "full-mode"
                           for d in (doc, baseline))
    if run_mode != base_mode:
        # Quick messages are ~8x smaller, so per-run constant costs weigh
        # more: an unchanged tree reads ~0.8x its own full-mode numbers.
        echo(f"regression gate: not comparable: {run_mode} run vs "
             f"{base_mode} baseline")
        return []
    regressions: list[str] = []
    base_scenarios = baseline.get("scenarios", {})
    for name, current in doc.get("scenarios", {}).items():
        base = base_scenarios.get(name)
        if not base or not base.get("events_per_sec"):
            continue
        ratio = current["events_per_sec"] / base["events_per_sec"]
        verdict = "ok"
        if ratio < 1.0 - MAX_REGRESSION:
            verdict = "REGRESSION"
            regressions.append(
                f"{name}: {current['events_per_sec']:,} ev/s vs baseline "
                f"{base['events_per_sec']:,} ev/s ({ratio:.2f}x, "
                f"gate {1.0 - MAX_REGRESSION:.2f}x)")
        echo(f"regression gate: {name:<10} {ratio:5.2f}x baseline "
             f"({verdict})")
    base_tr = baseline.get("tracing", {}).get("overhead_ratio")
    cur_tr = doc.get("tracing", {}).get("overhead_ratio")
    if base_tr and cur_tr:
        growth = cur_tr / base_tr
        verdict = "ok"
        if growth > 1.0 + MAX_TRACING_REGRESSION:
            verdict = "REGRESSION"
            regressions.append(
                f"tracing: overhead {cur_tr:.2f}x untraced vs baseline "
                f"{base_tr:.2f}x ({growth:.2f}x worse, gate "
                f"{1.0 + MAX_TRACING_REGRESSION:.2f}x)")
        echo(f"regression gate: {'tracing':<10} {growth:5.2f}x baseline "
             f"overhead ({verdict})")
    return regressions
