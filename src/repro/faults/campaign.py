"""Fault campaigns: run a scenario across seeds, verify resilience.

A **cell** is one (scenario, seed) simulation: the canonical traced
alltoall workload with the scenario's fault schedule installed, plus a
baseline run of the *same seed without faults* for reference.  Each cell
reports the three resilience headline numbers the issue asks for:

* **recovery time** — how long after the last fault action aggregate
  goodput returns to ``RECOVERY_FRACTION`` of its pre-fault mean;
* **goodput dip** — the deepest aggregate-goodput window during the
  fault span, as a fraction of the pre-fault mean;
* **NACK validity** — the full causality audit summary; a cell with any
  unexplained compensation decision is a correctness failure, not a
  performance data point.

Cells are deterministic: same seed + same compiled spec produce a
bitwise-identical result document (no wall-clock values inside), which
is what lets campaigns ride the checkpoint/resume machinery of
:class:`repro.harness.jobs.JobRunner` via the ``fault_cell`` job kind.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.faults.spec import compiled_spec, spec_duration_us
from repro.harness.report import NUMBER_OR_NULL, field_problems

#: Goodput is "recovered" at this fraction of the pre-fault mean.
RECOVERY_FRACTION = 0.9

#: Workload defaults for a cell; the spec's ``workload`` section
#: overrides any of them.
DEFAULT_WORKLOAD = {
    "nodes": 8,
    "message_bytes": 20_000,
    "scheme": "themis",
    "loss": 0.0,
    "trace_window_us": 10.0,
}

RESULT_VERSION = 1

#: Schema marker for the campaign output document written by
#: ``repro faults run --out`` — the ingest format of ``repro.results``
#: (mirrors ``repro-arena-v1`` for the arena).
FAULTS_SCHEMA = "repro-faults-v1"


# ----------------------------------------------------------------------
# One cell
# ----------------------------------------------------------------------
def run_cell(params: dict, seed: int) -> dict:
    """Execute one campaign cell; returns the JSON result document.

    ``params`` carries ``{"spec": <compiled scenario spec>}`` plus an
    optional ``"deadline_ns"``.
    """
    from repro.harness.tracing import (TRACE_DEADLINE_NS,
                                       run_traced_alltoall)
    from repro.obs.nacks import build_audit
    from repro.obs.record import FAULT, NACK
    from repro.sim.engine import US

    spec = compiled_spec(params["spec"])
    workload = {**DEFAULT_WORKLOAD, **spec.get("workload", {})}

    def once(fault_spec: Optional[dict]):
        return run_traced_alltoall(
            nodes=workload["nodes"], loss=workload["loss"], seed=seed,
            message_bytes=workload["message_bytes"],
            scheme=workload["scheme"], faults=fault_spec,
            watch_flows=True,
            trace_window_ns=int(round(workload["trace_window_us"] * US)),
            deadline_ns=int(params.get("deadline_ns", TRACE_DEADLINE_NS)))

    base_net, _ = once(None)
    net, recorder = once(spec)

    injector = net.fault_injector
    first_ns = injector.first_fault_ns if injector else None
    last_ns = injector.last_event_ns if injector else None
    converge_ns = injector.converge_ns if injector else 0

    goodput = _goodput_metrics(net.metrics, first_ns,
                               None if last_ns is None
                               else last_ns + converge_ns)
    audit = build_audit(recorder.records(NACK))
    audit_summary = audit.summary()

    completion_ns = net.traffic.done_ns
    baseline_ns = base_net.traffic.done_ns
    tail_stretch = (round(completion_ns / baseline_ns, 6)
                    if completion_ns and baseline_ns else None)

    return {
        "version": RESULT_VERSION,
        "scenario": spec["name"],
        "seed": seed,
        "workload": workload,
        "completed": net.metrics.all_flows_done(),
        "completion_ns": completion_ns,
        "baseline_completion_ns": baseline_ns,
        "tail_stretch": tail_stretch,
        "goodput": goodput,
        "faults": {
            "scheduled": len(spec["events"]),
            "applied": len(injector.applied) if injector else 0,
            "first_ns": first_ns,
            "last_ns": last_ns,
            "converge_ns": converge_ns,
            "fault_events_recorded": len(recorder.records(FAULT)),
        },
        "nacks": audit_summary,
        "drops": net.metrics.drops,
        "retransmissions": net.metrics.retransmissions,
        "baseline_drops": base_net.metrics.drops,
        "baseline_retransmissions": base_net.metrics.retransmissions,
    }


def _goodput_metrics(metrics, first_fault_ns: Optional[int],
                     fault_end_ns: Optional[int]) -> dict:
    """Aggregate the watched flows' goodput windows into dip/recovery.

    Pre-fault mean is taken over windows strictly before the first
    fault; the dip is the worst window between first fault and fault
    end; recovery is the first post-fault-span window back at
    ``RECOVERY_FRACTION`` of the pre-fault mean.
    """
    window_ns = metrics.trace_window_ns
    aggregate: dict[int, float] = {}
    for meter in metrics.throughput_meters.values():
        for t, gbps in meter.series_gbps():
            aggregate[t] = aggregate.get(t, 0.0) + gbps
    series = sorted(aggregate.items())
    doc: dict = {
        "window_ns": window_ns,
        "windows": len(series),
        "pre_fault_gbps": None,
        "dip_gbps": None,
        "dip_frac": None,
        "recovery_ns": None,
    }
    if not series or first_fault_ns is None:
        return doc
    pre = [g for t, g in series if t + window_ns <= first_fault_ns]
    if not pre:
        return doc
    pre_mean = sum(pre) / len(pre)
    doc["pre_fault_gbps"] = round(pre_mean, 4)
    if fault_end_ns is None:
        fault_end_ns = first_fault_ns
    during = [g for t, g in series
              if first_fault_ns <= t + window_ns and t <= fault_end_ns]
    if during and pre_mean > 0:
        dip = min(during)
        doc["dip_gbps"] = round(dip, 4)
        doc["dip_frac"] = round(1.0 - dip / pre_mean, 4)
    threshold = RECOVERY_FRACTION * pre_mean
    for t, gbps in series:
        if t >= fault_end_ns and gbps >= threshold:
            doc["recovery_ns"] = t - fault_end_ns
            break
    return doc


# ----------------------------------------------------------------------
# Result validation (CI gate)
# ----------------------------------------------------------------------
_REQUIRED_KEYS = ("version", "scenario", "seed", "workload", "completed",
                  "goodput", "faults", "nacks", "drops",
                  "retransmissions")


def validate_result(doc: dict) -> list[str]:
    """Schema check for one cell result; returns a list of problems."""
    if not isinstance(doc, dict):
        return ["result is not a dict"]
    problems = field_problems(doc, _REQUIRED_KEYS, types={
        "completed": bool, "faults": dict, "nacks": dict})
    if doc.get("version") != RESULT_VERSION:
        problems.append(f"bad version {doc.get('version')!r}")
    faults = doc.get("faults")
    if isinstance(faults, dict) \
            and faults.get("applied") != faults.get("scheduled"):
        problems.append(f"only {faults.get('applied')} of "
                        f"{faults.get('scheduled')} fault events applied")
    nacks = doc.get("nacks")
    if isinstance(nacks, dict) and nacks.get("unexplained", 1) != 0:
        problems.append(f"{nacks.get('unexplained')} unexplained NACK "
                        "decision(s) — compensation state was corrupted")
    return problems


# ----------------------------------------------------------------------
# Campaigns over the parallel runner
# ----------------------------------------------------------------------
def campaign_specs(spec, seeds: Sequence[int]) -> list:
    """One ``fault_cell`` :class:`JobSpec` per seed, in seed order."""
    from repro.harness.jobs import JobSpec

    doc = compiled_spec(spec)
    return [JobSpec(kind="fault_cell", seed=seed,
                    params={"spec": doc},
                    label=f"{doc['name']}@s{seed}")
            for seed in seeds]


def run_campaign(spec, seeds: Sequence[int], *, counters=None,
                 **runner_opts) -> dict:
    """Run every (scenario, seed) cell on the job runner; aggregate.

    ``runner_opts`` are :class:`~repro.harness.jobs.JobRunner` keywords
    (``workers``, ``timeout_s``, ``retries``, ``checkpoint``, ``cache``,
    ``progress``).  Cells are aggregated in seed order regardless of
    completion order, so a parallel campaign is bitwise-identical to a
    serial one.  The versioned document (:func:`build_faults_doc`)
    additionally excludes the job counters, so a cache-warm re-run emits
    identical bytes.
    """
    from repro.harness.jobs import run_jobs
    from repro.harness.metrics import JobCounters

    doc = compiled_spec(spec)
    specs = campaign_specs(doc, seeds)
    counters = counters if counters is not None else JobCounters()
    outcomes = run_jobs(specs, counters=counters, **runner_opts)

    cells, failures, problems = [], [], []
    for job in specs:
        outcome = outcomes[job.spec_hash]
        if outcome.ok:
            cells.append(outcome.result)
            for problem in validate_result(outcome.result):
                problems.append(f"seed {job.seed}: {problem}")
        else:
            failures.append({"seed": job.seed, "error": outcome.error})
    summary = {
        "scenario": doc["name"],
        "duration_us": spec_duration_us(doc),
        "seeds": list(seeds),
        "cells": cells,
        "failures": failures,
        "validation_problems": problems,
        "jobs": counters.summary(),
    }
    if cells:
        recoveries = [c["goodput"]["recovery_ns"] for c in cells
                      if c["goodput"]["recovery_ns"] is not None]
        dips = [c["goodput"]["dip_frac"] for c in cells
                if c["goodput"]["dip_frac"] is not None]
        stretches = [c["tail_stretch"] for c in cells
                     if c["tail_stretch"] is not None]
        summary["aggregate"] = {
            "completed": sum(1 for c in cells if c["completed"]),
            "cells": len(cells),
            "unexplained_nacks": sum(c["nacks"]["unexplained"]
                                     for c in cells),
            "mean_recovery_ns": (round(sum(recoveries) / len(recoveries))
                                 if recoveries else None),
            "worst_dip_frac": max(dips) if dips else None,
            "worst_tail_stretch": max(stretches) if stretches else None,
        }
    return summary


# ----------------------------------------------------------------------
# The versioned output document
# ----------------------------------------------------------------------
_DOC_KEYS = ("schema", "scenario", "duration_us", "seeds", "cells",
             "failures", "validation_problems")
_DOC_CELL_KEYS = ("scenario", "seed", "completed", "tail_stretch",
                  "goodput", "nacks")


def build_faults_doc(summary: dict) -> dict:
    """The ``repro-faults-v1`` document for a campaign summary.

    Everything in the summary except ``jobs``: the job counters carry
    wall-clock/scheduling state (retries, cache hits) that differs
    between a cold and a cache-warm run of the same campaign, and the
    document must be byte-identical across both.
    """
    doc = {"schema": FAULTS_SCHEMA,
           **{key: summary[key] for key in _DOC_KEYS[1:]}}
    if "aggregate" in summary:
        doc["aggregate"] = summary["aggregate"]
    return doc


def validate_faults_doc(doc: dict) -> list[str]:
    """Schema check for a ``repro-faults-v1`` document; returns problems.

    Structural only: a campaign whose cells carry resilience failures is
    still a well-formed document (those failures live in
    ``validation_problems``), same as ``validate_arena_doc``'s split
    between shape and outcome.
    """
    if not isinstance(doc, dict):
        return ["document is not an object"]
    problems = field_problems(doc, _DOC_KEYS, types={
        "cells": list, "failures": list, "validation_problems": list})
    if doc.get("schema") != FAULTS_SCHEMA:
        problems.append(f"schema is {doc.get('schema')!r}, "
                        f"expected {FAULTS_SCHEMA!r}")
    if not isinstance(doc.get("scenario"), str) or not doc.get("scenario"):
        problems.append("scenario missing or empty")
    if not isinstance(doc.get("seeds"), list) or not doc.get("seeds"):
        problems.append("seeds missing or empty")
    cells = doc.get("cells")
    if not isinstance(cells, list):
        cells = []
    for i, cell in enumerate(cells):
        if not isinstance(cell, dict):
            problems.append(f"cell[{i}] is not an object")
            continue
        problems += field_problems(cell, _DOC_CELL_KEYS, label=f"cell[{i}]",
                                   types={"goodput": dict, "nacks": dict,
                                          "tail_stretch": NUMBER_OR_NULL})
        if isinstance(cell.get("goodput"), dict):
            problems += field_problems(
                cell["goodput"], label=f"cell[{i}].goodput",
                types=dict.fromkeys(("dip_frac", "recovery_ns"),
                                    NUMBER_OR_NULL))
    if not cells and not doc.get("failures"):
        problems.append("document has neither cells nor failures")
    return problems
