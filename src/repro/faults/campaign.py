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

from typing import Iterator, Optional, Sequence

from repro.faults.spec import (DEFAULT_WORKLOAD, compiled_spec,
                               spec_duration_us)
from repro.harness.report import NUMBER_OR_NULL, field_problems

#: Goodput is "recovered" at this fraction of the pre-fault mean.
RECOVERY_FRACTION = 0.9

RESULT_VERSION = 1

#: Schema marker for the campaign output document written by
#: ``repro faults run --out`` — the ingest format of ``repro.results``
#: (mirrors ``repro-arena-v1`` for the arena).
FAULTS_SCHEMA = "repro-faults-v1"
#: Its top-level keys, in the order :func:`run_campaign` writes them
#: (``aggregate`` only when a cell ran); the store refuses any other.
FAULTS_FIELDS = ("schema", "scenario", "duration_us", "seeds", "cells",
                 "failures", "validation_problems", "aggregate")


# ----------------------------------------------------------------------
# One cell
# ----------------------------------------------------------------------
def run_cell(params: dict, seed: int) -> dict:
    """Execute one campaign cell; returns the JSON result document.

    ``params`` carries ``{"spec": <compiled scenario spec>}``.
    """
    from repro.harness.tracing import run_traced_alltoall
    from repro.obs.nacks import build_audit
    from repro.obs.record import FAULT, NACK, Recorder
    from repro.sim.engine import US

    spec = compiled_spec(params["spec"])
    workload = {**DEFAULT_WORKLOAD, **spec.get("workload", {})}

    def once(fault_spec: Optional[dict]):
        recorder = Recorder(retain={NACK, FAULT}, window_ns=int(
            round(workload["trace_window_us"] * US)))
        return run_traced_alltoall(
            nodes=workload["nodes"], loss=workload["loss"], seed=seed,
            message_bytes=workload["message_bytes"],
            scheme=workload["scheme"], faults=fault_spec,
            recorder=recorder)

    base_net, _ = once(None)
    net, recorder = once(spec)

    injector = net.fault_injector
    first_ns = injector.first_fault_ns if injector else None
    last_ns = injector.last_event_ns if injector else None
    converge_ns = injector.converge_ns if injector else 0

    goodput = _goodput_metrics(recorder, net.metrics.flows, first_ns,
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


def _goodput_metrics(recorder, flows, first_fault_ns: Optional[int],
                     fault_end_ns: Optional[int]) -> dict:
    """Aggregate the recorder's delivered-byte windows into dip/recovery.

    Each window sums the flows' Gbps in ``flows`` order (post order).
    Pre-fault mean is taken over windows strictly before the first
    fault; the dip is the worst window between first fault and fault
    end; recovery is the first post-fault-span window back at
    ``RECOVERY_FRACTION`` of the pre-fault mean.
    """
    window_ns = recorder.window_ns
    per_flow = recorder.delivered_gbps()
    aggregate: dict[int, float] = {}
    for flow in flows:
        for t, gbps in per_flow.get(flow, ()):
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


def run_campaign(spec, seeds: Sequence[int], **runner_opts) -> dict:
    """Run every (scenario, seed) cell on the job runner; returns the
    ``repro-faults-v1`` document.

    ``runner_opts`` are :class:`~repro.harness.jobs.JobRunner` keywords
    (``workers``, ``timeout_s``, ``retries``, ``checkpoint``, ``cache``,
    ``counters``, ``progress``).  Cells are aggregated in seed order
    regardless of completion order, and the job counters stay out of the
    document, so a parallel or cache-warm campaign writes the same bytes
    as a serial cold one.
    """
    from repro.harness.jobs import run_jobs

    doc = compiled_spec(spec)
    specs = campaign_specs(doc, seeds)
    outcomes = run_jobs(specs, **runner_opts)

    cells, failures, problems = [], [], []
    for job in specs:
        outcome = outcomes[job.spec_hash]
        checked = (list(_cell_problems(outcome.result, "cell"))
                   if outcome.ok else [(True, outcome.error)])
        malformed = [p for structural, p in checked if structural]
        if malformed:   # a failed job, or a stale or corrupted cache row
            failures.append({"seed": job.seed, "error": "; ".join(malformed)})
        else:
            cells.append(outcome.result)
            problems += [f"seed {job.seed}: {p}" for _, p in checked]
    campaign = {"schema": FAULTS_SCHEMA, "scenario": doc["name"],
                "duration_us": spec_duration_us(doc), "seeds": list(seeds),
                "cells": cells, "failures": failures,
                "validation_problems": problems}
    if cells:
        campaign["aggregate"] = aggregate([headline(c) for c in cells])
    return campaign


def headline(cell: dict) -> dict:
    """What the CLI table, the results store and the dashboard show of
    one cell, flat: ``seed``, ``completed``, ``tail_stretch``,
    ``dip_frac``, ``recovery_ns`` and ``unexplained`` (NACK decisions)."""
    goodput = cell["goodput"]
    return {"seed": cell["seed"], "completed": cell["completed"],
            "tail_stretch": cell["tail_stretch"],
            "dip_frac": goodput["dip_frac"],
            "recovery_ns": goodput["recovery_ns"],
            "unexplained": cell["nacks"]["unexplained"]}


def aggregate(rows: Sequence[dict]) -> dict:
    """The campaign headline over :func:`headline` rows; a document's
    ``aggregate`` and each ``/faults`` panel are this one function."""
    def known(key: str) -> list:
        return [row[key] for row in rows if row[key] is not None]

    recoveries = known("recovery_ns")
    return {
        "completed": sum(1 for row in rows if row["completed"]),
        "cells": len(rows),
        "unexplained_nacks": sum(row["unexplained"] for row in rows),
        "mean_recovery_ns": (round(sum(recoveries) / len(recoveries))
                             if recoveries else None),
        "worst_dip_frac": max(known("dip_frac"), default=None),
        "worst_tail_stretch": max(known("tail_stretch"), default=None),
    }


# ----------------------------------------------------------------------
# The document contract
# ----------------------------------------------------------------------
_CELL_FIELDS = ("version", "scenario", "seed", "workload", "completed",
                "tail_stretch", "goodput", "faults", "nacks", "drops",
                "retransmissions")
# Every field the store, the dashboard, the CLI table or the aggregate
# reads is typed: the store renders whatever it took in.
_CELL_TYPES = {"scenario": str, "seed": int, "completed": bool,
               "tail_stretch": NUMBER_OR_NULL, "goodput": dict,
               "faults": dict, "nacks": dict}
_NESTED_TYPES = {
    "goodput": dict.fromkeys(("dip_frac", "recovery_ns"), NUMBER_OR_NULL),
    "faults": dict.fromkeys(("scheduled", "applied"), int),
    "nacks": {"unexplained": int},
}


def _cell_problems(cell: dict, label: str) -> Iterator[tuple[bool, str]]:
    """``(structural, problem)`` pairs for one cell result.

    A malformed cell is structural.  A well-formed cell whose fault
    schedule did not fully apply, or whose NACK audit holds unexplained
    compensation decisions, is an outcome: the document stays valid and
    the campaign lists the problem in ``validation_problems``.
    """
    problems = field_problems(cell, _CELL_FIELDS, label=label,
                              types=_CELL_TYPES)
    if isinstance(cell, dict):
        if cell.get("version", RESULT_VERSION) != RESULT_VERSION:
            problems.append(f"{label}.version is {cell['version']!r}, "
                            f"expected {RESULT_VERSION}")
        for key, types in _NESTED_TYPES.items():
            if isinstance(cell.get(key), dict):
                problems += field_problems(cell[key], tuple(types),
                                           label=f"{label}.{key}",
                                           types=types)
    if problems:
        yield from ((True, problem) for problem in problems)
        return
    faults, unexplained = cell["faults"], cell["nacks"]["unexplained"]
    if faults["applied"] != faults["scheduled"]:
        yield False, (f"only {faults['applied']} of {faults['scheduled']} "
                      "fault events applied")
    if unexplained:
        yield False, (f"{unexplained} unexplained NACK decision(s) — "
                      "compensation state was corrupted")


def _doc_problems(doc: dict) -> Iterator[tuple[bool, str]]:
    """``(structural, problem)`` pairs for a ``repro-faults-v1``
    document: its own shape, then each cell's (:func:`_cell_problems`)."""
    if not isinstance(doc, dict):
        yield True, "document is not an object"
        return
    yield from ((True, f"unknown field {key!r}") for key in doc
                if key not in FAULTS_FIELDS)
    if doc.get("schema") != FAULTS_SCHEMA:
        yield True, (f"schema is {doc.get('schema')!r}, "
                     f"expected {FAULTS_SCHEMA!r}")
    required = tuple(key for key in FAULTS_FIELDS if key != "aggregate")
    yield from ((True, problem) for problem in field_problems(
        doc, required, types={"scenario": str, **dict.fromkeys(
            ("seeds", "cells", "failures", "validation_problems"), list)}))
    yield from ((True, f"{key} is empty") for key in ("scenario", "seeds")
                if doc.get(key) in ("", []))
    cells = doc.get("cells")
    if not isinstance(cells, list):
        cells = []
    for i, cell in enumerate(cells):
        yield from _cell_problems(cell, f"cell[{i}]")
    if not cells and not doc.get("failures"):
        yield True, "document has neither cells nor failures"


def validate_faults_doc(doc: dict) -> list[str]:
    """Structural problems of a ``repro-faults-v1`` document.

    A campaign whose cells carry resilience failures is still a
    well-formed document (those failures live in its
    ``validation_problems``), the same split as ``validate_arena_doc``'s
    between shape and outcome.  This is the check the results store runs
    before it writes a row.
    """
    return [problem for structural, problem in _doc_problems(doc)
            if structural]
