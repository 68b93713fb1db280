"""Command-line interface: ``python -m repro <command>``.

Subcommands mirror the paper's experiments:

* ``memory``      — Table 1 / §4 memory budget (instant).
* ``motivation``  — the Fig. 1 study on one scheme/transport.
* ``collective``  — one collective under one scheme + DCQCN config.
* ``sweep``       — a full Fig. 5 panel (``--workers/--resume/--timeout``
  for parallel, checkpointed execution).
* ``jobs``        — status of a sweep checkpoint file.
* ``pathmap``     — build and print a PathMap on a fat-tree (Fig. 3).
* ``trace``       — traced lossy alltoall + NACK-decision causality audit
  (``--perfetto`` exports a Chrome/Perfetto trace; ``--spec/--name``
  injects a ``repro faults`` scenario's schedule mid-flight).
* ``profile``     — wall-time histogram per event-handler type.
* ``arena``       — LB-policy head-to-head ranking across workloads,
  topologies, and transports (``--quick`` = the CI smoke grid).
* ``results``     — the spec-hash results store: ingest arena/faults/
  bench documents into a queryable sqlite file, list and re-emit runs.
* ``serve``       — zero-dependency live dashboard over a results store
  (``--check`` renders every page headlessly for CI).

``sweep``, ``arena``, and ``faults run`` accept ``--cache PATH``: a
results store used as a read-through run cache — any cell whose
spec-hash already has a stored result is not executed, and the re-run
reconstructs a byte-identical output document.

Global output flags: ``--quiet`` suppresses progress/info chatter and
``--json`` replaces the human-readable output with one machine-readable
JSON document on stdout.  Both are accepted before the subcommand and
after it.  All output goes through :class:`repro.obs.console.Console`.

Installed as the ``repro`` console script, so ``repro sweep`` works
without ``python -m``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

# Only what the parser's choices and every command need; each command
# imports its own experiment family, so ``repro --help`` or a command's
# argument error loads no job runner, sweep or results store.
from repro.collectives import COLLECTIVE_CLASSES
from repro.harness.network import (SCHEMES, TRANSPORTS, Network,
                                   NetworkConfig, TopologySpec)
from repro.harness.report import (format_table, percent, sparkline,
                                  write_json)
from repro.obs.console import Console


def _output_flag_parent() -> argparse.ArgumentParser:
    """Parent parser re-declaring the global output flags per subcommand.

    ``default=SUPPRESS`` means a flag given *before* the subcommand is
    not clobbered by the subparser's default — argparse parses the main
    namespace first, then lets the subparser overwrite it.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--quiet", action="store_true",
                        default=argparse.SUPPRESS,
                        help="suppress progress/info output")
    parent.add_argument("--json", dest="json_mode", action="store_true",
                        default=argparse.SUPPRESS,
                        help="machine-readable JSON on stdout")
    return parent


def _runner_flag_parent() -> argparse.ArgumentParser:
    """The job-runner options of ``sweep``, ``arena`` and ``faults run``,
    declared once; :func:`_runner_opts` turns them into keywords."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--workers", type=int, default=1,
                        help="parallel worker subprocesses (1 = serial)")
    parent.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-job wall-clock timeout in seconds "
                             "(workers > 1 only)")
    parent.add_argument("--retries", type=int, default=2,
                        help="retries per job on worker crash/timeout")
    parent.add_argument("--resume", metavar="PATH", default=None,
                        help="JSONL checkpoint: completed jobs stream "
                             "here and are skipped on re-run")
    parent.add_argument("--cache", metavar="DB", default=None,
                        help="results store used as a read-through run "
                             "cache (jobs with stored results skip "
                             "execution)")
    parent.add_argument("--progress", action="store_true",
                        help="print per-job progress lines")
    return parent


def _traced_flag_parent(*, nodes: int) -> argparse.ArgumentParser:
    """The traced-alltoall options ``trace`` and ``profile`` share (each
    with its own default fabric size; parents share Action objects, so a
    ``set_defaults`` on one subcommand would leak into the other)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--nodes", type=int, default=nodes,
                        help=f"fabric size (even, >= 4; default {nodes})")
    parent.add_argument("--loss", type=float, default=0.01,
                        help="uplink loss probability (default 0.01)")
    parent.add_argument("--seed", type=int, default=7)
    parent.add_argument("--bytes", type=int, default=20_000,
                        help="message size per alltoall pair")
    parent.add_argument("--scheme", choices=SCHEMES, default="themis")
    return parent


def _spec_flag_parent(*, required: bool) -> argparse.ArgumentParser:
    """``--spec PATH | --name SCENARIO``: the one way a command names a
    fault scenario (``faults run/show`` need one, ``trace`` may take
    one); :func:`_spec_from_args` compiles the choice."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_mutually_exclusive_group(required=required)
    group.add_argument("--spec", metavar="PATH",
                       help="declarative scenario JSON file")
    group.add_argument("--name", metavar="SCENARIO",
                       help="builtin scenario name "
                            "(see 'repro faults list')")
    return parent


def _spec_from_args(args: argparse.Namespace) -> Optional[dict]:
    """The compiled spec ``--spec/--name`` names (``None``: neither was
    given); raises ``ScenarioError`` (a ``ValueError``) or
    ``LookupError``."""
    from repro.faults.scenarios import builtin
    from repro.faults.spec import compiled_spec, load_scenario
    if not (args.spec or args.name):
        return None
    return compiled_spec(load_scenario(args.spec) if args.spec
                         else builtin(args.name))


def _runner_opts(args: argparse.Namespace, console: Console) -> dict:
    """:class:`~repro.harness.jobs.JobRunner` keywords from the flags."""
    return {"workers": args.workers, "timeout_s": args.timeout,
            "retries": args.retries, "checkpoint": args.resume,
            "cache": args.cache,
            "progress": console.progress_printer() if args.progress
            else None}


def _csv(value: str) -> tuple:
    return tuple(v.strip() for v in value.split(",") if v.strip())


def _fail(console: Console, message: str) -> int:
    """One ``error:`` line (and its ``--json`` twin); exit code 2."""
    console.out(f"error: {message}")
    console.result({"error": message})
    return 2


def _bad_choice(flag: str, chosen: Sequence[str],
                known: Sequence[str]) -> Optional[str]:
    """Why a comma-separated ``flag`` value is unusable, or ``None`` —
    asked before any job is built, so a typo runs nothing."""
    unknown = [v for v in chosen if v not in known]
    if unknown or not chosen:
        return (f"{flag}: unknown value(s) {unknown or ['']}; "
                f"known: {sorted(known)}")
    return None


def _store_not_found(console: Console, db: str) -> int:
    """Commands that only read a results store refuse a missing file
    instead of letting ``ResultsStore`` create an empty one."""
    return _fail(console, f"results store not found: {db} "
                          "(create one with 'repro results ingest')")


def _traced_params(args: argparse.Namespace) -> dict:
    """The alltoall ``trace`` and ``profile`` share, as their documents
    report it."""
    return {"nodes": args.nodes, "loss": args.loss, "seed": args.seed,
            "bytes": args.bytes, "scheme": args.scheme}


def _write_doc(console: Console, path: Optional[str], doc: dict) -> None:
    if path:
        console.out(f"wrote {write_json(path, doc)}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Themis packet-spraying reproduction experiments")
    parser.add_argument("--quiet", action="store_true", default=False,
                        help="suppress progress/info output")
    parser.add_argument("--json", dest="json_mode", action="store_true",
                        default=False,
                        help="machine-readable JSON on stdout")
    out_flags = _output_flag_parent()
    runner_flags = _runner_flag_parent()
    db_flag = argparse.ArgumentParser(add_help=False)
    db_flag.add_argument("--db", default="results.sqlite",
                         help="results store file (default results.sqlite)")
    sub = parser.add_subparsers(dest="command", required=True)

    mem = sub.add_parser("memory", parents=[out_flags],
                         help="Table 1 / §4 memory budget")
    mem.add_argument("--n-paths", type=int, default=256)
    mem.add_argument("--bandwidth-gbps", type=float, default=400.0)
    mem.add_argument("--rtt-us", type=float, default=2.0)
    mem.add_argument("--n-nic", type=int, default=16)
    mem.add_argument("--n-qp", type=int, default=100)
    mem.add_argument("--mtu", type=int, default=1500)
    mem.add_argument("--factor", type=float, default=1.5)

    mot = sub.add_parser("motivation", parents=[out_flags],
                         help="Fig. 1 motivation study")
    mot.add_argument("--scheme", choices=SCHEMES, default="rps")
    mot.add_argument("--transport", choices=TRANSPORTS, default="nic_sr")
    mot.add_argument("--flow-bytes", type=int, default=4_000_000)
    mot.add_argument("--seed", type=int, default=1)

    col = sub.add_parser("collective", parents=[out_flags],
                         help="one §5 collective run")
    col.add_argument("--collective", default="allreduce",
                     choices=tuple(COLLECTIVE_CLASSES))
    col.add_argument("--scheme", choices=SCHEMES, default="themis")
    col.add_argument("--ti-us", type=float, default=900.0)
    col.add_argument("--td-us", type=float, default=4.0)
    col.add_argument("--seed", type=int, default=1)
    col.add_argument("--out", metavar="PATH", default=None,
                     help="write the run summary as JSON")

    swp = sub.add_parser("sweep", parents=[out_flags, runner_flags],
                         help="a full Fig. 5 panel")
    swp.add_argument("--collective", default="allreduce",
                     choices=("allreduce", "alltoall"))
    swp.add_argument("--schemes", default="ecmp,ar,themis")
    swp.add_argument("--seed", type=int, default=1)

    job = sub.add_parser("jobs", parents=[out_flags],
                         help="status of a job checkpoint file")
    job.add_argument("--checkpoint", required=True, metavar="PATH",
                     help="JSONL checkpoint written by sweep --resume")

    pmap = sub.add_parser("pathmap", parents=[out_flags],
                          help="Fig. 3 PathMap on a fat-tree")
    pmap.add_argument("--k", type=int, default=4)
    pmap.add_argument("--src", type=int, default=0)
    pmap.add_argument("--dst", type=int, default=15)
    pmap.add_argument("--sport", type=int, default=4242)

    trc = sub.add_parser("trace",
                         parents=[out_flags, _traced_flag_parent(nodes=32),
                                  _spec_flag_parent(required=False)],
                         help="traced lossy alltoall + NACK causality "
                              "audit / Perfetto export",
                         description="Traced lossy alltoall with a NACK "
                         "causality audit.  --spec/--name injects that "
                         "fault scenario's schedule into this alltoall; "
                         "the scenario's 'workload' section is ignored "
                         "(--nodes/--bytes size the run).")
    trc.add_argument("report", nargs="?", default="nacks",
                     choices=("nacks",),
                     help="which report to print (default: nacks)")
    trc.add_argument("--limit", type=int, default=50,
                     help="max decisions printed in the report")
    trc.add_argument("--perfetto", metavar="PATH", default=None,
                     help="write a Chrome/Perfetto trace JSON "
                          "(open at ui.perfetto.dev)")
    trc.add_argument("--dump", metavar="PATH", default=None,
                     help="also write the flight ring as JSONL")

    flt = sub.add_parser("faults", parents=[out_flags],
                         help="fault-injection campaigns "
                              "(repro.faults scenarios)")
    flt_sub = flt.add_subparsers(dest="faults_command", required=True)
    spec_src = _spec_flag_parent(required=True)
    flt_run = flt_sub.add_parser("run", parents=[out_flags, runner_flags,
                                                 spec_src],
                                 help="run a campaign on the job runner")
    flt_run.add_argument("--seeds", type=int, default=3,
                         help="number of seeds (cells) to run")
    flt_run.add_argument("--seed-base", type=int, default=1,
                         help="first seed value")
    flt_run.add_argument("--out", metavar="PATH", default=None,
                         help="write the repro-faults-v1 campaign "
                              "document as JSON")
    flt_sub.add_parser("list", parents=[out_flags],
                       help="list builtin scenarios")
    flt_sub.add_parser("show", parents=[out_flags, spec_src],
                       help="print a compiled scenario spec")

    arn = sub.add_parser("arena", parents=[out_flags, runner_flags],
                         help="LB policy head-to-head ranking "
                              "(baseline zoo arena)")
    arn.add_argument("--quick", action="store_true",
                     help="8-NIC fabrics, small messages; CI smoke mode")
    arn.add_argument("--lbs", default=None,
                     help="comma-separated LB policies "
                          "(default: the full zoo)")
    arn.add_argument("--transports", default=None,
                     help="comma-separated RNIC transports "
                          "(nic_sr,gbn,ideal,mp_rdma; default nic_sr,ideal)")
    arn.add_argument("--ccs", default=None,
                     help="comma-separated CC settings (dcqcn,fixed; "
                          "default dcqcn)")
    arn.add_argument("--workloads", default=None,
                     help="comma-separated workloads "
                          "(alltoall,incast,allreduce)")
    arn.add_argument("--topos", default=None,
                     help="comma-separated topology presets "
                          "(leaf_spine,fat_tree,dragonfly)")
    arn.add_argument("--seeds", type=int, default=1,
                     help="number of seeds per cell")
    arn.add_argument("--seed-base", type=int, default=1,
                     help="first seed value")
    arn.add_argument("--bytes", type=int, default=None,
                     help="message bytes per workload (default: preset)")
    arn.add_argument("--deadline-us", type=float, default=None,
                     help="per-cell sim-time budget (default: preset)")
    arn.add_argument("--out", metavar="PATH", default=None,
                     help="write the arena document as JSON")

    prof = sub.add_parser("profile",
                          parents=[out_flags, _traced_flag_parent(nodes=8)],
                          help="wall-time histogram per event-handler "
                               "type on a small traced scenario")
    prof.add_argument("--top", type=int, default=None,
                      help="only print the N most expensive handlers")
    prof.add_argument("--out", metavar="PATH", default=None,
                      help="write the profile report as JSON")

    res = sub.add_parser("results", parents=[out_flags],
                         help="spec-hash results store "
                              "(ingest / list / show)")
    res_sub = res.add_subparsers(dest="results_command", required=True)
    res_ing = res_sub.add_parser("ingest", parents=[out_flags, db_flag],
                                 help="ingest result documents into "
                                      "the store")
    res_ing.add_argument("paths", nargs="+", metavar="DOC",
                         help="repro-arena-v1 / repro-faults-v1 docs, or "
                              "a bench history document "
                              "(schema_version + scenarios)")
    res_sub.add_parser("list", parents=[out_flags, db_flag],
                       help="list ingested runs + store counts")
    res_shw = res_sub.add_parser("show", parents=[out_flags, db_flag],
                                 help="re-emit one ingested run as its "
                                      "original document")
    res_shw.add_argument("run_id", type=int)
    res_shw.add_argument("--out", metavar="PATH", default=None,
                         help="write the re-emitted document to a file "
                              "instead of stdout")

    srv = sub.add_parser("serve", parents=[out_flags, db_flag],
                         help="live results dashboard "
                              "(stdlib http.server)")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8000)
    srv.add_argument("--traces", metavar="DIR", default=None,
                     help="directory of exported Perfetto traces "
                          "(served at /traces/, deep-linked per cell)")
    srv.add_argument("--check", action="store_true",
                     help="render every page headlessly and exit "
                          "(CI gate; no socket is opened)")
    return parser


def cmd_memory(args: argparse.Namespace, console: Console) -> int:
    from repro.themis.memory import (MemoryParams, TOFINO_SRAM_BYTES,
                                     memory_overhead)

    try:
        params = MemoryParams(
            n_paths=args.n_paths, bandwidth_bps=args.bandwidth_gbps * 1e9,
            rtt_last_s=args.rtt_us * 1e-6, n_nic=args.n_nic,
            n_qp=args.n_qp, mtu_bytes=args.mtu,
            expansion_factor=args.factor)
    except ValueError as exc:
        return _fail(console, str(exc))
    breakdown = memory_overhead(params)
    doc = {
        "pathmap_bytes": breakdown.pathmap_bytes,
        "queue_entries_per_qp": breakdown.queue_entries,
        "per_qp_bytes": breakdown.per_qp_bytes,
        "total_bytes": breakdown.total_bytes,
        "total_kb": round(breakdown.total_kb(), 1),
        "sram_fraction": breakdown.sram_fraction(TOFINO_SRAM_BYTES),
    }
    console.out(format_table(["component", "value"], [
        (key, percent(value) if key == "sram_fraction" else value)
        for key, value in doc.items()]))
    console.result(doc)
    return 0


def cmd_motivation(args: argparse.Namespace, console: Console) -> int:
    if args.flow_bytes < 1:
        return _fail(console, "--flow-bytes must be >= 1")
    from repro.harness.motivation import motivation_config, run_motivation
    config = motivation_config(scheme=args.scheme,
                               transport=args.transport, seed=args.seed)
    result = run_motivation(config, flow_bytes=args.flow_bytes)
    console.out(f"completed={result.completed}  "
                f"duration={result.duration_ns / 1000:.0f} us")
    console.out(f"spurious retx ratio: {percent(result.avg_retx_ratio)}")
    console.out(f"avg rate: {result.avg_rate_gbps:.1f} Gbps "
                f"({percent(result.avg_rate_fraction)} of line)")
    if result.rate_series_gbps:
        console.out("rate: " + sparkline([v for _, v in
                                          result.rate_series_gbps]))
    console.out(f"mean goodput: {result.mean_goodput_gbps:.2f} Gbps")
    console.out(f"NACKs={result.nacks}  drops={result.drops}  "
                f"blocked={result.summary['themis_blocked']}  "
                f"compensated={result.summary['themis_compensated']}")
    console.result({
        "scheme": args.scheme, "transport": args.transport,
        "completed": result.completed,
        "duration_ns": result.duration_ns,
        "avg_retx_ratio": result.avg_retx_ratio,
        "avg_rate_gbps": result.avg_rate_gbps,
        "mean_goodput_gbps": result.mean_goodput_gbps,
        "nacks": result.nacks, "drops": result.drops,
        "summary": result.summary,
    })
    return 0 if result.completed else 1


def cmd_collective(args: argparse.Namespace, console: Console) -> int:
    if not args.ti_us > 0:
        return _fail(console, "--ti-us must be > 0")
    if not args.td_us >= 0:
        return _fail(console, "--td-us must be >= 0")
    from repro.harness.collective_runner import (EvalScale, fig5_config,
                                                 run_collective)
    scale = EvalScale.from_env()
    config = fig5_config(args.scheme, args.ti_us, args.td_us,
                         scale=scale, seed=args.seed)
    result = run_collective(config, args.collective, scale=scale)
    console.out(f"{args.collective} / {args.scheme} "
                f"(TI={args.ti_us:.0f} us, TD={args.td_us:.0f} us)")
    console.out(f"tail completion: {result.tail_completion_ms:.3f} ms "
                f"(completed={result.completed})")
    for key, value in result.summary.items():
        console.out(f"  {key}: {value}")
    doc = {
        "collective": result.collective,
        "scheme": result.scheme,
        "ti_us": args.ti_us, "td_us": args.td_us,
        "seed": args.seed,
        "tail_completion_ms": result.tail_completion_ms,
        "group_completion_ns": result.group_completion_ns,
        "completed": result.completed,
        "summary": result.summary,
    }
    _write_doc(console, args.out, doc)
    console.result(doc)
    return 0 if result.completed else 1


def cmd_sweep(args: argparse.Namespace, console: Console) -> int:
    from repro.harness.metrics import JobCounters
    schemes = _csv(args.schemes)
    problem = _bad_choice("--schemes", schemes, SCHEMES)
    if problem:
        return _fail(console, problem)
    from repro.harness.sweep import DCQCN_SWEEP, run_fig5_sweep
    counters = JobCounters()
    result = run_fig5_sweep(args.collective, schemes=schemes,
                            seed=args.seed, counters=counters,
                            **_runner_opts(args, console))
    rows = []
    cells = {}
    for cond in DCQCN_SWEEP:
        row = [f"({cond[0]:.0f}, {cond[1]:.0f})"]
        row += [f"{result.runs[cond][s].tail_completion_ms:.3f}"
                for s in schemes]
        rows.append(row)
        cells[f"ti{cond[0]:.0f}_td{cond[1]:.0f}"] = {
            s: result.runs[cond][s].tail_completion_ms for s in schemes}
    console.out(format_table(["(TI, TD) us"] + [f"{s} ms" for s in schemes],
                             rows))
    doc = {"collective": args.collective, "schemes": list(schemes),
           "seed": args.seed, "cells": cells,
           "jobs": counters.summary()}
    if "ar" in schemes and "themis" in schemes:
        lo, hi = result.improvement_range("ar", "themis")
        console.out(f"Themis vs AR: {percent(lo)} .. {percent(hi)} lower")
        doc["themis_vs_ar"] = {"low": lo, "high": hi}
    console.out(f"jobs: {counters}")
    console.result(doc)
    return 0


def cmd_jobs(args: argparse.Namespace, console: Console) -> int:
    from repro.harness.jobs import checkpoint_status
    status = checkpoint_status(args.checkpoint)
    kinds = ", ".join(f"{k}={n}" for k, n
                      in sorted(status["kinds"].items())) or "-"
    console.out(format_table(["field", "value"], [
        (key, kinds if key == "kinds" else value)
        for key, value in status.items() if key != "failures"]))
    for failure in status["failures"]:
        console.out(f"FAILED {failure['spec_hash']} "
                    f"{failure['label'] or '(unlabelled)'}: "
                    f"{failure['error']}")
    console.result(status)
    return 0 if not status["failures"] else 1


def cmd_pathmap(args: argparse.Namespace, console: Console) -> int:
    from repro.net.packet import FlowKey
    from repro.themis.pathmap import build_pathmap, trace_path

    try:
        net = Network(NetworkConfig(
            topology=TopologySpec(kind="fat_tree", fat_tree_k=args.k,
                                  link_bandwidth_bps=25e9), scheme="ecmp"))
    except ValueError as exc:
        return _fail(console, str(exc))
    flow = FlowKey(args.src, args.dst)
    n = net.topology.path_count(args.src, args.dst)
    deltas = build_pathmap(net.topology, flow, args.sport, n)
    rows = [[r, f"0x{d:04x}",
             " -> ".join(trace_path(net.topology, flow,
                                    args.sport ^ d))]
            for r, d in enumerate(deltas)]
    console.out(format_table(["PSN mod N", "delta", "path"], rows))
    console.result({"k": args.k, "src": args.src, "dst": args.dst,
                    "sport": args.sport, "n_paths": n,
                    "deltas": list(deltas)})
    return 0


def cmd_trace(args: argparse.Namespace, console: Console) -> int:
    from repro.harness.tracing import (TRACE_DEADLINE_NS,
                                       build_traced_alltoall)
    from repro.harness.workload import run_built
    from repro.obs.nacks import build_audit, format_report
    from repro.obs.record import NACK

    try:  # construction only: bad --nodes, bad scenario, unknown cable
        faults = _spec_from_args(args)
        net, recorder = build_traced_alltoall(
            nodes=args.nodes, loss=args.loss, seed=args.seed,
            message_bytes=args.bytes, scheme=args.scheme, faults=faults,
            retain_all=args.perfetto is not None)
    except (ValueError, LookupError) as exc:
        return _fail(console, str(exc))
    if faults is not None:
        console.info(f"faults: scenario {faults['name']!r}, "
                     f"{len(faults['events'])} scheduled events")
    console.info(f"running traced {args.nodes}-node alltoall "
                 f"(scheme={args.scheme}, loss={args.loss:.3f}, "
                 f"seed={args.seed}) ...")
    run_built(net, TRACE_DEADLINE_NS)
    console.info(f"{recorder.total_events()} trace events recorded, "
                 f"{net.sim.executed} sim events executed")
    audit = build_audit(recorder.records(NACK))
    console.out(format_report(audit, limit=args.limit))
    if args.perfetto:
        from repro.obs.perfetto import write_chrome_trace
        # All categories were retained, so export the full run, not just
        # the last-N flight ring.
        events = sorted((record for cat in sorted(recorder.retain)
                         for record in recorder.records(cat)),
                        key=lambda r: r[0])
        write_chrome_trace(events, args.perfetto,
                           label=f"trace-alltoall-{args.nodes}")
        console.out(f"wrote Perfetto trace {args.perfetto} "
                    "(open at https://ui.perfetto.dev)")
    if args.dump:
        path = recorder.dump_flight(args.dump, reason="cli")
        console.out(f"wrote flight dump {path}")
    summary = audit.summary()
    doc = {
        "report": "nacks",
        "params": _traced_params(args),
        "metrics": net.metrics.summary(),
        "audit": summary,
    }
    if faults is not None:
        from repro.obs.record import FAULT
        doc["faults"] = {
            "spec": faults["name"],
            "scheduled": len(faults["events"]),
            "applied": len(net.fault_injector.applied),
            "recorded": len(recorder.records(FAULT)),
        }
    console.result(doc)
    return 0 if summary["unexplained"] == 0 else 1


def cmd_profile(args: argparse.Namespace, console: Console) -> int:
    from repro.harness.tracing import (TRACE_DEADLINE_NS,
                                       build_traced_alltoall)
    from repro.harness.workload import run_built
    from repro.obs.profile import Profiler
    from repro.obs.record import Recorder

    # Empty-category recorder: the wiring paths stay exercised but no
    # emits fire, so the histogram reflects the engine, not the tracer.
    try:
        net, _ = build_traced_alltoall(
            nodes=args.nodes, loss=args.loss, seed=args.seed,
            message_bytes=args.bytes, scheme=args.scheme,
            recorder=Recorder(categories=()))
    except ValueError as exc:
        return _fail(console, str(exc))
    console.info(f"profiling {args.nodes}-node alltoall "
                 f"(scheme={args.scheme}, loss={args.loss:.3f}) ...")
    with Profiler(net.sim) as prof:
        run_built(net, TRACE_DEADLINE_NS)
    console.out(prof.format_table(top=args.top))
    doc = {"params": _traced_params(args),
           "sim_events": net.sim.executed, **prof.report(top=args.top)}
    _write_doc(console, args.out, doc)
    console.result(doc)
    return 0


def cmd_faults(args: argparse.Namespace, console: Console) -> int:
    from repro.faults.scenarios import BUILTIN_SCENARIOS
    from repro.faults.spec import ScenarioError

    if args.faults_command == "list":
        rows = []
        for name in sorted(BUILTIN_SCENARIOS):
            spec = BUILTIN_SCENARIOS[name]().compile()
            rows.append((name, len(spec["events"]),
                         f"{max((e['at_us'] for e in spec['events']), default=0):.0f}"))
        console.out(format_table(["scenario", "events", "span (us)"],
                                 rows))
        console.result({"scenarios": sorted(BUILTIN_SCENARIOS)})
        return 0

    try:
        spec = _spec_from_args(args)
    except (ScenarioError, LookupError) as exc:
        return _fail(console, str(exc))

    if args.faults_command == "show":
        console.out(json.dumps(spec, indent=2))
        console.result(spec)
        return 0

    # run
    if args.seeds < 1:
        return _fail(console, "--seeds must be >= 1")
    from repro.faults.campaign import headline, run_campaign
    from repro.harness.metrics import JobCounters
    seeds = list(range(args.seed_base, args.seed_base + args.seeds))
    console.info(f"campaign {spec['name']!r}: {len(spec['events'])} "
                 f"fault events x {len(seeds)} seeds "
                 f"(workers={args.workers})")
    counters = JobCounters()
    doc = run_campaign(spec, seeds, counters=counters,
                       **_runner_opts(args, console))
    def shown(value):
        return "-" if value is None else value

    rows = [(row["seed"], "yes" if row["completed"] else "NO",
             shown(row["tail_stretch"]), shown(row["dip_frac"]),
             shown(row["recovery_ns"]), row["unexplained"])
            for row in map(headline, doc["cells"])]
    console.out(format_table(
        ["seed", "done", "stretch", "dip", "recovery_ns",
         "unexplained"], rows))
    for failure in doc["failures"]:
        console.out(f"FAILED seed {failure['seed']}: {failure['error']}")
    for problem in doc["validation_problems"]:
        console.out(f"INVALID: {problem}")
    if "aggregate" in doc:
        agg = doc["aggregate"]
        console.out(f"{agg['completed']}/{agg['cells']} cells completed; "
                    f"unexplained NACK decisions: "
                    f"{agg['unexplained_nacks']}")
    # The document holds no job counters, so a cache-warm re-run writes
    # identical bytes; the --json result adds them.
    _write_doc(console, args.out, doc)
    console.result({**doc, "jobs": counters.summary()})
    return 0 if not doc["failures"] and not doc["validation_problems"] \
        else 1


def cmd_arena(args: argparse.Namespace, console: Console) -> int:
    from repro.harness import arena
    from repro.harness.metrics import JobCounters

    def csv(value: Optional[str], default: Sequence[str]) -> tuple:
        return tuple(default) if value is None else _csv(value)

    lbs = csv(args.lbs, arena.LB_POLICIES)
    transports = csv(args.transports, arena.ARENA_TRANSPORTS)
    ccs = csv(args.ccs, ("dcqcn",))
    workloads = csv(args.workloads, arena.WORKLOADS)
    presets = (arena.QUICK_TOPOLOGIES if args.quick
               else arena.FULL_TOPOLOGIES)
    topo_names = csv(args.topos, tuple(presets))
    for flag, chosen, known in (
            ("--lbs", lbs, arena.LB_POLICIES),
            ("--transports", transports, TRANSPORTS),
            ("--ccs", ccs, arena.CC_SETTINGS),
            ("--workloads", workloads, arena.WORKLOADS),
            ("--topos", topo_names, tuple(presets))):
        problem = _bad_choice(flag, chosen, known)
        if problem:
            return _fail(console, problem)
    if args.seeds < 1:
        return _fail(console, "--seeds must be >= 1")
    topologies = {name: presets[name] for name in topo_names}
    if args.bytes is not None:
        # Every collective splits the message across the fabric's NICs.
        nics = max(Network(NetworkConfig(topology=TopologySpec(**topo)))
                   .topology.num_nics for topo in topologies.values())
        if args.bytes < nics:
            return _fail(console, f"--bytes must be >= {nics}, the NIC "
                                  f"count of the largest chosen topology")
    if args.deadline_us is not None and not args.deadline_us > 0:
        return _fail(console, "--deadline-us must be > 0")
    seeds = tuple(range(args.seed_base, args.seed_base + args.seeds))
    counters = JobCounters()
    n_cells = (len(lbs) * len(transports) * len(ccs) * len(workloads)
               * len(topologies) * len(seeds))
    console.info(f"arena: {len(lbs)} LBs x {len(transports)} transports "
                 f"x {len(ccs)} cc x {len(workloads)} workloads x "
                 f"{len(topologies)} topologies x {len(seeds)} seeds "
                 f"= {n_cells} cells (workers={args.workers})")
    doc = arena.run_arena(
        counters=counters, **_runner_opts(args, console),
        lbs=lbs, transports=transports, ccs=ccs, workloads=workloads,
        topologies=topologies, seeds=seeds, quick=args.quick,
        message_bytes=args.bytes, deadline_us=args.deadline_us)
    # A cached cell result mistyped where the ranking does not look (a
    # stale or corrupted run cache) still builds a document; refuse it
    # here, not in ``run_arena``, so a warm arena pays nothing for it.
    problems = arena.structural_problems(doc)
    if problems:
        return _fail(console, problems[0])
    console.out(arena.render_arena_table(doc))
    incomplete = [c for c in doc["cells"] if not c["completed"]]
    if incomplete:
        console.out(f"{len(incomplete)}/{len(doc['cells'])} cells "
                    f"did not complete before the deadline")
    console.info(f"jobs: {counters}")
    _write_doc(console, args.out, doc)
    console.result(doc)
    return 0 if not incomplete else 1


def cmd_results(args: argparse.Namespace, console: Console) -> int:
    from repro.results import (IngestError, ResultsStore, emit_doc,
                               ingest_file)

    if args.results_command == "ingest":
        receipts, problems = [], []
        with ResultsStore(args.db) as store:
            for path in args.paths:
                try:
                    receipt = ingest_file(store, path)
                except (IngestError, OSError) as exc:
                    problems.append(f"{path}: {exc}")
                    continue
                receipts.append({"path": path, **receipt})
                console.out(f"ingested {path} as run "
                            f"{receipt['run_id']} ({receipt['kind']})")
        for problem in problems:
            console.out(f"error: {problem}")
        console.result({"db": args.db, "ingested": receipts,
                        "errors": problems})
        return 0 if not problems else 1

    if not os.path.exists(args.db):
        return _store_not_found(console, args.db)
    if args.results_command == "list":
        from repro.results.query import list_runs
        with ResultsStore(args.db) as store:
            counts = store.counts()
            runs = list_runs(store.conn)
        rows = [(r["run_id"], r["schema"], r["name"], r["source"])
                for r in runs]
        console.out(format_table(["run", "schema", "name", "source"],
                                 rows))
        console.out(f"{counts['job_results']} cached job result(s), "
                    f"{counts['runs']} ingested run(s)")
        console.result({**counts, "runs": runs})
        return 0

    # show: re-emit one run as its original document
    with ResultsStore(args.db) as store:
        try:
            doc = emit_doc(store, args.run_id)
        except IngestError as exc:
            return _fail(console, f"{exc} (in {args.db}; only arena/faults "
                                  "runs re-emit losslessly)")
    if args.out:
        _write_doc(console, args.out, doc)
    else:
        console.out(json.dumps(doc, indent=2))
    console.result(doc)
    return 0


def cmd_serve(args: argparse.Namespace, console: Console) -> int:
    if not os.path.exists(args.db):
        return _store_not_found(console, args.db)
    if args.check:
        from repro.results.server import check_pages
        problems = check_pages(args.db, traces_dir=args.traces)
        for problem in problems:
            console.out(f"PAGE ERROR: {problem}")
        console.out(f"checked dashboard pages against {args.db}: "
                    f"{len(problems)} problem(s)")
        console.result({"db": args.db, "problems": problems})
        return 0 if not problems else 1
    from repro.results.server import make_server
    server = make_server(args.db, host=args.host, port=args.port,
                         traces_dir=args.traces,
                         quiet=getattr(args, "quiet", False))
    host, port = server.server_address[:2]
    console.info(f"serving {args.db} at http://{host}:{port}/ "
                 "(Ctrl-C to stop)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        console.info("stopped")
    finally:
        server.server_close()
    return 0


COMMANDS = {
    "memory": cmd_memory,
    "motivation": cmd_motivation,
    "collective": cmd_collective,
    "sweep": cmd_sweep,
    "jobs": cmd_jobs,
    "pathmap": cmd_pathmap,
    "trace": cmd_trace,
    "profile": cmd_profile,
    "faults": cmd_faults,
    "arena": cmd_arena,
    "results": cmd_results,
    "serve": cmd_serve,
}


def _unwritable(path: str) -> Optional[str]:
    """Why ``path`` cannot be written, or ``None`` if it can — asked
    before the experiment runs, not found out after."""
    existed = os.path.exists(path)
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "a"):
            pass
    except OSError as exc:
        return exc.strerror
    if not existed:
        os.remove(path)
    return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    console = Console(quiet=getattr(args, "quiet", False),
                      json_mode=getattr(args, "json_mode", False))
    # Every file a command writes is named by one of these flags.
    for flag in ("out", "perfetto", "dump"):
        path = getattr(args, flag, None)
        problem = _unwritable(path) if path else None
        if problem:
            return _fail(console, f"cannot write {path}: {problem}")
    return COMMANDS[args.command](args, console)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
