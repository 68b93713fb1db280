"""The LB arena: head-to-head comparison of spraying policies.

ROADMAP item 3 ("baseline zoo + arena"): sweep every load-balancing
policy x RNIC transport (``NetworkConfig.transport``) x CC setting
across alltoall/incast/allreduce workloads on leaf-spine, fat-tree, and
dragonfly fabrics, and rank the (lb, transport) pairs by mean FCT
slowdown — the comparison table the paper's evaluation could
not produce because most of these competitors postdate it.

Every cell is a :class:`repro.harness.jobs.JobSpec` (kind
``"arena_cell"``) whose params fully describe the simulation, so the
sweep rides the parallel job runner with spec-hashed determinism: the
result document is bitwise-identical between ``--workers 1`` and
``--workers 4`` (cells are aggregated in spec order, never completion
order, and the document carries no wall-clock data).

The JSON document (schema ``repro-arena-v1``) is what ``repro results
ingest`` stores and ``repro serve`` charts: ``cells`` is the raw
per-cell table, ``ranking`` the per-(lb, transport) aggregate.
"""

from __future__ import annotations

from itertools import product
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence

from repro.harness.metrics import JobCounters
from repro.harness.report import NUMBER, field_problems, format_table

if TYPE_CHECKING:  # pragma: no cover - imported where a sweep runs
    from repro.harness.jobs import JobOutcome, JobSpec

ARENA_SCHEMA = "repro-arena-v1"

#: The zoo, in rank-table order.  Every entry is a NetworkConfig scheme.
LB_POLICIES = ("ecmp", "rps", "flowlet", "ar",
               "reps", "prime", "spritz", "sprinklers")
#: Default transport axis, any of ``repro.harness.network.TRANSPORTS``:
#: commodity NIC-SR selective repeat, and the Ideal oracle (no spurious
#: NACKs, real losses repaired out of band) that bounds what any NACK
#: filter can buy.
ARENA_TRANSPORTS = ("nic_sr", "ideal")
WORKLOADS = ("alltoall", "incast", "allreduce")
CC_SETTINGS = ("dcqcn", "fixed")

#: Topology presets (name -> TopologySpec kwargs).  Quick presets are
#: 8-NIC fabrics sized for the CI smoke gate; full presets match the
#: nightly sweep.  Dragonfly dimensions must satisfy
#: groups-1 <= routers * global_links (see repro.net.topology).
QUICK_TOPOLOGIES = {
    "leaf_spine": {"kind": "leaf_spine", "num_tors": 4, "num_spines": 2,
                   "nics_per_tor": 2, "link_bandwidth_bps": 25e9},
    "fat_tree": {"kind": "fat_tree", "fat_tree_k": 4,
                 "link_bandwidth_bps": 25e9},
    "dragonfly": {"kind": "dragonfly", "df_groups": 4, "df_routers": 2,
                  "df_hosts": 1, "df_global_links": 2,
                  "link_bandwidth_bps": 25e9},
}
FULL_TOPOLOGIES = {
    "leaf_spine": {"kind": "leaf_spine", "num_tors": 8, "num_spines": 4,
                   "nics_per_tor": 4, "link_bandwidth_bps": 100e9},
    "fat_tree": {"kind": "fat_tree", "fat_tree_k": 4,
                 "link_bandwidth_bps": 100e9},
    "dragonfly": {"kind": "dragonfly", "df_groups": 5, "df_routers": 2,
                  "df_hosts": 2, "df_global_links": 2,
                  "link_bandwidth_bps": 100e9},
}

QUICK_BYTES = 40_000
FULL_BYTES = 400_000
#: Sim-time budget per cell; a cell that has not drained by then reports
#: completed=False and censored FCTs (the deadline stands in for the
#: missing completion times, keeping the ranking deterministic).
QUICK_DEADLINE_US = 20_000.0
FULL_DEADLINE_US = 100_000.0


# ----------------------------------------------------------------------
# One cell
# ----------------------------------------------------------------------
def run_arena_cell(params: dict, seed: int) -> dict:
    """Execute one (lb, transport, cc, workload, topology) cell.

    Imported lazily by the job runner (``JOB_KINDS["arena_cell"]``);
    params carry the complete topology spec so subprocess workers never
    consult the environment.
    """
    from repro.harness.network import Network, NetworkConfig, TopologySpec
    from repro.harness.workload import (post_messages, run_built,
                                        start_collectives)

    topo_spec = TopologySpec(**params["topo"])
    cc = params["cc"]
    if cc not in CC_SETTINGS:
        raise ValueError(f"unknown cc setting {cc!r}")
    config = NetworkConfig(
        topology=topo_spec,
        scheme=params["lb"],
        transport=params["transport"],
        dcqcn=None if cc == "fixed" else NetworkConfig().dcqcn,
        seed=seed)
    workload = params["workload"]
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    net = Network(config)
    deadline_ns = int(params["deadline_us"] * 1000)
    nics = net.topology.num_nics
    if workload == "incast":
        # Every NIC sends to NIC 0 simultaneously — the N:1 burst that
        # concentrates reordering and queue pressure on one ToR.
        traffic = post_messages(net, [(src, 0) for src in range(1, nics)],
                                max(1, int(params["bytes"]) // (nics - 1)))
    else:
        traffic = start_collectives(net, workload, [list(range(nics))],
                                    int(params["bytes"]))
    run_built(net, deadline_ns)
    return _cell_metrics(net, traffic.complete, deadline_ns)


def _cell_metrics(net, completed: bool, deadline_ns: int) -> dict:
    """The four ranked metrics plus supporting counters for one cell."""
    metrics = net.metrics
    spec = net.config.topology
    bandwidth = spec.link_bandwidth_bps
    # Ideal FCT: serialization at line rate plus a constant fabric RTT
    # (4 store-and-forward hops of propagation, both directions).
    base_rtt_ns = 8 * spec.link_delay_ns
    slowdowns = []
    tail_ns = 0
    for stats in metrics.flows.values():
        if stats.bytes_posted <= 0:
            continue
        done_ns = stats.receiver_done_ns
        if done_ns is None:
            done_ns = deadline_ns  # censored: deadline as completion
        fct_ns = max(1, done_ns - stats.start_ns)
        tail_ns = max(tail_ns, fct_ns)
        ideal_ns = stats.bytes_posted * 8 * 1e9 / bandwidth + base_rtt_ns
        slowdowns.append(fct_ns / ideal_ns)
    mean_slowdown = (sum(slowdowns) / len(slowdowns)) if slowdowns else 0.0
    reorder_rate = (
        sum(f.receiver_ooo for f in metrics.flows.values())
        / max(1, metrics.data_packets_sent))
    # NACK validity: fraction of *delivered* NACKs justified by a real
    # loss.  A NACK Themis-D blocks in-network never reaches the sender
    # and does not count; no arena LB installs Themis-D, so
    # nacks_blocked reads 0 here.  No delivered NACKs = vacuously valid;
    # more than drops = the excess is spurious (multi-path skew misread
    # as loss).
    nacks = metrics.nacks_generated
    delivered = nacks - metrics.themis.nacks_blocked
    nack_validity = (1.0 if delivered <= 0
                     else min(1.0, metrics.drops / delivered))
    return {
        "completed": completed,
        "tail_ns": tail_ns,
        "mean_slowdown": round(mean_slowdown, 4),
        "goodput_gbps": round(metrics.mean_goodput_gbps(), 3),
        "reorder_rate": round(reorder_rate, 4),
        "nack_validity": round(nack_validity, 4),
        "nacks": nacks,
        "drops": metrics.drops,
        "nacks_blocked": metrics.themis.nacks_blocked,
        "retransmissions": metrics.retransmissions,
    }


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------
def arena_job_specs(*, lbs: Sequence[str] = LB_POLICIES,
                    transports: Sequence[str] = ARENA_TRANSPORTS,
                    ccs: Sequence[str] = ("dcqcn",),
                    workloads: Sequence[str] = WORKLOADS,
                    topologies: Optional[dict] = None,
                    seeds: Sequence[int] = (1,),
                    quick: bool = True,
                    message_bytes: Optional[int] = None,
                    deadline_us: Optional[float] = None
                    ) -> list[JobSpec]:
    """The cell list, in the deterministic order aggregation relies on."""
    from repro.harness.jobs import JobSpec

    if topologies is None:
        topologies = QUICK_TOPOLOGIES if quick else FULL_TOPOLOGIES
    if message_bytes is None:
        message_bytes = QUICK_BYTES if quick else FULL_BYTES
    if deadline_us is None:
        deadline_us = QUICK_DEADLINE_US if quick else FULL_DEADLINE_US
    return [JobSpec(kind="arena_cell", seed=seed,
                    params={"lb": lb, "transport": transport, "cc": cc,
                            "workload": workload, "topology": topo_name,
                            "topo": dict(topo), "bytes": message_bytes,
                            "deadline_us": deadline_us},
                    label=f"{lb}/{transport}/{cc}/{workload}/"
                          f"{topo_name}/s{seed}")
            for lb, transport, cc, workload, (topo_name, topo), seed
            in product(lbs, transports, ccs, workloads,
                       topologies.items(), seeds)]


def run_arena(*, workers: int = 1, timeout_s: Optional[float] = None,
              retries: int = 2, checkpoint: Optional[str] = None,
              cache=None,
              counters: Optional[JobCounters] = None,
              progress: Optional[Callable[[str], None]] = None,
              **spec_kwargs) -> dict:
    """Run the sweep and build the ``repro-arena-v1`` document.

    Aggregation iterates ``specs`` in construction order and the
    document excludes wall-clock/job-counter data, so the output is
    bitwise-identical for any worker count — and, with ``cache`` (a
    results-store path), for a warm re-run that executes zero jobs.
    """
    from repro.harness.jobs import raise_on_failures, run_jobs

    specs = arena_job_specs(**spec_kwargs)
    outcomes = run_jobs(specs, workers=workers, timeout_s=timeout_s,
                        retries=retries, checkpoint=checkpoint, cache=cache,
                        counters=counters, progress=progress)
    raise_on_failures(outcomes)
    return build_arena_doc(specs, outcomes)


def build_arena_doc(specs: Sequence[JobSpec],
                    outcomes: dict[str, JobOutcome]) -> dict:
    """The document of ``specs``' results.  A result that breaks the cell
    contract (a stale or corrupted run-cache row) is a ``ValueError``
    naming its cell, checked only when the document cannot be built."""
    results = [outcomes[spec.spec_hash].result for spec in specs]
    try:
        cells = [{**_spec_fields(spec), **result}
                 for spec, result in zip(specs, results)]
        ranking = _rank(cells)
    except (KeyError, TypeError):
        for spec, result in zip(specs, results):
            cell = ({**_spec_fields(spec), **result}
                    if isinstance(result, dict) else result)
            problems = field_problems(cell, _CELL_FIELDS, label="cell",
                                      types=_CELL_TYPES)
            if problems:
                raise ValueError(f"malformed arena cell result for "
                                 f"{spec.describe()}: {problems[0]}") \
                    from None
        raise

    def axis(key: str) -> list:
        return list(dict.fromkeys(cell[key] for cell in cells))

    return {
        "schema": ARENA_SCHEMA,
        "axes": {"lbs": axis("lb"), "transports": axis("transport"),
                 "ccs": axis("cc"), "workloads": axis("workload"),
                 "topologies": axis("topology"), "seeds": axis("seed")},
        "cells": cells,
        "ranking": ranking,
    }


def _spec_fields(spec: JobSpec) -> dict:
    """The cell fields its spec fixes; the job result holds the rest."""
    params = spec.params
    return {"lb": params["lb"], "transport": params["transport"],
            "cc": params["cc"], "workload": params["workload"],
            "topology": params["topology"], "seed": spec.seed,
            "spec_hash": spec.spec_hash}


def _rank(cells: Sequence[dict]) -> list[dict]:
    """Per-(lb, transport) aggregate, best (lowest slowdown) first."""
    groups: dict[tuple, list[dict]] = {}
    for cell in cells:
        groups.setdefault((cell["lb"], cell["transport"]),
                          []).append(cell)

    def mean(members: list[dict], key: str) -> float:
        return sum(c[key] for c in members) / len(members)

    rows = []
    for (lb, transport), members in groups.items():
        rows.append({
            "lb": lb,
            "transport": transport,
            "cells": len(members),
            "completed_cells": sum(1 for c in members if c["completed"]),
            "mean_slowdown": round(mean(members, "mean_slowdown"), 4),
            "mean_goodput_gbps": round(mean(members, "goodput_gbps"), 3),
            "mean_reorder_rate": round(mean(members, "reorder_rate"), 4),
            "mean_nack_validity": round(
                mean(members, "nack_validity"), 4),
        })
    rows.sort(key=lambda r: (r["mean_slowdown"],
                             -r["mean_goodput_gbps"],
                             r["lb"], r["transport"]))
    for rank, row in enumerate(rows, start=1):
        row["rank"] = rank
    return rows


# ----------------------------------------------------------------------
# Validation + rendering
# ----------------------------------------------------------------------
#: The top-level keys of a ``repro-arena-v1`` document, in order.
_DOC_FIELDS = ("schema", "axes", "cells", "ranking")
_CELL_FIELDS = ("lb", "transport", "cc", "workload", "topology", "seed",
                "spec_hash", "completed", "tail_ns", "mean_slowdown",
                "goodput_gbps", "reorder_rate", "nack_validity")
_RANK_FIELDS = ("rank", "lb", "transport", "cells", "completed_cells",
                "mean_slowdown", "mean_goodput_gbps",
                "mean_reorder_rate", "mean_nack_validity")
# Checked before ingest: the store renders whatever it took in, so a
# string where a metric belongs would otherwise surface as an HTTP 500.
_CELL_TYPES = {
    **dict.fromkeys(("lb", "transport", "cc", "workload", "topology",
                     "spec_hash"), str),
    **dict.fromkeys(("seed", "tail_ns", "nacks", "drops", "nacks_blocked",
                     "retransmissions"), int),
    "completed": bool,
    **dict.fromkeys(("mean_slowdown", "goodput_gbps", "reorder_rate",
                     "nack_validity"), NUMBER),
}
_RANK_TYPES = {
    **dict.fromkeys(("lb", "transport"), str),
    **dict.fromkeys(("rank", "cells", "completed_cells"), int),
    **dict.fromkeys(("mean_slowdown", "mean_goodput_gbps",
                     "mean_reorder_rate", "mean_nack_validity"), NUMBER),
}


def _doc_problems(doc: dict) -> Iterator[tuple[bool, str]]:
    """``(structural, problem)`` pairs for a ``repro-arena-v1`` document.

    A cell that did not complete is an outcome, not a malformed document:
    it is the one non-structural problem (the results store ingests such
    documents, the CI gate rejects them).
    """
    yield from ((True, f"unknown field {key!r}") for key in doc
                if key not in _DOC_FIELDS)
    if doc.get("schema") != ARENA_SCHEMA:
        yield True, (f"schema is {doc.get('schema')!r}, "
                     f"expected {ARENA_SCHEMA!r}")
    axes = doc.get("axes")
    if not isinstance(axes, dict):
        yield True, "axes missing or not an object"
        axes = {}
    for key in ("lbs", "transports", "ccs", "workloads",
                "topologies", "seeds"):
        if not isinstance(axes.get(key), list) or not axes.get(key):
            yield True, f"axes.{key} missing or empty"
    cells = doc.get("cells")
    if not isinstance(cells, list) or not cells:
        yield True, "cells missing or empty"
        cells = []
    for i, cell in enumerate(cells):
        problems = field_problems(cell, _CELL_FIELDS, label=f"cell[{i}]",
                                  types=_CELL_TYPES)
        if problems:
            yield True, problems[0]
        elif not cell["completed"]:
            yield False, (f"cell[{i}] ({cell['lb']}/{cell['transport']}"
                          f"/{cell['workload']}/{cell['topology']}"
                          f"/s{cell['seed']}) did not complete")
    ranking = doc.get("ranking")
    if not isinstance(ranking, list) or not ranking:
        yield True, "ranking missing or empty"
        ranking = []
    malformed = [problem for i, row in enumerate(ranking)
                 for problem in field_problems(row, _RANK_FIELDS,
                                               label=f"ranking[{i}]",
                                               types=_RANK_TYPES)]
    if malformed:
        yield from ((True, problem) for problem in malformed)
        return
    if ranking and [r["rank"] for r in ranking] != \
            list(range(1, len(ranking) + 1)):
        yield True, "ranking.rank is not 1..N in order"
    slowdowns = [r["mean_slowdown"] for r in ranking]
    if slowdowns != sorted(slowdowns):
        yield True, "ranking not sorted by mean_slowdown"


def validate_arena_doc(doc: dict) -> list[str]:
    """Schema check for a ``repro-arena-v1`` document; returns problems.

    Used inline by the CI smoke gate, so it needs no external schema
    library: the contract is small and explicit.
    """
    return [problem for _, problem in _doc_problems(doc)]


def structural_problems(doc: dict) -> list[str]:
    """:func:`validate_arena_doc` minus cells that did not complete."""
    return [problem for structural, problem in _doc_problems(doc)
            if structural]


def render_arena_table(doc: dict) -> str:
    """Human-readable ranking table (see docs/arena.md for reading it)."""
    rows = [(r["rank"], r["lb"], r["transport"],
             f"{r['mean_slowdown']:.3f}",
             f"{r['mean_goodput_gbps']:.3f}",
             f"{r['mean_reorder_rate']:.4f}",
             f"{r['mean_nack_validity']:.3f}",
             f"{r['completed_cells']}/{r['cells']}")
            for r in doc["ranking"]]
    return format_table(
        ["rank", "lb", "transport", "slowdown", "goodput Gbps",
         "reorder", "nack validity", "cells"], rows)
