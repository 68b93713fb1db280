"""The numbers every refactor is judged against, in one file.

A change that shifts behaviour consistently passes every relative test;
these are absolute.  When a value here moves, the change moved the
simulation: either it is a bug, or the diff to this file is the
re-baseline, made on purpose and named in CHANGES.md.

Two contracts, docs/benchmarking.md: the heap-oracle tests pin the
bitwise event order, and this file pins every observable count.  An
executed-event count includes each cancelled per-QP timer, which runs as
a no-op, so it moves when a change cancels timers more or less often.
"""

from __future__ import annotations

import dataclasses
import inspect
import re
import zlib
from pathlib import Path

import pytest

from repro.cc.dcqcn import DcqcnConfig
from repro.collectives import (AllToAll, Collective,
                               HalvingDoublingAllreduce, RingAllgather,
                               RingAllreduce, RingReduceScatter, TrainingJob)
from repro.collectives.group import StepCollective
from repro.collectives.ring import RingCollective
from repro.conweave.config import ConweaveConfig
from repro.faults.campaign import run_campaign, run_cell
from repro.faults.scenarios import builtin
from repro.harness import bench
from repro.harness.arena import arena_job_specs, run_arena, run_arena_cell
from repro.harness.collective_runner import (EvalScale, build_collective,
                                             fig5_config, run_collective,
                                             run_collective_cell)
from repro.harness.jobs import JobRunner, canonical_json
from repro.harness.metrics import Metrics
from repro.harness.motivation import (build_motivation, motivation_config,
                                      run_fig1d_comparison, run_motivation)
from repro.harness.network import Network, NetworkConfig, TopologySpec
from repro.harness.report import format_series
from repro.harness.sweep import run_fig5_sweep, sweep_job_specs
from repro.harness.tracing import build_traced_alltoall, run_traced_alltoall
from repro.harness.workload import (Traffic, lossy_uplinks, post_messages,
                                    run_built, start_collectives)
from repro.net.topology import Topology, dragonfly, fat_tree, leaf_spine
from repro.obs.console import Console
from repro.obs.record import Recorder, dump_active_flight
from repro.results.html import line_chart
from repro.results.query import list_runs
from repro.rnic.config import RnicConfig
from repro.sim.engine import SEC, Simulator
from repro.sim.rng import SimRng
from repro.switch.buffer import SharedBuffer
from repro.switch.ecn import EcnConfig
from repro.switch.lb import (AdaptiveRoutingLB, EcmpLB, FlowletLB, PrimeLB,
                             RandomSprayLB, RepsLB, SprinklersLB, SpritzLB)
from repro.switch.pfc import PfcConfig
from repro.themis.config import ThemisConfig
from repro.themis.dest import ThemisDest
from repro.themis.ring_queue import PsnRingQueue
from repro.themis.source import ThemisSource


def doc_crc(doc: object) -> int:
    """CRC-32 of a result document's canonical JSON (sorted keys, no
    whitespace)."""
    return zlib.crc32(canonical_json(doc).encode())


@pytest.fixture(scope="module")
def quick_arena() -> dict:
    return run_arena(quick=True, workers=1, seeds=(7,))


def test_quick_arena_document(quick_arena):
    assert doc_crc(quick_arena) == 4200862039


def test_quick_arena_nic_sr_cells(quick_arena):
    """The ``nic_sr`` half of the quick arena, with the transport name
    and spec hash left out, is the commodity model the arena ran before
    its transport axis became ``NetworkConfig.transport``."""
    cells = [{k: v for k, v in cell.items()
              if k not in ("transport", "spec_hash")}
             for cell in quick_arena["cells"]
             if cell["transport"] == "nic_sr"]
    assert len(cells) == 72
    assert doc_crc(cells) == 2528648996


def test_link_flap_campaign_document():
    doc = run_campaign(builtin("link-flap-smoke"), [1, 2])
    assert doc_crc(doc) == 1191303070


@pytest.mark.parametrize("name, live, no_ops", [
    pytest.param(name, live, no_ops, id=f"{name}-{live}")
    for name, live, no_ops in [("incast", 21_390, 760),
                               ("alltoall", 144_184, 992),
                               ("lossy", 24_257, 116)]])
def test_quick_bench_event_counts(name, live, no_ops):
    """``live`` events do work; ``no_ops`` are cancelled per-QP timers,
    which run as no-ops and count as executed."""
    net = bench.build_scenario(name, quick=True)
    net.run(until_ns=bench.DEADLINE_NS)
    assert net.sim.executed == live + no_ops


def test_traced_alltoall_event_counts():
    net, recorder = run_traced_alltoall(
        nodes=8, loss=0.01, seed=7, message_bytes=20_000, scheme="themis",
        retain_all=True)
    assert (recorder.total_events(), net.sim.executed) == (8079, 7205)


def counter_surface(net: Network) -> tuple:
    """Every count a run reports: ``Metrics.summary()``, the ACKs sent,
    each ``ThemisStats`` count and a CRC of the per-flow counters."""
    metrics = net.metrics
    themis = metrics.themis
    flows = sorted((tuple(f.flow), f.packets_sent, f.retransmissions,
                    f.nacks_received, f.timeouts, f.receiver_ooo,
                    f.receiver_duplicates) for f in metrics.flows.values())
    return (metrics.summary(), metrics.acks_generated,
            (themis.nacks_inspected, themis.nacks_blocked,
             themis.nacks_forwarded, themis.nacks_compensated,
             themis.tpsn_not_found, themis.queue_overflows),
            zlib.crc32(repr(flows).encode()))


def _summary(sent, retx, ratio, drops, nacks, cnps, goodput,
             themis=(0, 0, 0), **traced):
    blocked, forwarded, compensated = themis
    return {"data_packets_sent": sent, "retransmissions": retx,
            "spurious_ratio": ratio, "drops": drops,
            "nacks_generated": nacks, "cnps_generated": cnps,
            "themis_blocked": blocked, "themis_forwarded": forwarded,
            "themis_compensated": compensated,
            "mean_goodput_gbps": goodput, **traced}


NO_THEMIS = (0, 0, 0, 0, 0, 0)
SURFACES = {
    "incast": (_summary(2681, 71, 0.0265, 0, 421, 75, 8.352), 1148,
               NO_THEMIS, 2829200242),
    "alltoall": (_summary(10912, 0, 0.0, 0, 0, 0, 2.358), 9966,
                 NO_THEMIS, 1464439564),
    "lossy": (_summary(2845, 69, 0.0243, 16, 95, 0, 7.48), 1466,
              NO_THEMIS, 672020594),
    "traced": (_summary(
        789, 5, 0.0063, 5, 5, 0, 7.508, themis=(5, 0, 3),
        trace_events=8079,
        trace_counts={"cc_rate": 5, "deq": 2922, "drop": 5, "enq": 2194,
                      "hop": 2877, "nack_cancel": 2, "nack_classify": 5,
                      "nack_compensate": 3, "nack_emit": 5, "qp_state": 61,
                      "total": 8079}),
        271, (5, 5, 0, 3, 0, 0), 1842124506),
}


@pytest.mark.parametrize("name", SURFACES)
def test_counter_surface(name):
    if name == "traced":
        net, _ = run_traced_alltoall(
            nodes=8, loss=0.01, seed=7, message_bytes=20_000,
            scheme="themis", retain_all=True)
    else:
        net = bench.build_scenario(name, quick=True)
        net.run(until_ns=bench.DEADLINE_NS)
        net.stop()
    assert counter_surface(net) == SURFACES[name]


#: Every value an experiment can set: the fields of the eight config
#: dataclasses and the defaulted keywords of the shared buffer and the
#: eight load balancers.  docs/architecture.md ("Where each setting is
#: set") names the caller of each; a new knob is a deliberate diff here.
SETTABLE = {
    NetworkConfig: ("topology", "scheme", "transport", "dcqcn", "themis",
                    "ecn", "buffer_bytes", "pfc", "flowlet_gap_ns",
                    "conweave", "seed"),
    TopologySpec: ("kind", "num_tors", "num_spines", "nics_per_tor",
                   "fat_tree_k", "df_groups", "df_routers", "df_hosts",
                   "df_global_links", "link_bandwidth_bps",
                   "link_delay_ns"),
    RnicConfig: ("max_inflight_packets", "rto_ns", "rto_backoff",
                 "rto_max_ns"),
    DcqcnConfig: ("ti_ns", "td_ns", "nack_triggers_decrease",
                  "byte_counter_bytes"),
    ThemisConfig: ("queue_capacity_factor", "queue_entries_override"),
    EcnConfig: ("kmin_bytes", "kmax_bytes", "pmax"),
    PfcConfig: ("xoff_bytes", "xon_bytes"),
    ConweaveConfig: ("reorder_timeout_ns", "buffer_packets",
                     "flip_interval_ns"),
    SharedBuffer: (),
    EcmpLB: (), RandomSprayLB: (), FlowletLB: ("gap_ns",),
    AdaptiveRoutingLB: (), RepsLB: (), PrimeLB: (),
    SpritzLB: ("mtu_bytes",), SprinklersLB: (),
}


def settable(cls) -> tuple:
    if dataclasses.is_dataclass(cls):
        return tuple(f.name for f in dataclasses.fields(cls))
    return tuple(name for name, param
                 in inspect.signature(cls).parameters.items()
                 if param.default is not param.empty)


def test_settable_surface():
    assert {cls: settable(cls) for cls in SETTABLE} == SETTABLE
    assert sum(map(len, SETTABLE.values())) == 42


#: The defaulted keywords of the callables that build and run fabrics.
#: Each one kept has a caller that sets it, or a stated test-only
#: reason, in docs/architecture.md ("Where each setting is set").
KEYWORDS = {
    Topology: (), Topology.connect_switches: (),
    Topology.register_nic_slot: (),
    leaf_spine: ("link_delay_ns",), fat_tree: ("link_delay_ns",),
    dragonfly: ("global_links_per_router", "link_delay_ns"),
    Network: ("sim", "recorder"),
    Network.post_message: ("qp", "on_receiver_done"),
    Network.run: ("until_ns",),
    Metrics: (),
    Collective: (), StepCollective: (), RingCollective: (),
    RingAllreduce: (), RingAllgather: (), RingReduceScatter: (),
    HalvingDoublingAllreduce: (), AllToAll: (), TrainingJob: (),
    motivation_config: ("scheme", "transport", "seed"),
    build_motivation: ("config", "flow_bytes"),
    run_motivation: ("config", "flow_bytes", "deadline_ns"),
    run_fig1d_comparison: ("flow_bytes",),
    EvalScale: ("num_tors", "num_spines", "nics_per_tor",
                "collective_bytes", "link_bandwidth_bps", "ecn_kmin_bytes",
                "ecn_kmax_bytes", "buffer_bytes"),
    fig5_config: ("scale", "seed"), build_collective: (),
    run_collective: ("scale", "deadline_ns"), run_collective_cell: (),
    Traffic: (), post_messages: (), start_collectives: (),
    lossy_uplinks: (), run_built: (),
    build_traced_alltoall: ("nodes", "loss", "seed", "message_bytes",
                            "scheme", "recorder", "retain_all", "faults"),
    run_traced_alltoall: (),
    arena_job_specs: ("lbs", "transports", "ccs", "workloads",
                      "topologies", "seeds", "quick", "message_bytes",
                      "deadline_us"),
    run_arena: ("workers", "timeout_s", "retries", "checkpoint", "cache",
                "counters", "progress"),
    run_arena_cell: (),
    sweep_job_specs: ("collective", "schemes", "conditions", "scale",
                      "seed"),
    run_fig5_sweep: ("collective", "schemes", "conditions", "scale",
                     "seed"),
    run_campaign: (), run_cell: (),
    JobRunner: ("workers", "timeout_s", "retries", "backoff_s",
                "checkpoint", "cache", "isolation", "mp_method", "counters",
                "progress"),
    Recorder: ("categories", "ring_capacity", "retain", "window_ns"),
    Simulator: ("bucket_ns",),
    Console: ("quiet", "json_mode", "stream"), Console.info: (),
    Console.out: (),
    ThemisDest: ("validate", "compensate"),
    ThemisSource: ("pathmap_provider",),
    SimRng: ("seed",), PsnRingQueue: ("psn_bits",),
    list_runs: (), dump_active_flight: ("tag",), line_chart: ("y_fmt",),
    format_series: ("value_fmt", "max_rows"),
}


def defaulted(fn) -> tuple:
    return tuple(name for name, param
                 in inspect.signature(fn).parameters.items()
                 if param.default is not param.empty)


def test_keyword_surface():
    assert {fn: defaulted(fn) for fn in KEYWORDS} == KEYWORDS
    assert sum(map(len, KEYWORDS.values())) == 91


def test_every_setting_and_keyword_has_a_row():
    """docs/architecture.md names each settable value and each kept
    keyword in its own table row, and nothing else."""
    doc = (Path(__file__).parents[1] / "docs" / "architecture.md"
           ).read_text()
    section = doc.split("### Where each setting is set", 1)[1]
    section = section.split("\n### ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \|", section, flags=re.M)
    names = [f"{cls.__name__}.{name}" if dataclasses.is_dataclass(cls)
             else f"{cls.__qualname__}({name}=)"
             for cls, names in SETTABLE.items() for name in names]
    names += [f"{fn.__qualname__}({name}=)"
              for fn, names in KEYWORDS.items() for name in names]
    assert sorted(rows) == sorted(names)


def test_fig1_themis_row():
    result = run_motivation(motivation_config(scheme="themis", seed=1))
    summary = result.summary
    assert result.completed
    assert (result.nacks, summary["themis_blocked"],
            summary["themis_forwarded"], summary["retransmissions"]) \
        == (4807, 4807, 0, 0)


@pytest.mark.parametrize("scheme, golden", [("rps", 3329852359),
                                            ("themis", 1386862219)])
def test_fig1_series(scheme, golden):
    """What Fig. 1b-1d plot: the watched flow's retransmission-ratio and
    rate series, their averages, the mean goodput and the run's length."""
    result = run_motivation(motivation_config(scheme=scheme),
                            flow_bytes=2_000_000)
    assert doc_crc({
        "retx_ratio_series": result.retx_ratio_series,
        "rate_series_gbps": result.rate_series_gbps,
        "avg_retx_ratio": result.avg_retx_ratio,
        "avg_rate_gbps": result.avg_rate_gbps,
        "mean_goodput_gbps": result.mean_goodput_gbps,
        "duration_ns": result.duration_ns}) == golden


def fig5_smoke(scheme: str, scale: EvalScale):
    """A smoke-size Fig. 5 cell, built and started: 400 kB ring allreduce
    in every cross-rack group.  Returns ``(net, traffic)``."""
    net = build_collective(
        fig5_config(scheme, ti_us=10, td_us=4, scale=scale, seed=7),
        "allreduce", 400_000)
    return net, net.traffic


@pytest.mark.parametrize("scheme, golden", [
    ("themis", (58_185, 302_519, 83, 0, 163)),
    ("ar", (58_803, 737_617, 85, 110, 146))])
def test_fig5_smoke_pair_with_ecn(scheme, golden):
    """The only ECN-bearing golden: the quick arena marks nothing, so
    this pair is what pins the order of the marking draws.  ``kmin`` sits
    below one packet's wire size, so a packet crossing an *idle* port
    draws too."""
    net, traffic = fig5_smoke(
        scheme, EvalScale(ecn_kmin_bytes=1000, ecn_kmax_bytes=30_000))
    net.run(until_ns=2 * SEC)
    net.stop()
    assert traffic.complete
    assert (net.sim.executed, traffic.done_ns,
            sum(s.ecn_marker.marked for s in net.topology.switches),
            net.metrics.retransmissions, net.metrics.nacks_generated) \
        == golden


@pytest.mark.parametrize("scheme, golden", [
    ("ecmp", (554_132, 56_325)),
    ("ar", (1_161_266, 64_122)),
    ("themis", (252_476, 58_540))])
def test_fig5_hd_smoke(scheme, golden):
    """The halving-doubling twin of the Fig. 5 smoke cell: 400 kB HD
    allreduce in every cross-rack group.  Its per-step QPs let a partner
    running ahead deliver step ``s+1`` before step ``s``, which a
    step gate that counts receives instead of flagging each step gets
    wrong (the ``ecmp`` row moves)."""
    net = build_collective(fig5_config(scheme, 900, 4, scale=EvalScale(),
                                       seed=7), "hd_allreduce", 400_000)
    run_built(net, 20 * SEC)
    assert net.traffic.complete
    tail = max(coll.completion_time_ns()
               for coll in net.traffic.collectives)
    assert (tail, net.sim.executed) == golden
