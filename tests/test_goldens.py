"""The numbers every refactor is judged against, in one file.

A change that shifts behaviour consistently passes every relative test;
these are absolute.  When a value here moves, the change moved the
simulation: either it is a bug, or the diff to this file is the
re-baseline, made on purpose and named in CHANGES.md.
"""

from __future__ import annotations

import zlib

import pytest

from repro.collectives.group import cross_rack_groups
from repro.faults.campaign import build_faults_doc, run_campaign
from repro.faults.scenarios import builtin
from repro.harness import bench
from repro.harness.arena import run_arena
from repro.harness.collective_runner import EvalScale, fig5_config
from repro.harness.jobs import canonical_json
from repro.harness.motivation import motivation_config, run_motivation
from repro.harness.network import Network
from repro.harness.tracing import run_traced_alltoall
from repro.harness.workload import start_collectives
from repro.sim.engine import SEC


def doc_crc(doc: dict) -> int:
    """CRC-32 of a result document's canonical JSON (sorted keys, no
    whitespace)."""
    return zlib.crc32(canonical_json(doc).encode())


def test_quick_arena_document():
    assert doc_crc(run_arena(quick=True, workers=1, seeds=(7,))) \
        == 1590625191


def test_link_flap_campaign_document():
    summary = run_campaign(builtin("link-flap-smoke"), [1, 2])
    assert doc_crc(build_faults_doc(summary)) == 4033554997


@pytest.mark.parametrize("name, events", [
    ("incast", 21_460), ("alltoall", 155_124), ("lossy", 23_708)])
def test_quick_bench_event_counts(name, events):
    assert bench.run_scenario(name, quick=True).events == events


def test_traced_alltoall_event_counts():
    net, recorder = run_traced_alltoall(
        nodes=8, loss=0.01, seed=7, message_bytes=20_000, scheme="themis",
        retain_all=True)
    assert (recorder.total_events(), net.sim.executed) == (8807, 7934)


def test_fig1_themis_row():
    result = run_motivation(motivation_config(scheme="themis", seed=1))
    summary = result.summary
    assert result.completed
    assert (result.nacks, summary["themis_blocked"],
            summary["themis_forwarded"], summary["retransmissions"]) \
        == (4840, 4840, 0, 0)


def fig5_smoke(scheme: str, scale: EvalScale):
    """A smoke-size Fig. 5 cell, built and started: 400 kB ring allreduce
    in every cross-rack group.  Returns ``(net, traffic)``."""
    config = fig5_config(scheme, ti_us=10, td_us=4, scale=scale, seed=7)
    net = Network(config)
    spec = config.topology
    traffic = start_collectives(
        net, "allreduce",
        cross_rack_groups(spec.num_tors, spec.nics_per_tor), 400_000)
    return net, traffic


@pytest.mark.parametrize("scheme, golden", [
    ("themis", (59_219, 316_616, 81, 0, 168)),
    ("ar", (58_032, 792_698, 75, 118, 153))])
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
