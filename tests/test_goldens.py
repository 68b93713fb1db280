"""The numbers every refactor is judged against, in one file.

A change that shifts behaviour consistently passes every relative test;
these are absolute.  When a value here moves, the change moved the
simulation: either it is a bug, or the diff to this file is the
re-baseline, made on purpose and named in CHANGES.md.
"""

from __future__ import annotations

import zlib

import pytest

from repro.faults.campaign import build_faults_doc, run_campaign
from repro.faults.scenarios import builtin
from repro.harness import bench
from repro.harness.arena import run_arena
from repro.harness.jobs import canonical_json
from repro.harness.motivation import motivation_config, run_motivation
from repro.harness.tracing import run_traced_alltoall


def doc_crc(doc: dict) -> int:
    """CRC-32 of a result document's canonical JSON (sorted keys, no
    whitespace)."""
    return zlib.crc32(canonical_json(doc).encode())


def test_quick_arena_document():
    assert doc_crc(run_arena(quick=True, workers=1, seeds=(7,))) \
        == 1590625191


def test_link_flap_campaign_document():
    summary = run_campaign(builtin("link-flap-smoke"), [1, 2])
    assert doc_crc(build_faults_doc(summary)) == 1163527432


@pytest.mark.parametrize("name, events", [
    ("incast", 21_469), ("alltoall", 158_734), ("lossy", 23_703)])
def test_quick_bench_event_counts(name, events):
    assert bench.run_scenario(name, quick=True).events == events


def test_traced_alltoall_event_counts():
    net, recorder = run_traced_alltoall(
        nodes=8, loss=0.01, seed=7, message_bytes=20_000, scheme="themis",
        retain_all=True)
    assert (recorder.total_events(), net.sim.executed) == (8803, 7929)


def test_fig1_themis_row():
    result = run_motivation(motivation_config(scheme="themis", seed=1))
    summary = result.summary
    assert result.completed
    assert (result.nacks, summary["themis_blocked"],
            summary["themis_forwarded"], summary["retransmissions"]) \
        == (3091, 2968, 123, 102)
