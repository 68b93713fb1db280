"""Themis: the paper's contribution — PSN spraying + NACK filtering."""

from repro.themis.audit import SwitchAudit, audit_network, audit_switch
from repro.themis.config import ThemisConfig
from repro.themis.dest import ThemisDest
from repro.themis.flow_table import FlowEntry, FlowTable
from repro.themis.memory import (FLOW_ENTRY_BYTES, MemoryBreakdown,
                                 MemoryParams, memory_overhead,
                                 queue_entries)
from repro.themis.pathmap import apply_pathmap, build_pathmap, trace_path
from repro.themis.ring_queue import PsnRingQueue
from repro.themis.source import ThemisSource

__all__ = [
    "ThemisConfig", "ThemisSource", "ThemisDest", "FlowTable", "FlowEntry",
    "PsnRingQueue", "MemoryParams", "MemoryBreakdown", "memory_overhead",
    "queue_entries", "FLOW_ENTRY_BYTES", "build_pathmap", "apply_pathmap",
    "trace_path",
    "SwitchAudit", "audit_switch", "audit_network",
]
