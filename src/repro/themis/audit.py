"""Deployed-state audit: measured switch memory vs the §4 model.

The §4 estimate assumes a worst-case QP census; a running fabric lets us
*count* the state Themis actually allocated (flow-table entries, ring
capacities) and price it with the same per-entry constants.  The audit
bench compares the two, closing the loop between the analytical model
and the implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.themis.dest import ThemisDest
from repro.themis.memory import FLOW_ENTRY_BYTES, PATHMAP_ENTRY_BYTES, \
    queue_entry_bytes
from repro.themis.source import ThemisSource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.switch.switch import Switch


@dataclass(frozen=True)
class SwitchAudit:
    """Measured Themis state on one ToR."""

    switch_name: str
    flow_entries: int
    queue_bytes: int            # every ring entry at its actual width
    pathmap_entries: int

    @property
    def dest_bytes(self) -> int:
        return self.flow_entries * FLOW_ENTRY_BYTES + self.queue_bytes

    @property
    def source_bytes(self) -> int:
        return self.pathmap_entries * PATHMAP_ENTRY_BYTES

    @property
    def total_bytes(self) -> int:
        return self.dest_bytes + self.source_bytes


def audit_switch(switch: "Switch") -> SwitchAudit:
    """Price the Themis state currently held by one switch."""
    flow_entries = 0
    queue_bytes = 0
    pathmap_entries = 0
    for mw in switch.middleware:
        if isinstance(mw, ThemisDest):
            for entry in mw.table.entries():
                flow_entries += 1
                queue_bytes += entry.queue.capacity * queue_entry_bytes(
                    entry.queue.psn_bits)
        elif isinstance(mw, ThemisSource):
            if mw.pathmap_provider is not None:
                pathmap_entries += sum(len(pm) for pm
                                       in mw._pathmaps.values())
            else:
                # Direct mode keeps one base-path word per flow instead
                # of a PathMap; price it like one entry per flow.
                pathmap_entries += len(mw._base_cache)
    return SwitchAudit(switch.name, flow_entries, queue_bytes,
                       pathmap_entries)


def audit_network(network) -> list[SwitchAudit]:
    """Audit every ToR of a :class:`repro.harness.network.Network`."""
    return [audit_switch(tor) for tor in network.topology.tors]
