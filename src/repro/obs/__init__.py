"""repro.obs — observability layer.

Structured tracing (:mod:`repro.obs.record`), the always-on flight
recorder, the NACK causality audit (:mod:`repro.obs.nacks`),
Perfetto export (:mod:`repro.obs.perfetto`), engine profiling
(:mod:`repro.obs.profile`), time-series primitives
(:mod:`repro.obs.timeseries`), and the CLI console helper
(:mod:`repro.obs.console`).  Per-hop packet capture is the recorder's
``PACKET`` channel: ``Recorder(retain={PACKET})``.

No module here imports the network stack, so low-level packages can
import :mod:`repro.obs` without creating an import cycle.
"""

from repro.obs.console import Console
from repro.obs.nacks import (NackAudit, NackDecision, build_audit,
                             format_report)
from repro.obs.perfetto import (export_chrome_trace, validate_chrome_trace,
                                write_chrome_trace)
from repro.obs.profile import Profiler
from repro.obs.record import (ALL_CATEGORIES, CC, DROP, ECN, FAULT, NACK,
                              PACKET, PFC, QP, QUEUE, InvariantError,
                              Recorder, active_recorder, check_invariant,
                              dump_active_flight, set_active)
from repro.obs.timeseries import RateMeter, TimeSeries, WindowedCounter

__all__ = [
    "ALL_CATEGORIES", "PACKET", "QUEUE", "ECN", "DROP", "NACK", "PFC",
    "QP", "CC", "FAULT",
    "Recorder", "InvariantError", "check_invariant", "set_active",
    "active_recorder", "dump_active_flight",
    "Console", "Profiler",
    "TimeSeries", "WindowedCounter", "RateMeter",
    "build_audit", "format_report", "NackAudit", "NackDecision",
    "export_chrome_trace", "write_chrome_trace", "validate_chrome_trace",
]
