"""repro.obs — observability layer.

Structured tracing and the always-on flight recorder
(:mod:`repro.obs.record`), the NACK causality audit
(:mod:`repro.obs.nacks`), Perfetto export (:mod:`repro.obs.perfetto`),
engine profiling (:mod:`repro.obs.profile`), time-series primitives
(:mod:`repro.obs.timeseries`), and the CLI console helper
(:mod:`repro.obs.console`).  Per-hop packet capture is the recorder's
``PACKET`` channel: ``Recorder(retain={PACKET})``.

Import names from their modules (``from repro.obs.record import
Recorder``): this package imports none of them, so a simulation that
only records loads neither the audit, the exporter nor the profiler.
No module here imports the network stack at run time, so low-level
packages can import them without creating an import cycle.
"""
