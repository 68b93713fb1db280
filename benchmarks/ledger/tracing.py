"""Host-time tracing from outside the program.

Nothing under ``src/`` knows it is being traced.  The tracer uses two
public seams:

* ``Simulator.trace`` — the per-event hook ``repro.obs.profile.Profiler``
  rides.  At each hook the interval since the previous hook is charged to
  the layer of the previous handler (looked up by the handler's
  ``__qualname__``), so engine dispatch lands on the handler before it and
  shares are relative, exactly as ``Profiler`` documents.
* plain attributes — ``switch.lb`` and the entries of ``switch.middleware``
  are replaced by timing proxies, and bound methods of objects the
  benchmark owns (a ``ResultsStore``, a ``Dashboard``) are wrapped.
  ``Port`` has ``__slots__``, so ports are measured by handler only.

Per-event spans are far too many to keep, so they are aggregated per layer
as calls / total / self time (self = total minus the proxied calls made
inside it).  Harness-level spans keep name, start, end and parent and can
be written out as Chrome-trace JSON.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Callable, Optional

_clock = time.perf_counter

#: Every layer a traced run reports, in table order.  A layer a workload
#: never enters reports zero calls and zero time.
LAYERS = ("net.port", "switch", "switch.lb", "themis.source", "themis.dest",
          "rnic.tx", "rnic.rx", "rnic.rto", "cc",
          "harness.build", "harness.jobs", "results.store",
          "results.render", "results.http", "other")
#: Layers whose time is simulation (the rest is harness and results).
SIM_LAYERS = LAYERS[:9]

#: Event-handler ``__qualname__`` -> layer.  A handler renamed under
#: ``src/`` falls to ``other``; the smoke test fails when ``other`` grows.
HANDLER_LAYERS = {
    "Port._pump": "net.port",
    "Switch.receive": "switch",
    "SenderQp._send_one": "rnic.tx",
    "Rnic.receive": "rnic.rx",
    "ReceiverQp._delayed_ack_fire": "rnic.rx",
    "SenderQp._rto_fire": "rnic.rto",
}
HANDLER_PREFIX_LAYERS = (("Dcqcn.", "cc"),)


class LayerStats:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class _Proxy:
    """Stands in for an LB policy or a middleware; everything except the
    timed entry points is forwarded to the real object."""

    def __init__(self, inner, timed: dict[str, Callable]) -> None:
        self._inner = inner
        for name, fn in timed.items():
            setattr(self, name, fn)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


class Tracer:
    """Layer accounting plus harness spans for one worker process."""

    def __init__(self) -> None:
        self.layers = {name: LayerStats() for name in LAYERS}
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._origin = _clock()
        # Per-event state of the Simulator.trace hook.
        self._by_fn: dict = {}
        self._cur: Optional[LayerStats] = None
        self._cur_clock = 0.0
        #: Time spent in proxied calls since the current handler (or the
        #: enclosing proxied call) began; subtracted to get self time.
        self._child_s = 0.0

    # -- harness spans -------------------------------------------------
    @contextmanager
    def span(self, name: str, layer: Optional[str] = None):
        """Record one harness-level span; with ``layer`` also charge it."""
        index = len(self.spans)
        record = {"name": name, "start_s": _clock() - self._origin,
                  "end_s": None,
                  "parent": self._stack[-1] if self._stack else None}
        self.spans.append(record)
        self._stack.append(index)
        start = _clock()
        try:
            yield record
        finally:
            elapsed = _clock() - start
            self._stack.pop()
            record["end_s"] = record["start_s"] + elapsed
            if layer is not None:
                stats = self.layers[layer]
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed

    # -- aggregated call timing ----------------------------------------
    def timed(self, layer: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so each call is charged to ``layer``."""
        stats = self.layers[layer]

        def wrapper(*args, **kwargs):
            outer = self._child_s
            self._child_s = 0.0
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - self._child_s
                self._child_s = outer + elapsed

        return wrapper

    # -- simulation instrumentation ------------------------------------
    def instrument(self, net) -> None:
        """Install the LB/middleware proxies and the event hook."""
        from repro.themis.dest import ThemisDest
        from repro.themis.source import ThemisSource

        for switch in net.topology.switches:
            switch.lb = _Proxy(switch.lb, {
                "select": self.timed("switch.lb", switch.lb.select)})
            for i, mw in enumerate(switch.middleware):
                if isinstance(mw, ThemisSource):
                    layer = "themis.source"
                elif isinstance(mw, ThemisDest):
                    layer = "themis.dest"
                else:
                    continue
                switch.middleware[i] = _Proxy(mw, {
                    "on_packet": self.timed(layer, mw.on_packet),
                    "select_port": self.timed(layer, mw.select_port)})
        if net.sim.trace is not None:
            raise RuntimeError("engine trace hook already in use")
        net.sim.trace = self._hook

    def reset(self) -> None:
        """Zero the layer accounting (spans are kept): called where a
        workload's timed region starts, so the table covers exactly it."""
        for stats in self.layers.values():
            stats.calls = 0
            stats.total_s = stats.self_s = 0.0

    def begin_run(self) -> None:
        self._cur = None
        self._child_s = 0.0

    def end_run(self) -> None:
        """Charge the last handler of a run (call right after it)."""
        self._flush(_clock())

    def _hook(self, _time_ns: int, _seq: int, callback) -> None:
        now = _clock()
        self._flush(now)
        fn = getattr(callback, "__func__", callback)
        stats = self._by_fn.get(fn)
        if stats is None:
            stats = self._by_fn[fn] = self.layers[_handler_layer(fn)]
        self._cur = stats
        self._cur_clock = now

    def _flush(self, now: float) -> None:
        stats = self._cur
        if stats is not None:
            elapsed = now - self._cur_clock
            stats.calls += 1
            stats.total_s += elapsed
            stats.self_s += elapsed - self._child_s
            self._cur = None
        self._child_s = 0.0

    # -- reporting -----------------------------------------------------
    def layer_table(self, total_s: float, remainder: str) -> dict:
        """``{layer: {calls, host_s, share}}`` over ``total_s`` of host
        time; whatever no layer claimed is added to ``remainder``."""
        claimed = sum(s.self_s for s in self.layers.values())
        table = {}
        for name, stats in self.layers.items():
            host_s = stats.self_s
            if name == remainder:
                host_s += max(0.0, total_s - claimed)
            table[name] = {"calls": stats.calls, "host_s": host_s,
                           "share": host_s / total_s if total_s else 0.0}
        return table

    def chrome_trace(self, label: str) -> dict:
        """Harness spans in the subset of the Trace Event Format that
        ``repro.obs.perfetto.validate_chrome_trace`` accepts: one instant
        event per span at its start, end and parent in ``args``."""
        events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
                   "args": {"name": label}},
                  {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
                   "args": {"name": "harness spans"}}]
        for index, span in enumerate(self.spans):
            events.append({
                "name": span["name"], "ph": "i", "cat": "harness",
                "pid": 1, "tid": 1, "s": "t",
                "ts": span["start_s"] * 1e6,
                "args": {"span": index, "parent": span["parent"],
                         "end_us": span["end_s"] * 1e6,
                         "dur_us": (span["end_s"] - span["start_s"]) * 1e6}})
        for name, stats in self.layers.items():
            events.append({
                "name": f"layer {name}", "ph": "C", "cat": "layer",
                "pid": 1, "tid": 1, "ts": 0.0,
                "args": {"calls": stats.calls, "total_us": stats.total_s * 1e6,
                         "self_us": stats.self_s * 1e6}})
        return {"traceEvents": events, "displayTimeUnit": "ns",
                "otherData": {"generator": "benchmarks/ledger/trace.py"}}

    def write_chrome_trace(self, path: str, label: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(label), fh)


def _handler_layer(fn) -> str:
    name = getattr(fn, "__qualname__", "")
    layer = HANDLER_LAYERS.get(name)
    if layer is not None:
        return layer
    for prefix, prefixed_layer in HANDLER_PREFIX_LAYERS:
        if name.startswith(prefix):
            return prefixed_layer
    return "other"


def traced_network_class(tracer: Tracer):
    """A ``Network`` subclass that spans construction and ``run`` and
    instruments every fabric it builds.  The arena imports ``Network``
    from ``repro.harness.network`` at call time, so assigning this class
    to that module attribute traces every cell without touching ``src/``.
    """
    from repro.harness.network import Network

    class TracedNetwork(Network):
        def __init__(self, *args, **kwargs) -> None:
            with tracer.span("Network()", layer="harness.build"):
                super().__init__(*args, **kwargs)
            tracer.instrument(self)

        def run(self, until_ns=None):
            with tracer.span("Network.run"):
                tracer.begin_run()
                try:
                    return super().run(until_ns)
                finally:
                    tracer.end_run()

    return TracedNetwork
