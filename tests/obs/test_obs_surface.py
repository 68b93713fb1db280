"""The observability package surface, post shim removal.

The ``repro.sim.trace`` and ``repro.harness.tracer`` deprecation shims
have been deleted after their deprecation window, and so has the
``repro.obs.capture`` middleware tracer they pointed at: per-hop packet
capture is the Recorder's PACKET channel (``tests/harness/test_tracer.py``).
``repro.obs.timeseries`` is the only home of the series types, and the
package itself re-exports nothing (``tests/test_imports.py``).
"""

import importlib

import pytest


class TestShimsRemoved:
    @pytest.mark.parametrize("module", ["repro.sim.trace",
                                        "repro.harness.tracer",
                                        "repro.obs.capture"])
    def test_old_path_is_gone(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    def test_canonical_homes_export_the_types(self):
        from repro.obs.record import PACKET, Recorder
        from repro.obs.timeseries import (RateMeter, TimeSeries,
                                          WindowedCounter)
        for obj in (Recorder, RateMeter, TimeSeries, WindowedCounter):
            assert obj is not None
        assert Recorder(retain={PACKET}).retain == {PACKET}


class TestObsPackageSurface:
    """``repro.obs`` re-exports nothing; every name has one home."""

    def test_names_live_in_their_modules(self):
        homes = {
            "repro.obs.record": ("Recorder", "PACKET", "NACK", "FAULT",
                                 "set_active", "dump_active_flight"),
            "repro.obs.profile": ("Profiler",),
            "repro.obs.nacks": ("build_audit", "format_report", "NackAudit",
                                "NackDecision"),
            "repro.obs.perfetto": ("export_chrome_trace",
                                   "write_chrome_trace",
                                   "validate_chrome_trace"),
            "repro.obs.console": ("Console",),
        }
        for module, names in homes.items():
            mod = importlib.import_module(module)
            for name in names:
                assert getattr(mod, name) is not None, (module, name)

    def test_unknown_attribute_raises(self):
        import repro.obs as obs
        with pytest.raises(AttributeError):
            obs.does_not_exist
        with pytest.raises(AttributeError):
            obs.PacketTracer
