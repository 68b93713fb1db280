"""repro.faults — schedulable network failures and fault campaigns.

Three pieces:

* :mod:`repro.faults.spec` — composable fault layers (link flap, rate
  degradation, latency shift, switch reboot, PFC storm, random loss)
  and the declarative scenario builder that compiles them into a flat
  campaign spec.
* :mod:`repro.faults.injector` — schedules a compiled spec's actions as
  first-class engine events on a built :class:`repro.harness.network.Network`,
  with every action recorded on the ``FAULT`` observability category.
* :mod:`repro.faults.campaign` — runs (scenario, seed) cells on the
  parallel job runner and reports recovery-time / goodput-dip /
  NACK-validity metrics.

Only ``spec`` (no heavy dependencies) is re-exported here, so low-level
packages can import :mod:`repro.faults` freely; the injector and campaign
layers pull in the network stack and the harness and are imported from
their own modules.
"""

from repro.faults.spec import (DEFAULT_CONVERGE_US, LAYER_KINDS,
                               LatencyShift, LinkFlap, PfcStorm,
                               RandomLoss, RateDegrade, Scenario,
                               ScenarioError, SwitchReboot,
                               compiled_spec, load_scenario,
                               scenario_from_dict, spec_duration_us,
                               validate_compiled)

__all__ = [
    "Scenario", "ScenarioError", "LinkFlap", "RateDegrade",
    "LatencyShift", "SwitchReboot", "PfcStorm", "RandomLoss",
    "LAYER_KINDS", "DEFAULT_CONVERGE_US",
    "compiled_spec", "scenario_from_dict", "load_scenario",
    "validate_compiled", "spec_duration_us",
]
