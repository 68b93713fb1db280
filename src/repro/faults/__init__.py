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

Import names from their modules: ``spec`` has no heavy dependencies,
while the injector and campaign layers pull in the network stack and
the harness.
"""
