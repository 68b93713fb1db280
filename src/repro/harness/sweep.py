"""Fig. 5 parameter sweep: schemes x DCQCN (TI, TD) configurations.

Every (condition, scheme) cell is an independent simulation, so the
sweep expands into :class:`~repro.harness.jobs.JobSpec` units and runs
on the job runner: ``workers=1`` (the default) is the original serial
path, ``workers>1`` fans cells out across per-job subprocesses, and a
``checkpoint`` path makes an interrupted sweep resumable.  Aggregation
iterates the spec grid in deterministic (condition, scheme) order — not
completion order — so parallel results are bitwise-identical to serial.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

from repro.harness.collective_runner import CollectiveRunResult, EvalScale
from repro.harness.jobs import JobSpec, raise_on_failures, run_jobs

#: The five (TI, TD) pairs of Fig. 5, in microseconds; (900, 4) is the
#: vendor-recommended configuration.
DCQCN_SWEEP: tuple[tuple[float, float], ...] = (
    (900, 4), (300, 4), (10, 4), (10, 50), (10, 200))

DEFAULT_SCHEMES = ("ecmp", "ar", "themis")


@dataclass
class SweepResult:
    """All conditions of one Fig. 5 panel."""

    collective: str
    #: (ti_us, td_us) -> scheme -> run result
    runs: dict[tuple[float, float], dict[str, CollectiveRunResult]] \
        = field(default_factory=dict)

    def tail_ms(self, ti_td: tuple[float, float], scheme: str) -> float:
        return self.runs[ti_td][scheme].tail_completion_ms

    def improvement_over(self, baseline: str, scheme: str,
                         ti_td: tuple[float, float]) -> float:
        """Relative completion-time reduction of ``scheme`` vs baseline
        (positive = faster), the paper's "X% lower" statistic."""
        base = self.tail_ms(ti_td, baseline)
        ours = self.tail_ms(ti_td, scheme)
        if base <= 0:
            return 0.0
        return 1.0 - ours / base

    def improvement_range(self, baseline: str = "ar",
                          scheme: str = "themis") -> tuple[float, float]:
        values = [self.improvement_over(baseline, scheme, cond)
                  for cond in self.runs]
        return (min(values), max(values))


def sweep_job_specs(collective: str = "allreduce", *,
                    schemes: Sequence[str] = DEFAULT_SCHEMES,
                    conditions: Sequence[tuple[float, float]] = DCQCN_SWEEP,
                    scale: Optional[EvalScale] = None,
                    bytes_per_group: Optional[int] = None,
                    seed: int = 1) -> list[JobSpec]:
    """Expand one Fig. 5 panel into self-describing job specs.

    The :class:`EvalScale` is resolved *here* (including the
    ``REPRO_EVAL_SCALE`` environment override) and baked into each spec,
    so workers never consult the environment and a checkpoint replays
    identically wherever it is resumed.
    """
    scale = scale or EvalScale.from_env()
    specs = []
    for ti_us, td_us in conditions:
        for scheme in schemes:
            specs.append(JobSpec(
                kind="collective", seed=seed,
                params={"scheme": scheme,
                        "ti_us": float(ti_us), "td_us": float(td_us),
                        "collective": collective,
                        "bytes_per_group": bytes_per_group,
                        "scale": asdict(scale)},
                label=(f"{collective}/{scheme} "
                       f"TI={ti_us:g}us TD={td_us:g}us seed={seed}")))
    return specs


def run_fig5_sweep(collective: str = "allreduce", *,
                   schemes: Sequence[str] = DEFAULT_SCHEMES,
                   conditions: Sequence[tuple[float, float]] = DCQCN_SWEEP,
                   scale: Optional[EvalScale] = None,
                   bytes_per_group: Optional[int] = None,
                   seed: int = 1, **runner_opts) -> SweepResult:
    """Run every (condition, scheme) cell of one Fig. 5 panel.

    ``runner_opts`` are :class:`~repro.harness.jobs.JobRunner` keywords
    (``workers``, ``timeout_s``, ``retries``, ``checkpoint``, ``cache``,
    ``counters``, ``progress``).
    """
    specs = sweep_job_specs(collective, schemes=schemes,
                            conditions=conditions, scale=scale,
                            bytes_per_group=bytes_per_group, seed=seed)
    outcomes = run_jobs(specs, **runner_opts)
    raise_on_failures(outcomes)

    result = SweepResult(collective)
    runs = (CollectiveRunResult(**outcomes[spec.spec_hash].result)
            for spec in specs)  # spec order = (condition, scheme) order
    for ti_us, td_us in conditions:
        result.runs[(ti_us, td_us)] = {scheme: next(runs)
                                       for scheme in schemes}
    return result
