"""Multi-seed replication utilities.

Single-seed results of a packet simulator can hinge on hash luck (one
ECMP collision more or less).  :func:`replicate` runs a metric extractor
across seeds and reports distribution statistics, so benchmarks and tests
can assert on means instead of single draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.harness.report import NUMBER, field_problems


@dataclass(frozen=True)
class ReplicatedStat:
    """Summary of one metric across replicated runs."""

    name: str
    values: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return sum(self.values) / self.n

    @property
    def std(self) -> float:
        """Sample standard deviation (0.0 for n < 2)."""
        if self.n < 2:
            return 0.0
        mean = self.mean
        return math.sqrt(sum((v - mean) ** 2 for v in self.values)
                         / (self.n - 1))

    @property
    def min(self) -> float:
        return min(self.values)

    @property
    def max(self) -> float:
        return max(self.values)

    def ci95_halfwidth(self) -> float:
        """~95% normal-approximation confidence half-width."""
        if self.n < 2:
            return 0.0
        return 1.96 * self.std / math.sqrt(self.n)

    def __str__(self) -> str:
        return (f"{self.name}: {self.mean:.4g} ± "
                f"{self.ci95_halfwidth():.2g} "
                f"[{self.min:.4g}, {self.max:.4g}] (n={self.n})")


def _evaluate_seeds(extractor: Callable[[int], object],
                    seeds: Sequence[int], *, value_type: type,
                    workers: int = 1, **runner_opts) -> list:
    """One ``extractor(seed)`` evaluation per seed, in seed order.

    With ``workers>1`` the per-seed runs fan out across the job runner
    (per-seed subprocess isolation, crash retry, and whatever other
    :class:`~repro.harness.jobs.JobRunner` keywords ``runner_opts``
    carries — ``timeout_s``, ``checkpoint``, ``cache``, ...) — provided
    the extractor is importable from a worker (a module-level function).
    Lambdas and closures cannot cross a process boundary, so they fall
    back to the serial path.  A job result whose ``value`` is missing or
    not a ``value_type`` (a stale or corrupted run-cache row) is one
    ``ValueError`` naming its seed.
    """
    from repro.harness.jobs import (JobSpec, callable_target,
                                    raise_on_failures, run_jobs)

    if not seeds:
        raise ValueError("need at least one seed")
    target = callable_target(extractor) if workers > 1 else None
    if target is None:
        return [extractor(s) for s in seeds]
    specs = [JobSpec(kind="callable", seed=s,
                     params={"target": target},
                     label=f"{target} seed={s}") for s in seeds]
    outcomes = run_jobs(specs, workers=workers, **runner_opts)
    raise_on_failures(outcomes)
    values = []
    for spec in specs:
        result = outcomes[spec.spec_hash].result
        problems = field_problems(result, ("value",),
                                  types={"value": value_type})
        if problems:
            raise ValueError(f"malformed result of {target} for seed "
                             f"{spec.seed}: {problems[0]}")
        values.append(result["value"])
    return values


def replicate(metric: Callable[[int], float], *,
              seeds: Sequence[int] = (1, 2, 3, 4, 5),
              name: str = "metric", **runner_opts) -> ReplicatedStat:
    """Evaluate ``metric(seed)`` across seeds (``runner_opts``: see
    :func:`_evaluate_seeds`)."""
    values = _evaluate_seeds(metric, seeds, value_type=NUMBER,
                             **runner_opts)
    return ReplicatedStat(name, tuple(float(v) for v in values))


def replicate_many(metrics: Callable[[int], dict], *,
                   seeds: Sequence[int] = (1, 2, 3, 4, 5),
                   **runner_opts) -> dict[str, ReplicatedStat]:
    """Evaluate a dict-returning extractor across seeds.

    One simulation per seed; every key of the returned dict becomes a
    :class:`ReplicatedStat`.
    """
    rows = _evaluate_seeds(metrics, seeds, value_type=dict,
                           **runner_opts)
    keys = rows[0].keys()
    for row in rows[1:]:
        if row.keys() != keys:
            raise ValueError("metric keys differ across seeds")
    return {key: ReplicatedStat(key, tuple(float(r[key]) for r in rows))
            for key in keys}
