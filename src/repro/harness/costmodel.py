"""Analytical per-event-class cost model for the simulation engine.

The benchmark harness tracks *aggregate* events/sec per scenario, which
answers "did we get slower" but not "what got slower".  This module fits
a linear cost model

    wall_time  =  sum over event classes c of  (count_c * cost_c)

where an **event class** is the dispatched callback's qualname
(``Port._pump``, ``Switch.receive``, ``SenderQp._rto_fire``, ...) — the
natural unit of work in the engine, observable with zero intrusion via
the engines' ``trace`` hook.

Fitting (one calibration run)
-----------------------------
A calibration scenario runs once with a **timing trace**: the trace hook
timestamps every dispatch, so the gap between consecutive hook calls is
event *n*'s cost (dispatch + its slice of engine-loop bookkeeping).  The
instrumentation inflates every event by a near-constant amount, so the
per-class means are rescaled by ``alpha = untraced_wall / traced_wall``
measured on the same scenario — uniform inflation cancels in the ratio.

Prediction
----------
A scenario's **event mix** (class -> count) is measured with a cheap
counting trace; the model predicts its wall time and events/sec from the
mix alone.  Residuals on the non-calibration scenarios are the model's
honest generalization error — the bench harness records them in
``BENCH_engine.json`` and CI checks they stay within tolerance, so a
perf regression localizes to the event class whose fitted cost moved
instead of being one opaque aggregate number.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

#: Scenarios the per-class costs are fitted on (pooled, count-weighted
#: when more than one).  alltoall exercises every hot class (spray,
#: reordering, delayed ACKs, CC timers) at the highest event *density*
#: (hundreds of events per claimed calendar bucket), so its per-class
#: means carry almost no per-batch overhead — the structural terms are
#: fitted separately from the sparse scenarios' walls.
CALIBRATION_SCENARIOS = ("alltoall",)

#: Relative prediction error allowed per scenario (CI gate).
DEFAULT_TOLERANCE = 0.15


@dataclass
class CostModel:
    """Fitted per-event-class costs (nanoseconds of wall time each).

    Two *structural* terms cover engine work not proportional to any
    event count:

    * ``batch_cost_ns`` — wall ns per claimed calendar bucket (the
      batched drain's claim + sort + bound hoisting).  Dense scenarios
      amortize it over hundreds of events per bucket; sparse ones
      (incast's few events per 64 ns window) pay it per handful, which
      is exactly why a pure event-mix model over-predicts them.
    * ``time_cost`` — wall ns per *simulated* ns.  The sparse calendar
      does no work per empty bucket, so this fits to ~0; it stays as
      the second regressor of the two-anchor fit.
    """

    costs_ns: dict[str, float]
    #: Mean event cost — used for classes unseen during calibration.
    default_cost_ns: float
    calibration_scenario: str
    #: Instrumentation rescale applied to the raw timed means.
    alpha: float
    #: Wall ns per claimed calendar bucket (``Simulator.batches``).
    batch_cost_ns: float = 0.0
    #: Wall ns per simulated ns (engine time-advance overhead).
    time_cost: float = 0.0
    tolerance: float = DEFAULT_TOLERANCE

    def predict_wall_s(self, mix: dict[str, int],
                       sim_time_ns: int = 0, batches: int = 0) -> float:
        costs = self.costs_ns
        default = self.default_cost_ns
        total_ns = (self.batch_cost_ns * batches
                    + self.time_cost * sim_time_ns)
        for name, count in mix.items():
            total_ns += count * costs.get(name, default)
        return total_ns * 1e-9

    def predict_events_per_sec(self, mix: dict[str, int],
                               sim_time_ns: int = 0,
                               batches: int = 0) -> float:
        wall = self.predict_wall_s(mix, sim_time_ns, batches)
        events = sum(mix.values())
        return events / wall if wall > 0 else 0.0

    def to_json(self) -> dict:
        return {
            "calibration_scenario": self.calibration_scenario,
            "alpha": round(self.alpha, 4),
            "default_cost_ns": round(self.default_cost_ns, 1),
            "batch_cost_ns": round(self.batch_cost_ns, 1),
            "time_cost_wall_ns_per_sim_ns": round(self.time_cost, 6),
            "tolerance": self.tolerance,
            "costs_ns": {name: round(cost, 1) for name, cost
                         in sorted(self.costs_ns.items(),
                                   key=lambda kv: -kv[1])},
        }

    @classmethod
    def from_json(cls, doc: dict) -> "CostModel":
        return cls(costs_ns=dict(doc["costs_ns"]),
                   default_cost_ns=doc["default_cost_ns"],
                   calibration_scenario=doc["calibration_scenario"],
                   alpha=doc["alpha"],
                   batch_cost_ns=doc.get("batch_cost_ns", 0.0),
                   time_cost=doc.get("time_cost_wall_ns_per_sim_ns", 0.0),
                   tolerance=doc.get("tolerance", DEFAULT_TOLERANCE))


# ----------------------------------------------------------------------
# Measurement primitives (in-process; the ratio-based fit cancels the
# constant instrumentation overhead, so process isolation buys nothing)
# ----------------------------------------------------------------------
def measure_mix(scenario: str, *, quick: bool = False
                ) -> tuple[Counter, int, int, int]:
    """Count executed events per callback class (cheap counting trace).

    Returns ``(mix, executed_events, sim_time_ns, batches)`` —
    everything the model needs to predict the scenario.  All four are
    deterministic, so one counting run prices the scenario forever.
    """
    from repro.harness.bench import BUILDERS, DEADLINE_NS

    net = BUILDERS[scenario](quick, None)
    counts: Counter = Counter()

    def trace(t, seq, callback) -> None:
        counts[callback.__qualname__] += 1

    net.sim.trace = trace
    net.run(until_ns=DEADLINE_NS)
    executed = net.sim.executed
    sim_time_ns = net.traffic.end_ns
    batches = net.sim.batches
    net.stop()
    return counts, executed, sim_time_ns, batches


def _timed_run(scenario: str, *, quick: bool
               ) -> tuple[dict, Counter, float]:
    """Timing-trace run: per-class accumulated wall seconds + counts.

    :class:`repro.obs.profile.Profiler` charges the gap between
    consecutive trace callbacks to the earlier event, so the per-class
    sums add up to (nearly) the whole loop wall time, engine bookkeeping
    included.
    """
    from repro.harness.bench import BUILDERS, DEADLINE_NS, gc_paused
    from repro.obs.profile import Profiler

    net = BUILDERS[scenario](quick, None)
    with gc_paused(), Profiler(net.sim) as prof:
        start = time.perf_counter()
        net.run(until_ns=DEADLINE_NS)
        wall = time.perf_counter() - start
    net.stop()
    acc = {name: stats.total_s for name, stats in prof.stats.items()}
    counts = Counter({name: stats.calls
                      for name, stats in prof.stats.items()})
    return acc, counts, wall


def _fit_structural(gaps: list[tuple[float, int, int]]
                    ) -> tuple[float, float]:
    """Fit (batch_cost_ns, time_cost) from per-scenario residual gaps.

    ``gaps`` holds ``(gap_ns, batches, sim_time_ns)`` — the wall time a
    scenario's event mix alone fails to explain, with the two structural
    regressors.  Exact solve for two anchors, least squares otherwise;
    negative solutions are clamped by refitting with the other term
    alone (a cost below zero is noise, not physics).
    """
    sbb = sum(b * b for _, b, _ in gaps)
    stt = sum(t * t for _, _, t in gaps)
    sbt = sum(b * t for _, b, t in gaps)
    sgb = sum(g * b for g, b, _ in gaps)
    sgt = sum(g * t for g, _, t in gaps)
    det = sbb * stt - sbt * sbt
    if det > 0:
        batch_cost = (sgb * stt - sgt * sbt) / det
        time_cost = (sbb * sgt - sbt * sgb) / det
        if batch_cost >= 0 and time_cost >= 0:
            return batch_cost, time_cost
    batch_only = max(0.0, sgb / sbb) if sbb else 0.0
    time_only = max(0.0, sgt / stt) if stt else 0.0

    def sse(bc: float, tc: float) -> float:
        return sum((g - bc * b - tc * t) ** 2 for g, b, t in gaps)

    # Pick the single-term fit with the smaller squared residual.
    if sse(batch_only, 0.0) <= sse(0.0, time_only):
        return batch_only, 0.0
    return 0.0, time_only


def calibrate(scenarios, *, quick: bool, untraced_walls: dict,
              anchors: list[tuple],
              tolerance: float = DEFAULT_TOLERANCE) -> CostModel:
    """Fit per-class costs from timed runs of *scenarios* (pooled).

    Each class's cost is its count-weighted mean over all calibration
    runs; the instrumentation rescale ``alpha`` is the pooled
    untraced/traced wall ratio.  ``untraced_walls`` maps scenario name
    to its benched wall time without any trace hook.

    The structural terms (per-batch and per-sim-ns costs) are fitted
    from ``anchors``, ``[(wall_s, mix, sim_time_ns, batches), ...]`` of
    scenarios whose wall time the event mix alone cannot explain —
    batch-sparse (incast) and time-sparse (lossy) ones; empty disables
    the terms.
    """
    acc: Counter = Counter()     # class -> traced wall seconds
    counts: Counter = Counter()
    traced_total = 0.0
    untraced_total = 0.0
    for scenario in scenarios:
        run_acc, run_counts, traced_wall = _timed_run(scenario,
                                                      quick=quick)
        acc.update(run_acc)
        counts.update(run_counts)
        traced_total += traced_wall
        untraced_total += untraced_walls[scenario]
    alpha = untraced_total / traced_total if traced_total > 0 else 1.0
    costs_ns = {name: alpha * seconds / counts[name] * 1e9
                for name, seconds in acc.items() if counts[name]}
    total_events = sum(counts.values())
    default = (alpha * traced_total / total_events * 1e9
               if total_events else 0.0)
    model = CostModel(costs_ns=costs_ns, default_cost_ns=default,
                      calibration_scenario="+".join(scenarios),
                      alpha=alpha, tolerance=tolerance)
    gaps = []
    for wall_s, mix, sim_time_ns, batches in anchors:
        gap_ns = (wall_s - model.predict_wall_s(mix)) * 1e9
        gaps.append((gap_ns, batches, sim_time_ns))
    if gaps:
        model.batch_cost_ns, model.time_cost = _fit_structural(gaps)
    return model


def validate(model: CostModel, actuals: dict[str, dict],
             infos: dict[str, tuple]) -> list[dict]:
    """Predict each scenario in *actuals* and report the residuals.

    ``actuals`` maps scenario name to its benched result dict (needs
    ``events_per_sec``); ``infos`` maps it to its :func:`measure_mix`
    result.  Returns one row per scenario with the prediction, the
    measurement, and whether the error is within the model's tolerance.
    """
    rows: list[dict] = []
    for name, result in actuals.items():
        mix, _, sim_time_ns, batches = infos[name]
        predicted = model.predict_events_per_sec(mix, sim_time_ns,
                                                 batches)
        actual = result["events_per_sec"]
        error = predicted / actual - 1.0 if actual else 0.0
        rows.append({
            "scenario": name,
            "predicted_events_per_sec": round(predicted),
            "actual_events_per_sec": actual,
            "error_pct": round(100.0 * error, 1),
            "ok": abs(error) <= model.tolerance,
        })
    return rows


# ----------------------------------------------------------------------
# Regression attribution (CI)
# ----------------------------------------------------------------------
def residual_table(current: dict, baseline: dict, *,
                   top: int = 12) -> list[str]:
    """Per-class cost comparison: which event class got slower?

    Takes the ``cost_model`` JSON blocks of the current run and the
    tracked baseline.  Absolute costs differ across machines, so each
    class's cost ratio is normalized by the *median* ratio (the
    machine-speed factor); classes well above 1.0 after normalization
    are the ones that regressed.  Returns printable table lines, widest
    offenders first, limited to the *top* costliest classes.
    """
    cur_costs = current.get("costs_ns", {})
    base_costs = baseline.get("costs_ns", {})
    shared = sorted(set(cur_costs) & set(base_costs),
                    key=lambda n: -cur_costs[n])
    if not shared:
        return ["cost model: no shared event classes with baseline"]
    ratios = {name: cur_costs[name] / base_costs[name]
              for name in shared if base_costs[name] > 0}
    if not ratios:
        return ["cost model: baseline costs are all zero"]
    ordered = sorted(ratios.values())
    machine = ordered[len(ordered) // 2]  # median = machine-speed factor
    lines = [
        f"per-class cost residuals (machine factor {machine:.2f}x, "
        f"normalized out):",
        f"  {'event class':<36} {'base ns':>9} {'now ns':>9} "
        f"{'norm ratio':>10}",
    ]
    rows = [(name, base_costs[name], cur_costs[name],
             ratios[name] / machine if machine > 0 else 0.0)
            for name in shared[:top] if name in ratios]
    rows.sort(key=lambda r: -r[3])
    for name, base, cur, norm in rows:
        flag = "  <-- slower" if norm > 1.15 else ""
        lines.append(f"  {name:<36} {base:>9.0f} {cur:>9.0f} "
                     f"{norm:>9.2f}x{flag}")
    return lines
