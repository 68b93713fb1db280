"""The performance ledger: one command, every metric by name and unit.

    python3 benchmarks/ledger/run.py                      # whole suite
    python3 benchmarks/ledger/run.py --workload themis_lossy --seed 3
    python3 benchmarks/ledger/run.py --workload themis_lossy --trace 1
    python3 benchmarks/ledger/run.py compare A.json B.json

Names, units, directions and regression bounds live in ``BENCHMARK.json``
at the repository root; this file only measures.  Every repetition is a
fresh ``worker.py`` process and the parent never runs two at once (the box
has two cores).  With ``--workload`` the last line printed is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Failed output checks are reported there, not through the exit code; the
exit code is non-zero only when the harness itself could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKER = os.path.join(HERE, "worker.py")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: Repetitions of one driver-mode run, whatever ``--seconds`` says: the
#: medians reported need at least this many samples.
MIN_REPS = 3
#: Suite-mode defaults (``--reps`` overrides all three).
SUITE_REPS = {"arena_pipeline": 5, "arena_warm": 5, "dashboard_serve": 3}
SUITE_REPS_DEFAULT = 7
#: The two workloads whose tails give the Fig. 5a fidelity check.
FIDELITY_PAIR = ("themis_allreduce", "ar_allreduce")
#: What the workers' reference loop takes on the box the baseline was
#: recorded on; host times are scaled by ``REFERENCE_S / measured`` so a
#: slow phase of the shared machine does not read as a slow program.
REFERENCE_S = 0.25
#: A worker that has not answered by then is a harness error.
WORKER_TIMEOUT_S = 170


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not a failed output check)."""


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Workers
# ----------------------------------------------------------------------
def run_worker(workload: str, seed: int, *flags: str) -> dict:
    """One fresh worker process; returns the object it printed last."""
    cmd = [sys.executable, WORKER, "--workload", workload,
           "--seed", str(seed), *flags]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"worker timed out: {' '.join(cmd)}") from None
    if proc.returncode != 0:
        raise HarnessError(f"worker failed ({proc.returncode}): "
                           f"{' '.join(cmd)}\n{proc.stderr[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise HarnessError(f"worker printed no result: {' '.join(cmd)}\n"
                           f"{proc.stdout[-500:]}") from None


def _flags(smoke: bool, *extra: str) -> list[str]:
    return (["--smoke"] if smoke else []) + list(extra)


# ----------------------------------------------------------------------
# From repetitions to metrics
# ----------------------------------------------------------------------
def steady(rep: dict, seconds: float) -> float:
    """Host seconds of one repetition, scaled to a machine on which the
    reference loop that bracketed its timed region takes ``REFERENCE_S``."""
    return seconds * REFERENCE_S / rep["ref_s"]


def end_to_end_samples(reps: list[dict]) -> dict[str, list[float]]:
    walls = [steady(r, r["wall_s"]) for r in reps]
    return {"setup_s": [steady(r, r["setup_s"]) for r in reps],
            "wall_s": walls,
            "work_per_s": [r["work"] / wall for r, wall in zip(reps, walls)],
            "peak_rss_mb": [r["peak_rss_mb"] for r in reps]}


def summarize(values: list[float]) -> dict:
    """Median, quartiles and n — how every host-time metric is reported."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def problems_of(reps: list[dict]) -> list[str]:
    """Every repetition's own problems plus the cross-repetition check."""
    import check
    found = [f"rep {i}: {p}" for i, r in enumerate(reps, start=1)
             for p in r["problems"]]
    return found + check.repetitions(reps)


def tally(reps: list[dict], problems: list[str]) -> tuple[int, int]:
    """(attempted, failed) operations; a problem no repetition counted as
    its own failure (a cross-repetition or fidelity one) still fails."""
    return (sum(r["attempted"] for r in reps),
            sum(r["failed"] for r in reps) or len(problems))


def per_layer_metrics(spec: dict, workload: str, seed: int, smoke: bool,
                      untraced: list[dict], trace_out: str | None
                      ) -> tuple[dict[str, float], list[str], list[dict]]:
    """The traced half of a workload: one traced repetition, the layer
    micro-benchmarks that belong to it, and (where defined) the recorder
    and fidelity runs.  Returns (metrics, problems, extra repetitions)."""
    import check
    from tracing import SIM_LAYERS

    metrics = {m["name"]: 0 for m in spec["per_layer"]}
    problems: list[str] = []
    wall = statistics.median(steady(r, r["wall_s"]) for r in untraced)
    first = untraced[0]

    def put(name: str, value) -> None:
        if name not in metrics:
            raise HarnessError(f"metric {name!r} is not in BENCHMARK.json")
        metrics[name] = value if value is not None else 0

    for name, value in first["counts"].items():
        put(name, value)
    for name in first["stages"]:
        put(name, statistics.median(r["stages"][name] for r in untraced))
    put("sim.events_per_s", first["counts"]["sim.events"] / wall)
    put("host.wall_raw_s", statistics.median(r["wall_s"] for r in untraced))
    put("host.ref_loop_s", statistics.median(r["ref_s"] for r in untraced))

    traced = run_worker(workload, seed, *_flags(
        smoke, "--traced", *(["--trace-out", trace_out] if trace_out else [])))
    for layer, row in traced["layers"].items():
        for field, value in row.items():
            put(f"{layer}.{field}", value)
    put("sim.share", sum(traced["layers"][layer]["share"]
                         for layer in SIM_LAYERS))
    put("trace.overhead_ratio", steady(traced, traced["wall_s"]) / wall)
    if "results.serve.http_overhead_ms" in traced["stages"]:
        put("results.serve.http_overhead_ms",
            traced["stages"]["results.serve.http_overhead_ms"])
    extra = [traced]

    if workload == "spray_alltoall":
        recorded = run_worker(workload, seed, *_flags(smoke, "--recorder"))
        put("obs.trace_overhead_ratio",
            steady(recorded, recorded["wall_s"]) / wall)
        extra.append(recorded)
    if workload in FIDELITY_PAIR and not smoke:
        twin_name = FIDELITY_PAIR[1 - FIDELITY_PAIR.index(workload)]
        twin = run_worker(twin_name, seed)
        problems += [f"{twin_name}: {p}" for p in twin["problems"]]
        tails = {workload: first["counts"]["sim.tail_ns"],
                 twin_name: twin["counts"]["sim.tail_ns"]}
        if all(tails.values()):
            reduction, out_of_band = check.fidelity(*(tails[name]
                                                      for name in FIDELITY_PAIR))
            put("fidelity.fig5a_reduction", reduction)
            problems += out_of_band

    micro = run_worker(workload, seed, *_flags(smoke, "--layers"))["micro"]
    for name, value in micro.items():
        put(name, value)
    return metrics, problems, extra


# ----------------------------------------------------------------------
# Driver mode: one workload, one JSON line
# ----------------------------------------------------------------------
def run_one(args, spec: dict) -> int:
    # A traced run spends half its time on untraced repetitions (the
    # reference for counts and overhead), the rest on the traced half.
    budget_s, min_reps = ((0, 1) if args.smoke
                          else (args.seconds / 2, 2) if args.trace
                          else (args.seconds, MIN_REPS))
    deadline = time.perf_counter() + budget_s
    reps: list[dict] = []
    while len(reps) < min_reps or time.perf_counter() < deadline:
        reps.append(run_worker(args.workload, args.seed,
                               *_flags(args.smoke)))

    checked = list(reps)
    if args.trace:
        values, problems, extra = per_layer_metrics(
            spec, args.workload, args.seed, args.smoke, reps, args.trace_out)
        checked += extra
        section = spec["per_layer"]
    else:
        values = {name: statistics.median(samples)
                  for name, samples in end_to_end_samples(reps).items()}
        problems = []
        section = spec["end_to_end"]
    problems += problems_of(checked)

    units = {m["name"]: m["unit"] for m in section}
    for problem in problems:
        print(f"PROBLEM {problem}")
    print(f"# {args.workload} seed={args.seed} reps={len(reps)} "
          f"trace={args.trace}")
    for name, unit in units.items():
        print(f"{name:<40} {values[name]:>16.6g} {unit}")
    attempted, failed = tally(checked, problems)
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


# ----------------------------------------------------------------------
# Suite mode: every workload, interleaved
# ----------------------------------------------------------------------
def run_suite(args, spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]]
    if args.only:
        names = [n for n in names if n in args.only]
    reps_for = {n: 1 if args.smoke else
                (args.reps or SUITE_REPS.get(n, SUITE_REPS_DEFAULT))
                for n in names}
    reps: dict[str, list[dict]] = {n: [] for n in names}
    # Round-robin: rep 1 of every workload, then rep 2, ... so a slow phase
    # of the shared machine lands on all workloads, not on one.
    for round_no in range(max(reps_for.values())):
        for name in names:
            if round_no < reps_for[name]:
                reps[name].append(run_worker(name, args.seed,
                                             *_flags(args.smoke)))
                last = reps[name][-1]
                print(f"  rep {round_no + 1}/{reps_for[name]} {name}: "
                      f"wall {last['wall_s']:.3f} s raw, reference loop "
                      f"{last['ref_s']:.3f} s", file=sys.stderr)

    doc = {"meta": {"python": platform.python_version(),
                    "nproc": os.cpu_count(), "seed": args.seed,
                    "smoke": args.smoke,
                    "date": time.strftime("%Y-%m-%d")},
           "workloads": {}}
    for name in names:
        entry = {"end_to_end": {m: summarize(v) for m, v in
                                end_to_end_samples(reps[name]).items()}}
        checked = list(reps[name])
        problems: list[str] = []
        if not args.no_trace:
            trace_out = (os.path.join(args.trace_dir, f"{name}.trace.json")
                         if args.trace_dir else None)
            entry["per_layer"], problems, extra = per_layer_metrics(
                spec, name, args.seed, args.smoke, reps[name], trace_out)
            checked += extra
        problems += problems_of(checked)
        entry["attempted"], entry["failed"] = tally(checked, problems)
        entry["problems"] = problems
        doc["workloads"][name] = entry
    print_suite(doc, spec)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


def print_suite(doc: dict, spec: dict) -> None:
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, entry in doc["workloads"].items():
        print(f"\n== {name}  (ops attempted {entry['attempted']}, "
              f"ops_failed {entry['failed']})")
        for problem in entry["problems"]:
            print(f"   PROBLEM {problem}")
        for metric, s in entry["end_to_end"].items():
            print(f"   {metric:<38} {s['median']:>14.6g} {e2e_units[metric]:<6}"
                  f" [q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']}]")
        for metric, value in entry.get("per_layer", {}).items():
            if value:
                print(f"   {metric:<38} {value:>14.6g} {layer_units[metric]}")


# ----------------------------------------------------------------------
# compare: apply BENCHMARK.json's bounds to two suite result files
# ----------------------------------------------------------------------
def compare(path_a: str, path_b: str, spec: dict) -> int:
    """Per workload x end-to-end metric: ``ok``, ``regressed`` (B's median
    is worse than A's by more than the bound and the quartile ranges do
    not overlap) or ``unresolved`` (worse by more than the bound, but the
    ranges overlap).  Exact counts must be identical."""
    with open(path_a) as fh:
        doc_a = json.load(fh)["workloads"]
    with open(path_b) as fh:
        doc_b = json.load(fh)["workloads"]
    from check import COUNT_NAMES

    verdicts = {"ok": 0, "regressed": 0, "unresolved": 0, "count-differs": 0}
    for name in doc_a:
        if name not in doc_b:
            continue
        cells = []
        for metric in spec["end_to_end"]:
            a = doc_a[name]["end_to_end"][metric["name"]]
            b = doc_b[name]["end_to_end"][metric["name"]]
            sign = 1 if metric["better"] == "lower" else -1
            worse_by = sign * (b["median"] - a["median"]) / a["median"]
            if worse_by <= metric["bound"]:
                verdict = "ok"
            elif a["q1"] <= b["q3"] and b["q1"] <= a["q3"]:
                verdict = "unresolved"
            else:
                verdict = "regressed"
            verdicts[verdict] += 1
            cells.append(f"{metric['name']} {verdict} ({worse_by:+.1%})")
        layers_a = doc_a[name].get("per_layer", {})
        layers_b = doc_b[name].get("per_layer", {})
        differing = [c for c in COUNT_NAMES
                     if c in layers_a and c in layers_b
                     and layers_a[c] != layers_b[c]]
        verdicts["count-differs"] += len(differing)
        failed = doc_a[name]["failed"] + doc_b[name]["failed"]
        print(f"{name:<18} " + "  ".join(cells)
              + f"  counts {'identical' if not differing else differing}"
              + f"  ops_failed {failed}")
    print(" ".join(f"{k}={v}" for k, v in verdicts.items()))
    return 0


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("benchmarks/ledger: no src/repro next to the benchmark; "
              "run it from a checkout of the repository", file=sys.stderr)
        return 2
    spec = load_spec()
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2], spec)

    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="run one workload and end with one JSON line")
    parser.add_argument("--seed", type=int, default=7,
                        help="workload seed (NetworkConfig.seed / JobSpec.seed)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="with --workload: keep repeating for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 = per-layer metrics")
    parser.add_argument("--trace-out", default=None,
                        help="with --trace 1: write the harness spans here")
    parser.add_argument("--reps", type=int, default=None,
                        help="suite: repetitions of every workload")
    parser.add_argument("--only", nargs="+", choices=names,
                        help="suite: just these workloads")
    parser.add_argument("--no-trace", action="store_true",
                        help="suite: skip traced runs and micro-benchmarks")
    parser.add_argument("--trace-dir", default=None,
                        help="suite: write <workload>.trace.json files here")
    parser.add_argument("--out", default=None,
                        help="suite: write the result document here")
    parser.add_argument("--smoke", action="store_true",
                        help="messages 100x smaller, 1 repetition (tests)")
    args = parser.parse_args(argv)
    try:
        if args.workload:
            return run_one(args, spec)
        return run_suite(args, spec)
    except HarnessError as exc:
        print(f"benchmarks/ledger: {exc}", file=sys.stderr)
        return 1
    finally:
        tmp = os.path.join(ROOT, ".ledger_tmp")
        if os.path.isdir(tmp) and not os.listdir(tmp):
            os.rmdir(tmp)


if __name__ == "__main__":
    sys.exit(main())
