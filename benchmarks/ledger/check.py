"""Output checks: one function per workload, each returning a list of
problems (the ``validate_arena_doc`` idiom).  Nothing here raises on a bad
result — a repetition with problems is a failed operation that the ledger
counts and reports, so one wrong number never hides the others.
"""

from __future__ import annotations

import json

#: Exact simulated counts every repetition reports (README, "per-layer
#: metrics (a)").  Pipeline workloads fill the ones their documents carry.
COUNT_NAMES = (
    "sim.events", "sim.batches", "sim.tail_ns", "sim.fingerprint",
    "sim.events_per_pkt", "sim.events_per_batch",
    "rnic.data_pkts_sent", "rnic.retransmissions", "rnic.nacks_generated",
    "rnic.acks_generated", "rnic.ooo_arrivals", "cc.cnps_generated",
    "switch.ecn_marks", "net.port.drops",
    "themis.nacks_inspected", "themis.nacks_blocked",
    "themis.nacks_forwarded", "themis.nacks_compensated",
    "themis.queue_overflows", "themis.tpsn_not_found")

#: Paper Fig. 5a: Themis' allreduce tail is 15.6 %-75.3 % below AR's.
FIG5A_BAND = (0.156, 0.753)


def _completed(result: dict) -> list[str]:
    if result["counts"]["sim.tail_ns"] is None:
        return ["did not finish before the simulated-time deadline"]
    return []


def themis_bypassed(result: dict) -> list[str]:
    """spray_alltoall and ar_allreduce: finished, and Themis stayed out."""
    problems = _completed(result)
    inspected = result["counts"]["themis.nacks_inspected"]
    if inspected:
        problems.append(f"Themis-D inspected {inspected} NACKs on a fabric "
                        "that does not install it")
    return problems


def themis_allreduce(result: dict) -> list[str]:
    problems = _completed(result)
    counts = result["counts"]
    if not counts["themis.nacks_inspected"] and not result["smoke"]:
        problems.append("Themis-D inspected no NACK: the workload no "
                        "longer exercises validation")
    if counts["net.port.drops"] == 0:
        # Loss-free: every NACK is reordering, so none may reach a sender
        # and none may be compensated.
        if counts["themis.nacks_compensated"]:
            problems.append(f"{counts['themis.nacks_compensated']} NACKs "
                            "compensated without a single drop")
        if counts["themis.nacks_blocked"] != counts["themis.nacks_inspected"]:
            problems.append(
                f"{counts['themis.nacks_inspected']} NACKs inspected but "
                f"{counts['themis.nacks_blocked']} blocked on a loss-free "
                "fabric")
    return problems


def themis_lossy(result: dict) -> list[str]:
    problems = _completed(result)
    counts = result["counts"]
    if not counts["net.port.drops"] and not result["smoke"]:
        problems.append("no packet was dropped: the loss injection is off")
    if (counts["themis.nacks_blocked"] + counts["themis.nacks_forwarded"]
            != counts["themis.nacks_inspected"]):
        problems.append("blocked + forwarded != inspected NACKs")
    return problems


def arena_pipeline(result: dict) -> list[str]:
    """``result['arena']`` is filled by the worker: validator output,
    cold/warm/emitted documents as canonical JSON, job counters."""
    arena = result["arena"]
    problems = [f"arena doc: {p}" for p in arena["doc_problems"]]
    if arena["cold_executed"] != arena["cells"] or arena["cold_hits"]:
        problems.append(f"cold run executed {arena['cold_executed']} of "
                        f"{arena['cells']} cells with "
                        f"{arena['cold_hits']} cache hits")
    problems += _warm_problems(arena)
    if arena["emitted_json"] != arena["cold_json"]:
        problems.append("emit_arena_doc differs from the ingested document")
    return problems


def arena_warm(result: dict) -> list[str]:
    arena = result["arena"]
    return ([f"arena doc: {p}" for p in arena["doc_problems"]]
            + _warm_problems(arena))


def _warm_problems(arena: dict) -> list[str]:
    problems = []
    if arena["warm_executed"]:
        problems.append(f"warm runs executed {arena['warm_executed']} jobs")
    if arena["warm_hits"] != arena["cells"] * arena["warm_calls"]:
        problems.append(f"warm runs hit the cache {arena['warm_hits']} "
                        f"times, expected "
                        f"{arena['cells'] * arena['warm_calls']}")
    if arena["warm_mismatches"]:
        problems.append(f"{arena['warm_mismatches']} warm documents differ "
                        "from the cold one")
    return problems


def dashboard_serve(result: dict) -> list[str]:
    serve = result["serve"]
    problems = list(serve["page_problems"])
    if serve["errors"]:
        problems.append(f"{serve['errors']} of {serve['requests']} "
                        "requests failed")
    return problems


def page_problem(path: str, status: int, ctype: str, body: bytes) -> list[str]:
    """One response: 200, HTML closes, JSON parses."""
    if status != 200:
        return [f"{path}: HTTP {status}"]
    if ctype.startswith("text/html"):
        text = body.decode()
        if not text.startswith("<!DOCTYPE html>") or "</html>" not in text:
            return [f"{path}: malformed HTML document"]
    elif ctype.startswith("application/json"):
        try:
            json.loads(body)
        except json.JSONDecodeError as exc:
            return [f"{path}: invalid JSON ({exc})"]
    return []


CHECKS = {
    "spray_alltoall": themis_bypassed,
    "themis_allreduce": themis_allreduce,
    "ar_allreduce": themis_bypassed,
    "themis_lossy": themis_lossy,
    "arena_pipeline": arena_pipeline,
    "arena_warm": arena_warm,
    "dashboard_serve": dashboard_serve,
}


def repetitions(results: list[dict]) -> list[str]:
    """Across the repetitions (traced ones included) of one workload and
    seed: every exact count must be identical."""
    problems = []
    first = results[0]["counts"]
    for i, result in enumerate(results[1:], start=2):
        for name, value in result["counts"].items():
            if value != first.get(name):
                problems.append(f"repetition {i}: {name} = {value}, "
                                f"repetition 1 had {first.get(name)}")
    return problems


def fidelity(themis_tail_ns: int, ar_tail_ns: int) -> tuple[float, list[str]]:
    """Fig. 5a: Themis' reduction of the allreduce tail against AR."""
    reduction = 1.0 - themis_tail_ns / ar_tail_ns
    low, high = FIG5A_BAND
    if not low <= reduction <= high:
        return reduction, [f"fig5a reduction {reduction:.3f} outside the "
                           f"paper's band [{low}, {high}]"]
    return reduction, []
