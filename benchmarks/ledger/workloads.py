"""The ledger's workloads: inputs generated from ``--seed``, nothing else.

Each simulation workload is a function ``(seed, smoke) -> SimRun`` that
builds a wired :class:`repro.harness.network.Network` with its traffic
posted and knows how to tell, after the run, whether everything finished
and when.  The pipeline workloads (arena, dashboard) generate their
inputs here too; the timed regions themselves live in ``worker.py``.

Fabrics are built through ``netmod.Network`` (the module attribute, looked
up at call time) so a traced worker can substitute its timing subclass —
the same seam the arena's lazily imported ``Network`` offers.

Why these workloads exist is recorded once, in ``README.md`` and in the
``why`` lines of ``BENCHMARK.json``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from repro.collectives import RingAllreduce
from repro.collectives.group import cross_rack_groups
from repro.harness.arena import QUICK_BYTES
from repro.harness.bench import DEADLINE_NS
from repro.harness.collective_runner import fig5_config
from repro.harness import network as netmod
from repro.harness.network import Network, NetworkConfig, TopologySpec
from repro.sim.engine import SEC, US
from repro.switch.switch import Switch

#: --smoke shrinks every message 100x (tests only; numbers meaningless).
SMOKE_SHRINK = 100
#: Hard simulated-time deadline of the collective workloads; the point-to-
#: point ones reuse ``repro.harness.bench.DEADLINE_NS``.  A run that has not
#: finished by then is a failed operation, never a hang.
COLLECTIVE_DEADLINE_NS = 2 * SEC

#: Warm ``run_arena`` calls timed per repetition (arena_warm) and sampled
#: after the cold run (arena_pipeline).
WARM_CALLS = 200
WARM_SAMPLES = 20
#: Copies of the quick-arena document ingested into the dashboard store.
DASHBOARD_RUNS = 20
DASHBOARD_BENCH_RUNS = 5
DASHBOARD_ROUNDS = 125


@dataclass
class SimRun:
    """A built fabric with traffic posted, ready for ``net.run``."""

    net: Network
    deadline_ns: int
    #: After the run: the simulated time the last receiver/collective
    #: finished, or ``None`` if the deadline passed first.
    tail_ns: Callable[[], Optional[int]]


def _size(nbytes: int, smoke: bool) -> int:
    return nbytes // SMOKE_SHRINK if smoke else nbytes


def _post_pairs(net: Network, pairs: list[tuple[int, int]],
                nbytes: int) -> Callable[[], Optional[int]]:
    """Post one message per pair; stop the fabric when the last receiver
    completes (as ``repro.harness.bench`` does, so the run measures the
    traffic regime and not a tail of idle timer ticks)."""
    state = {"left": len(pairs), "done_ns": None}

    def one_done() -> None:
        state["left"] -= 1
        if state["left"] == 0:
            state["done_ns"] = net.now_ns
            net.stop()

    for src, dst in pairs:
        net.post_message(src, dst, nbytes, on_receiver_done=one_done)
    return lambda: state["done_ns"]


def spray_alltoall(seed: int, smoke: bool = False,
                   recorder=None) -> SimRun:
    """``repro.harness.bench``'s ``alltoall`` scenario, seed exposed.
    ``recorder`` wires a ``repro.obs`` recorder through the fabric."""
    topo = TopologySpec(kind="leaf_spine", num_tors=16, num_spines=8,
                        nics_per_tor=2, link_bandwidth_bps=100e9,
                        link_delay_ns=US)
    net = netmod.Network(NetworkConfig(topology=topo, scheme="rps",
                                       transport="nic_sr", seed=seed),
                         recorder=recorder)
    nodes = 32
    pairs = [(s, d) for s in range(nodes) for d in range(nodes) if s != d]
    return SimRun(net, DEADLINE_NS,
                  _post_pairs(net, pairs, _size(120_000, smoke)))


def _allreduce(scheme: str, seed: int, smoke: bool) -> SimRun:
    config = fig5_config(scheme, ti_us=10, td_us=4, seed=seed)
    net = netmod.Network(config)
    spec = config.topology
    groups = cross_rack_groups(spec.num_tors, spec.nics_per_tor)
    nbytes = _size(4_000_000, smoke)
    collectives = [RingAllreduce(net, members, nbytes)
                   for members in groups]
    for coll in collectives:
        coll.start()

    def tail_ns() -> Optional[int]:
        if not all(coll.complete for coll in collectives):
            return None
        return max(coll.completion_time_ns() for coll in collectives)

    return SimRun(net, COLLECTIVE_DEADLINE_NS, tail_ns)


def themis_allreduce(seed: int, smoke: bool = False) -> SimRun:
    return _allreduce("themis", seed, smoke)


def ar_allreduce(seed: int, smoke: bool = False) -> SimRun:
    return _allreduce("ar", seed, smoke)


def themis_lossy(seed: int, smoke: bool = False) -> SimRun:
    topo = TopologySpec(kind="leaf_spine", num_tors=4, num_spines=4,
                        nics_per_tor=2, link_bandwidth_bps=100e9,
                        link_delay_ns=US)
    net = netmod.Network(NetworkConfig(topology=topo, scheme="themis",
                                       transport="nic_sr", seed=seed))
    loss_rng = net.rng.fork("bench-loss")
    for port in net.topology.tors[0].ports:
        if isinstance(port.peer, Switch):
            port.set_loss(0.01, loss_rng)
    pairs = [(i, (i + 2) % 8) for i in range(8)]
    return SimRun(net, DEADLINE_NS,
                  _post_pairs(net, pairs, _size(8_000_000, smoke)))


SIM_BUILDERS: dict[str, Callable[[int, bool], SimRun]] = {
    "spray_alltoall": spray_alltoall,
    "themis_allreduce": themis_allreduce,
    "ar_allreduce": ar_allreduce,
    "themis_lossy": themis_lossy,
}
WORKLOADS = (*SIM_BUILDERS, "arena_pipeline", "arena_warm", "dashboard_serve")


# ----------------------------------------------------------------------
# Pipeline workloads
# ----------------------------------------------------------------------
def arena_kwargs(seed: int, smoke: bool = False) -> dict:
    """Arguments of the ``run_arena`` call both arena workloads time."""
    return {"quick": True, "workers": 1, "seeds": (seed,),
            "message_bytes": _size(QUICK_BYTES, smoke)}


def synthetic_bench_docs(seed: int) -> list[dict]:
    """Bench-history documents for the dashboard's ``/bench`` page.

    Generated rather than read from ``BENCH_engine.json`` so the workload
    does not change when that file is re-recorded or retired.
    """
    rng = random.Random(seed)
    docs = []
    for _ in range(DASHBOARD_BENCH_RUNS):
        scenarios = {}
        for name, events in (("incast", 178_626), ("alltoall", 1_257_712),
                             ("lossy", 185_194)):
            wall = round(events / rng.uniform(150_000, 350_000), 4)
            scenarios[name] = {"scenario": name, "engine": "calendar",
                               "events": events, "wall_s": wall,
                               "events_per_sec": round(events / wall),
                               "sim_time_ns": 1_000_000, "completed": True}
        docs.append({"schema_version": 3, "quick": False,
                     "python": "3.11.7", "scenarios": scenarios,
                     "speedup_vs_heap": round(rng.uniform(1.5, 1.8), 2)})
    return docs


def dashboard_paths(run_id: int, spec_hash: str) -> list[tuple[str, str]]:
    """The fixed request mix, as (page name, path); one round visits all."""
    return [("index", "/"),
            ("arena", "/arena"),
            ("arena_run", f"/arena/{run_id}"),
            ("cell", f"/cell/{run_id}/{spec_hash}"),
            ("api_ranking", "/api/ranking-over-time"),
            ("api_arena_run", f"/api/arena/{run_id}"),
            ("bench", "/bench"),
            ("faults", "/faults")]
