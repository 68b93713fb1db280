"""Synthetic training-job workload (§2.1's traffic characterization).

AI training traffic is bursty and synchronized: every iteration, all
workers compute (network idle), then *simultaneously* enter a
communication phase (a collective), then compute again.
:class:`TrainingJob` drives that loop over the simulated fabric so
experiments can measure per-iteration communication time — including the
warm-up effects (DCQCN state, Themis tables) that single-shot collective
runs miss.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Type

from repro.collectives.group import Collective

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.harness.network import Network


class TrainingJob:
    """Iterated compute/communicate loop across multiple groups."""

    def __init__(self, network: "Network",
                 groups: list[list[int]], *,
                 collective_cls: Type[Collective],
                 bytes_per_iteration: int,
                 iterations: int,
                 compute_time_ns: int) -> None:
        if iterations < 1:
            raise ValueError("need at least one iteration")
        if compute_time_ns < 0:
            raise ValueError("compute time cannot be negative")
        self.network = network
        self.groups = groups
        self.collective_cls = collective_cls
        self.bytes_per_iteration = bytes_per_iteration
        self.iterations = iterations
        self.compute_time_ns = compute_time_ns

        self.iteration_times_ns: list[int] = []
        self._current: list[Collective] = []
        self._pending_groups = 0
        self._iteration = 0
        self._iteration_start_ns: Optional[int] = None
        self.done = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Kick off iteration 0 (after one compute phase)."""
        self.network.sim.schedule(self.compute_time_ns,
                                  self._begin_iteration)

    def _begin_iteration(self) -> None:
        self._iteration_start_ns = self.network.now_ns
        self._pending_groups = len(self.groups)
        self._current = []
        for members in self.groups:
            coll = self.collective_cls(self.network, members,
                                       self.bytes_per_iteration)
            self._current.append(coll)
            coll.on_complete = self._group_done
            coll.start()

    def _group_done(self) -> None:
        self._pending_groups -= 1
        if self._pending_groups:
            return
        assert self._iteration_start_ns is not None
        self.iteration_times_ns.append(
            self.network.now_ns - self._iteration_start_ns)
        self._iteration += 1
        if self._iteration >= self.iterations:
            self.done = True
            return
        self.network.sim.schedule(self.compute_time_ns,
                                  self._begin_iteration)

    # ------------------------------------------------------------------
    @property
    def mean_iteration_ns(self) -> float:
        if not self.iteration_times_ns:
            return 0.0
        return sum(self.iteration_times_ns) / len(self.iteration_times_ns)

    @property
    def max_iteration_ns(self) -> int:
        return max(self.iteration_times_ns) if self.iteration_times_ns \
            else 0
