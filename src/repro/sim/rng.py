"""Seeded randomness for deterministic simulations.

Every source of randomness in the simulator (random packet spraying, ECMP
hash salts, fault injection, jitter) draws from a :class:`SimRng`, which
wraps the stdlib :class:`random.Random` (Mersenne Twister).  Components
that need independent streams call :meth:`SimRng.fork` with a stable label
so adding a new consumer never perturbs existing streams.

The stdlib generator is used instead of ``numpy.random.Generator`` on
purpose: the simulator draws *scalars* on the per-packet hot path (path
picks under random spraying, ECN coin flips, loss draws), and a scalar
``Generator.integers`` call costs microseconds while ``random.Random``
stays in the ~100 ns range.  Streams are still fully reproducible from the
seed; they are simply different streams than a numpy-backed build drew.
"""

from __future__ import annotations

import random
import zlib

#: Reserved fork label for the fault-injection subsystem
#: (:mod:`repro.faults`).  All fault randomness hangs off this one named
#: stream so that *enabling a fault schedule can never perturb* the
#: packet-level streams: :meth:`SimRng.fork` derives the child seed
#: arithmetically without drawing from the parent, and no baseline
#: component ever forks this label.
FAULT_STREAM = "faults"


class SimRng:
    """Deterministic random source with labelled sub-streams."""

    __slots__ = ("seed", "_gen", "_random", "u01")

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._gen = random.Random(self.seed)
        # Bound method cached for the per-packet draws.  ``u01`` is the
        # public alias: hot-path consumers (random spraying) grab it once
        # and call straight into the C generator per draw.
        self._random = self._gen.random
        self.u01 = self._random

    def fork(self, label: str) -> "SimRng":
        """Derive an independent stream keyed by ``label``.

        The child seed mixes the parent seed with a CRC of the label, so
        ``fork("portA")`` yields the same stream across runs regardless of
        fork order.  Each call returns a *fresh* generator.
        """
        mixed = (self.seed * 0x9E3779B1 + zlib.crc32(label.encode())) % (2**63)
        return SimRng(mixed)

    def fault_stream(self) -> "SimRng":
        """The dedicated fault-injection stream (see :data:`FAULT_STREAM`).

        The contract the determinism golden tests pin down: a run that
        never calls this draws exactly the same packet-level randomness as
        a run that does, because the stream is derived, not drawn.  Each
        injector calls it once.
        """
        return self.fork(FAULT_STREAM)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high)``."""
        return self._gen.randrange(low, high)

    def choice(self, n: int) -> int:
        """Uniform integer in ``[0, n)`` — convenience for path picks.

        Computed as ``floor(random() * n)``: for the small ``n`` used in
        path selection the floor bias is ~2**-53 and the draw stays on the
        C fast path.
        """
        return int(self._random() * n)

    def random(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return self._random()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimRng(seed={self.seed})"
