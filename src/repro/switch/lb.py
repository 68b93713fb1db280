"""Load-balancing policies for equal-cost egress port selection.

Implemented schemes:

* :class:`EcmpLB` — flow-level hashing of the 5-tuple (the de-facto
  baseline, §2.1).  The hash is **XOR-linear** in the UDP source port,
  mirroring the hashing-linearity property of production ASICs that prior
  work [37] exploits and that Themis's PathMap relies on (Fig. 3).
* :class:`RandomSprayLB` — uniform random packet spraying [13].
* :class:`AdaptiveRoutingLB` — per-packet adaptive routing: pick the
  candidate egress port with the smallest queue backlog (ties broken by
  round-robin), approximating switch AR implementations.
* :class:`FlowletLB` — flowlet switching (CONGA/LetFlow-style, §2.3).

The adaptive-spraying baseline zoo (PAPERS.md competitors the paper's
evaluation predates):

* :class:`RepsLB` — REPS: recycled-entropy packet spraying.  Entropy
  values that recently delivered a packet cleanly (proven by a
  cumulative ACK) are cached per flow and reused; entropies mapped to a
  failed link are evicted, which is REPS's failure-mitigation story.
* :class:`PrimeLB` — PRIME: pseudo-random integrated multi-part entropy.
  The spraying entropy is composed from a per-flow part and a rolling
  pseudo-random part; disjoint bit-fields of it probe a small candidate
  set and the least-congested probe wins (stateless beyond a counter).
* :class:`SpritzLB` — Spritz: path-aware LB for low-diameter fabrics
  (dragonfly).  Maintains per-candidate path state (an EWMA of egress
  backlog) and sprays with probability inversely proportional to it, so
  persistently-bad paths are avoided rather than re-probed per packet.
* :class:`SprinklersLB` — Sprinklers: variable-size striping.  Each flow
  hashes to a stripe size; consecutive PSNs within a stripe share one
  egress (bounding reordering) while stripes themselves spray.

PSN-based spraying is *not* an LB here: it is applied by the Themis-S
middleware (:mod:`repro.themis.source`), which overrides port selection
at the source ToR only.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional, Sequence

from repro.net.packet import FlowKey, Packet
from repro.sim.rng import SimRng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.port import Port
    from repro.switch.switch import Switch

#: Rotation applied to the UDP source port inside the fold — makes the
#: PathMap construction exercise a non-identity (but still linear) delta.
SPORT_ROTATION = 5


def rotl16(value: int, amount: int) -> int:
    """Rotate a 16-bit value left."""
    amount %= 16
    value &= 0xFFFF
    return ((value << amount) | (value >> (16 - amount))) & 0xFFFF


def rotr16(value: int, amount: int) -> int:
    """Rotate a 16-bit value right (inverse of :func:`rotl16`)."""
    return rotl16(value, 16 - (amount % 16))


def ecmp_hash(src: int, dst: int, qp: int, udp_sport: int, *,
              salt: int = 0, rot: int = SPORT_ROTATION) -> int:
    """16-bit XOR-fold hash over the flow identity and UDP source port.

    ``salt``/``rot`` are per-switch parameters (real ASICs seed their CRC
    engines differently per box).  Linearity property exploited by the
    PathMap: for any delta ``d``,
    ``ecmp_hash(..., sport ^ d) == ecmp_hash(..., sport) ^ rotl16(d, rot)``.
    """
    acc = salt & 0xFFFF
    for word in (src & 0xFFFF, (src >> 16) & 0xFFFF,
                 dst & 0xFFFF, (dst >> 16) & 0xFFFF,
                 qp & 0xFFFF):
        acc ^= word
        acc = rotl16(acc, 1)
    acc ^= rotl16(udp_sport & 0xFFFF, rot)
    return acc & 0xFFFF


def ecmp_index(packet: Packet, n_candidates: int, *,
               salt: int = 0, rot: int = SPORT_ROTATION) -> int:
    """Candidate index ECMP picks for this packet."""
    flow = packet.flow
    return ecmp_hash(flow.src, flow.dst, flow.qp, packet.udp_sport,
                     salt=salt, rot=rot) % n_candidates


class LoadBalancer:
    """Strategy interface: choose one egress port among equal-cost ones."""

    name = "base"

    def select(self, switch: "Switch", packet: Packet,
               candidates: Sequence["Port"]) -> "Port":
        raise NotImplementedError


class EcmpLB(LoadBalancer):
    """Flow hashing: every packet of a flow takes the same path."""

    name = "ecmp"

    def select(self, switch: "Switch", packet: Packet,
               candidates: Sequence["Port"]) -> "Port":
        return candidates[ecmp_index(packet, len(candidates),
                                     salt=switch.hash_salt,
                                     rot=switch.hash_rot)]


class RandomSprayLB(LoadBalancer):
    """Uniform random packet spraying (per-packet, stateless)."""

    name = "rps"

    def __init__(self, rng: SimRng) -> None:
        self._rng = rng
        self._u01 = rng.u01

    def select(self, switch: "Switch", packet: Packet,
               candidates: Sequence["Port"]) -> "Port":
        # Flattened SimRng.choice: one C-level draw per sprayed packet.
        return candidates[int(self._u01() * len(candidates))]


class FlowletLB(LoadBalancer):
    """Flowlet switching (CONGA/LetFlow-style, §2.3).

    A flow may move to a new path only when a time gap larger than
    ``gap_ns`` separates consecutive packets — large enough for in-flight
    packets on the old path to drain, preserving order.  The paper's
    §2.3 point: RNIC *hardware rate pacing* emits packets back to back,
    so the gaps never appear and flowlet LB degenerates to per-flow
    (ECMP-like) behaviour; shrinking the gap below the path-delay spread
    trades that for reordering.  Both regimes are measurable here
    (`benchmarks/test_flowlet_baseline.py`).

    **Semantics note** — :meth:`select` re-stamps ``last_ns`` on every
    in-flowlet packet, so the gap is measured from the *previous packet*,
    not from the flowlet's first packet.  This is intentional and matches
    CONGA/LetFlow: a flowlet ends only when the inter-packet gap exceeds
    ``gap_ns`` (long enough for the old path to drain), so a continuously
    paced flow forms one unbounded flowlet — exactly the §2.3
    degeneration above.  Measuring from flowlet start would instead force
    a path switch every ``gap_ns`` regardless of spacing, reordering
    in-flight packets.  Pinned by ``tests/switch/test_flowlet.py``.
    """

    name = "flowlet"

    def __init__(self, rng: SimRng, gap_ns: int = 50_000) -> None:
        if gap_ns < 0:
            raise ValueError("gap must be >= 0")
        self._rng = rng
        self.gap_ns = gap_ns
        #: flow -> (candidate index, last packet timestamp)
        self._state: dict = {}
        self.flowlet_switches = 0

    def select(self, switch: "Switch", packet: Packet,
               candidates: Sequence["Port"]) -> "Port":
        now = switch.sim.now
        n = len(candidates)
        state = self._state.get(packet.flow)
        if state is not None:
            index, last_ns = state
            if now - last_ns < self.gap_ns and index < n:
                self._state[packet.flow] = (index, now)
                return candidates[index]
        # Gap expired (or first packet): start a new flowlet on the
        # least-loaded port, ties broken randomly.
        best = min(port.queued_bytes for port in candidates)
        ties = [i for i, port in enumerate(candidates)
                if port.queued_bytes == best]
        index = ties[self._rng.choice(len(ties))]
        if state is not None and state[0] != index:
            self.flowlet_switches += 1
        self._state[packet.flow] = (index, now)
        return candidates[index]


class AdaptiveRoutingLB(LoadBalancer):
    """Per-packet adaptive routing on local egress queue occupancy.

    Switch ASICs quantize queue depth into coarse congestion bins and pick
    pseudo-randomly among the least-congested ports, so consecutive
    packets of one flow still interleave across several uplinks — the
    per-packet reordering that makes "AR + commodity RNIC" the paper's
    problem case.
    """

    name = "ar"
    BIN_BYTES = 4096            # queue-depth quantization step

    def __init__(self, rng: SimRng) -> None:
        self._u01 = rng.u01

    def select(self, switch: "Switch", packet: Packet,
               candidates: Sequence["Port"]) -> "Port":
        # One pass: the least-loaded bin and, in candidate order, the
        # ports in it.
        bin_bytes = self.BIN_BYTES
        best_bin = -1
        ties: list = []
        for port in candidates:
            load = port.queued_bytes // bin_bytes
            if load == best_bin:
                ties.append(port)
            elif load < best_bin or best_bin < 0:
                best_bin = load
                ties = [port]
        if len(ties) == 1:
            return ties[0]
        # Flattened SimRng.choice, as in RandomSprayLB.
        return ties[int(self._u01() * len(ties))]


class RepsLB(LoadBalancer):
    """REPS: recycled-entropy packet spraying (PAPERS: arXiv 2407.21625).

    Per flow, entropy values whose packet was covered by a cumulative ACK
    are pushed onto a bounded recycle cache; the next packet of that flow
    prefers a recycled (entropy, port) pair over a fresh random draw —
    ACKed entropies are evidence of a currently-healthy, uncongested
    path.  On link failure the fault layer calls :meth:`evict_dead`
    (via ``Network.reconverge``) so no cached entropy can steer a
    packet onto a dead egress; lazy checks in :meth:`select` cover the
    window between failure and reconvergence.

    Recycling is driven from the *receiver* side: the harness registers
    :meth:`on_ack` as a ``Metrics.ack_listeners`` callback, firing when
    an ACK is generated.  (Real REPS recycles at the sender when the ACK
    returns; recycling at generation time only shifts the recycle point
    by the reverse-path delay and keeps the hook transport-agnostic.)
    """

    name = "reps"
    CACHE_SIZE = 64             # entries per flow's recycle cache

    def __init__(self, rng: SimRng) -> None:
        self._rng = rng
        #: flow -> deque[(entropy, port)] of ACK-proven entropies.
        self._cache: dict[FlowKey, deque] = {}
        #: flow -> {psn: (entropy, port)} awaiting ACK coverage.
        self._inflight: dict[FlowKey, dict] = {}
        self.recycled_hits = 0
        self.fresh_draws = 0
        self.evictions = 0

    def select(self, switch: "Switch", packet: Packet,
               candidates: Sequence["Port"]) -> "Port":
        flow = packet.flow
        cache = self._cache.get(flow)
        entropy: Optional[int] = None
        port: Optional["Port"] = None
        if cache:
            # Pop until a live, still-equal-cost entry surfaces; stale
            # entries (dead or no-longer-candidate port) are evicted.
            while cache:
                cand_entropy, cand_port = cache.popleft()
                if cand_port.up and cand_port in candidates:
                    entropy, port = cand_entropy, cand_port
                    break
                self.evictions += 1
        if port is None:
            entropy = int(self._rng.u01() * 65536)
            port = candidates[entropy % len(candidates)]
            self.fresh_draws += 1
        else:
            self.recycled_hits += 1
        # A retransmission overwrites the slot for its PSN: the entropy
        # that lost the packet is discarded rather than ever recycled.
        self._inflight.setdefault(flow, {})[packet.psn] = (entropy, port)
        return port

    def on_ack(self, flow: FlowKey, epsn: int) -> None:
        """Cumulative ACK for ``flow``: recycle entropies below ``epsn``."""
        inflight = self._inflight.get(flow)
        if not inflight:
            return
        acked = [psn for psn in inflight if psn < epsn]
        if not acked:
            return
        cache = self._cache.get(flow)
        if cache is None:
            cache = self._cache[flow] = deque(maxlen=self.CACHE_SIZE)
        for psn in sorted(acked):
            entropy, port = inflight.pop(psn)
            if port.up:
                cache.append((entropy, port))
            else:
                self.evictions += 1

    def evict_dead(self) -> None:
        """Purge every cached/inflight entropy mapped to a down port."""
        for cache in self._cache.values():
            live = [entry for entry in cache if entry[1].up]
            if len(live) != len(cache):
                self.evictions += len(cache) - len(live)
                cache.clear()
                cache.extend(live)
        for inflight in self._inflight.values():
            dead = [psn for psn, (_, port) in inflight.items()
                    if not port.up]
            for psn in dead:
                del inflight[psn]
            self.evictions += len(dead)


class PrimeLB(LoadBalancer):
    """PRIME: multi-part entropy selection (PAPERS: arXiv 2507.23012).

    Each packet's 16-bit entropy is composed from a stable per-flow part
    (the ECMP hash) XOR a rolling Weyl-sequence part, so consecutive
    packets decorrelate without any RNG.  Disjoint 4-bit fields of the
    entropy nominate ``PROBES`` candidate ports and the one with the
    smallest quantized backlog wins — "power of two choices" steered
    entirely by the entropy, keeping the scheme stateless beyond one
    per-flow counter (deployable in an RNIC pipeline).
    """

    name = "prime"
    PROBES = 2                  # of the entropy's four 4-bit fields
    BIN_BYTES = 4096            # backlog quantization step

    def __init__(self) -> None:
        #: flow -> packets seen (the rolling part's phase).
        self._count: dict[FlowKey, int] = {}

    def select(self, switch: "Switch", packet: Packet,
               candidates: Sequence["Port"]) -> "Port":
        flow = packet.flow
        count = self._count.get(flow, 0)
        self._count[flow] = count + 1
        base = ecmp_hash(flow.src, flow.dst, flow.qp, packet.udp_sport,
                         salt=switch.hash_salt, rot=switch.hash_rot)
        weyl = (count * 0x9E37 + 0x79B9) & 0xFFFF
        entropy = base ^ rotl16(weyl, 3)
        n = len(candidates)
        best_port = None
        best_bin = None
        for part in range(self.PROBES):
            index = ((entropy >> (4 * part)) & 0xF) % n
            port = candidates[index]
            backlog = port.queued_bytes // self.BIN_BYTES
            if best_bin is None or backlog < best_bin:
                best_port, best_bin = port, backlog
        return best_port


class SpritzLB(LoadBalancer):
    """Spritz: path-aware spraying for low-diameter fabrics
    (PAPERS: arXiv 2602.19567).

    Uniform spraying is wrong on dragonfly-like topologies where
    equal-cost candidates hide very unequal path quality (a congested
    global link vs. a clear one).  Spritz keeps per-candidate path state
    — an EWMA of the egress backlog updated on every visit — and sprays
    with probability inversely proportional to it, so persistently-bad
    paths receive asymptotically less traffic while still being probed
    enough to notice recovery.
    """

    name = "spritz"
    ALPHA = 0.25                # EWMA gain of the backlog score

    def __init__(self, rng: SimRng, mtu_bytes: int = 1000) -> None:
        self._rng = rng
        self.mtu_bytes = mtu_bytes
        #: port -> EWMA of queued bytes (persistent path state).
        self._ewma: dict = {}

    def select(self, switch: "Switch", packet: Packet,
               candidates: Sequence["Port"]) -> "Port":
        ewma = self._ewma
        alpha = self.ALPHA
        weights = []
        total = 0.0
        for port in candidates:
            score = ewma.get(port, 0.0)
            score += alpha * (port.queued_bytes - score)
            ewma[port] = score
            weight = 1.0 / (1.0 + score / self.mtu_bytes)
            weights.append(weight)
            total += weight
        pick = self._rng.u01() * total
        acc = 0.0
        for port, weight in zip(candidates, weights):
            acc += weight
            if pick < acc:
                return port
        return candidates[-1]  # float round-off fallback


class SprinklersLB(LoadBalancer):
    """Sprinklers: variable-size striping (PAPERS: arXiv 1407.0006).

    Each flow hashes to a stripe size (a power of two, so the stripe
    index is a shift); runs of ``stripe_size`` consecutive PSNs share one
    egress — bounding reordering to stripe boundaries — while the stripe
    index re-hashes, spreading the flow across all candidates.  Flows
    disagree on both stripe size and stripe->port mapping, which is what
    decorrelates the collisions that plague plain ECMP.
    """

    name = "sprinklers"
    MAX_STRIPE_LOG2 = 6         # stripes of 1 .. 64 packets

    def __init__(self) -> None:
        #: flow -> (stripe shift, per-flow salt), cached.
        self._stripe: dict[FlowKey, tuple] = {}

    def select(self, switch: "Switch", packet: Packet,
               candidates: Sequence["Port"]) -> "Port":
        flow = packet.flow
        cached = self._stripe.get(flow)
        if cached is None:
            h = ecmp_hash(flow.src, flow.dst, flow.qp, 0x5A5A,
                          salt=switch.hash_salt, rot=switch.hash_rot)
            cached = (h % (self.MAX_STRIPE_LOG2 + 1), h)
            self._stripe[flow] = cached
        shift, flow_salt = cached
        stripe = packet.psn >> shift
        # ecmp_hash is linear in its sport argument, so feeding the raw
        # stripe index would only perturb high bits (rotl16 of a small
        # integer) and the modulo below would never move.  A Weyl-style
        # odd-multiplier mix spreads consecutive stripes over all 16 bits.
        mixed = (stripe * 0x9E37 + 0x79B9) & 0xFFFF
        index = ecmp_hash(flow.src, flow.dst, flow.qp, mixed,
                          salt=flow_salt, rot=switch.hash_rot)
        return candidates[index % len(candidates)]
