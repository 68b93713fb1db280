"""Packet model.

Packets approximate RoCEv2 frames at the granularity the paper cares about:
a PSN-carrying data segment (BTH), ACK/NACK control packets carrying the
receiver's expected PSN (AETH), and DCQCN CNPs.  Header layouts are not
modelled byte-for-byte; instead each packet knows its wire size so links and
buffers account for real bandwidth/occupancy.

Key fields used by Themis:

* ``psn``       — packet sequence number (data packets).
* ``epsn``      — expected PSN carried by ACK/NACK (AETH syndrome field).
* ``udp_sport`` — RoCEv2 UDP source port, the entropy field ECMP hashes
  over and the field Themis-S rewrites (Fig. 3).
* ``path_index`` — the fabric path the packet actually took; assigned by
  the source ToR's load balancer.  This is simulator bookkeeping standing
  in for "which core/spine the packet traversed".

Packet pooling
--------------
Simulations allocate one :class:`Packet` per segment per flow — millions
per run — so the module keeps a free list and the factory constructors
(:func:`data_packet` & friends) reset a recycled instance in place instead
of allocating.  :func:`release_packet` returns a packet to the pool; the
RNIC calls it once a delivered packet has been fully consumed.

**Pooling invariant:** a pooled packet must never be retained after the
delivery callbacks return — consumers copy the fields they need (PSNs,
sizes, flow keys) rather than storing the object.  Every recycled packet
gets a fresh ``pkt_id``, so holding a stale reference is detectable in
tests by the id changing under you.
"""

from __future__ import annotations

import enum
import itertools
from typing import NamedTuple

#: Bytes of Eth+IP+UDP+BTH framing on a data segment.
DATA_HEADER_BYTES = 58
#: Wire size of ACK/NACK/CNP control packets.
CONTROL_PACKET_BYTES = 64
#: Default MTU (payload + headers) used across experiments, per Table 1.
DEFAULT_MTU = 1500


class PacketType(enum.Enum):
    """RoCEv2 packet classes the simulator distinguishes."""

    DATA = "data"
    ACK = "ack"
    NACK = "nack"
    CNP = "cnp"


#: The members as module globals, which the hot paths read: a global read
#: is specialised by the interpreter, a class attribute behind the
#: ``EnumType`` metaclass is not (11 ns against 142 ns on CPython 3.11).
DATA, ACK, NACK, CNP = (PacketType.DATA, PacketType.ACK, PacketType.NACK,
                        PacketType.CNP)


class FlowKey(NamedTuple):
    """Identity of one RC queue pair's direction (sender -> receiver).

    ``src``/``dst`` are NIC ids; ``qp`` disambiguates multiple QPs between
    the same NIC pair (collectives open one QP per peer per step group).

    A ``NamedTuple`` rather than a dataclass: flow keys index every
    QP/route/cache dict on the hot path, and tuple hash/equality run in C
    — the dataclass version paid a Python-level ``__eq__`` on every dict
    hit whose stored key was a different (equal) object, e.g. the
    receiver-side key probed with the sender-side packet's key.
    """

    src: int
    dst: int
    qp: int = 0

    def reversed(self) -> "FlowKey":
        """Key of the control-packet direction (receiver -> sender)."""
        return FlowKey(self[1], self[0], self[2])

    def __str__(self) -> str:
        return f"{self[0]}->{self[1]}#{self[2]}"


_packet_ids = itertools.count()


class Packet:
    """A simulated packet.

    Mutable on purpose: switches rewrite ``udp_sport`` (Themis-S) and set
    ``ecn_marked`` (RED/ECN) in flight, exactly like real hardware.

    ``is_data``/``is_control`` and ``src``/``dst`` are plain attributes
    (not properties) set at init time: they are read several times per hop
    on the hot path and ``ptype``/``flow`` are never reassigned.

    Instances come from the factory functions below, which share the one
    initialiser (:func:`_make`) and the free list; the class itself takes
    no constructor arguments.
    """

    __slots__ = (
        "pkt_id", "ptype", "flow", "psn", "epsn", "payload_bytes",
        "wire_bytes", "udp_sport", "ecn_marked", "is_retx", "path_index",
        "themis_generated", "is_data", "is_control", "src", "dst",
        "_in_pool",
    )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = f"psn={self.psn}" if self.is_data else f"epsn={self.epsn}"
        return (f"Packet#{self.pkt_id}({self.ptype.value}, {self.flow}, "
                f"{extra}, {self.wire_bytes}B)")


#: Free list shared by the factory constructors below.  Bounded so a burst
#: (e.g. a large incast draining) cannot pin memory forever.
_POOL_CAP = 8192
_pool: list[Packet] = []


def release_packet(packet: Packet) -> None:
    """Return a consumed packet to the free list.

    Safe to call at most once per delivery (double release is a no-op via
    the ``_in_pool`` guard).  Only call this at a *terminal* consumption
    point — after it returns, the object may be handed out again by any
    factory with completely different contents.
    """
    if packet._in_pool:
        return
    packet._in_pool = True
    if len(_pool) < _POOL_CAP:
        _pool.append(packet)


def _make(ptype: PacketType, flow: FlowKey, psn: int = 0, epsn: int = 0,
          payload_bytes: int = 0, udp_sport: int = 0,
          is_retx: bool = False) -> Packet:
    """Every packet is built here: a recycled instance when the pool has
    one, with every field (re)initialised.

    Positional-only by convention: called once per simulated packet,
    where keyword passing is measurable.
    """
    pkt = _pool.pop() if _pool else Packet()
    pkt._in_pool = False
    pkt.pkt_id = next(_packet_ids)
    pkt.ptype = ptype
    pkt.flow = flow
    pkt.psn = psn
    pkt.epsn = epsn
    pkt.payload_bytes = payload_bytes
    if ptype is DATA:
        pkt.wire_bytes = payload_bytes + DATA_HEADER_BYTES
        pkt.is_data = True
        pkt.is_control = False
    else:
        pkt.wire_bytes = CONTROL_PACKET_BYTES
        pkt.is_data = False
        pkt.is_control = True
    pkt.src = flow.src
    pkt.dst = flow.dst
    pkt.udp_sport = udp_sport
    pkt.ecn_marked = False
    pkt.is_retx = is_retx
    pkt.path_index = None
    pkt.themis_generated = False
    return pkt


def data_packet(flow: FlowKey, psn: int, payload_bytes: int, *,
                udp_sport: int = 0, is_retx: bool = False) -> Packet:
    """Build a data segment."""
    return _make(DATA, flow, psn, 0, payload_bytes, udp_sport, is_retx)


def ack_packet(data_flow: FlowKey, epsn: int) -> Packet:
    """Cumulative ACK: everything below ``epsn`` is received."""
    return _make(ACK, data_flow.reversed(), 0, epsn)


def nack_packet(data_flow: FlowKey, epsn: int) -> Packet:
    """NACK carrying only the receiver's expected PSN (per §2.2 the
    out-of-order trigger PSN is *not* included)."""
    return _make(NACK, data_flow.reversed(), 0, epsn)


def cnp_packet(data_flow: FlowKey) -> Packet:
    """DCQCN congestion notification packet."""
    return _make(CNP, data_flow.reversed())
