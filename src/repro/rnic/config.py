"""RNIC behavioural parameters shared by sender and receiver QPs."""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.packet import DATA_HEADER_BYTES, DEFAULT_MTU
from repro.sim.engine import MS, US

DELAYED_ACK_NS = 2 * US     # ACK delay of a not-yet-full coalescing batch
CNP_INTERVAL_NS = 50 * US   # at most one CNP per flow per interval


@dataclass(frozen=True)
class RnicConfig:
    """Knobs of the commodity-RNIC model.

    ``mtu_bytes`` is the wire MTU (Table 1 uses 1500 B); the data payload
    per packet is ``mtu_bytes - DATA_HEADER_BYTES``.  ``max_inflight_packets``
    bounds unacknowledged packets per QP — commodity RNICs size this from
    their retransmission-tracking resources; congestion control, not this
    window, is the normal rate limiter.
    """

    mtu_bytes: int = DEFAULT_MTU
    max_inflight_packets: int = 1024
    ack_coalesce_packets: int = 4
    rto_ns: int = 400 * US
    rto_backoff: float = 2.0
    rto_max_ns: int = 4 * MS

    def __post_init__(self) -> None:
        if self.mtu_bytes <= DATA_HEADER_BYTES:
            raise ValueError("MTU smaller than headers")
        if self.max_inflight_packets < 1:
            raise ValueError("window must be >= 1 packet")
        if self.ack_coalesce_packets < 1:
            raise ValueError("ack coalescing must be >= 1")

    @property
    def payload_bytes(self) -> int:
        return self.mtu_bytes - DATA_HEADER_BYTES

    def packets_for(self, nbytes: int) -> int:
        """Number of MTU segments a message of ``nbytes`` occupies."""
        if nbytes <= 0:
            raise ValueError("message must be at least 1 byte")
        return -(-nbytes // self.payload_bytes)
