"""In-network reordering at the destination ToR (ConWeave-style).

The destination ToR holds out-of-order data packets in a per-QP reorder
buffer and releases them to the NIC strictly in PSN order, so the
commodity RNIC never sees OOO arrivals at all.  Two escape hatches make
it a real switch mechanism rather than an oracle:

* **ordering timeout** — a buffered packet whose predecessors have not
  shown up within ``reorder_timeout_ns`` forces a flush (the missing
  packet is presumed lost; holding forever would deadlock),
* **capacity** — at most ``buffer_packets`` slots per QP; overflow also
  forces a flush.

Every flush delivers the buffered packets in ascending PSN order and
surrenders ordering for the skipped gap — the NIC then NACKs as usual.
The §2.3 argument is quantitative: with ConWeave's *two-path* rerouting
the buffer stays small, but under packet-level spraying the required
buffering explodes (see ``benchmarks/test_conweave_baseline.py``).
"""

from __future__ import annotations

from typing import Optional

from repro.conweave.config import ConweaveConfig
from repro.net.packet import FlowKey, Packet, PacketType
from repro.net.port import Port
from repro.switch.switch import Middleware, Switch


class _QpReorderState:
    __slots__ = ("expected", "buffer", "timer_token")

    def __init__(self) -> None:
        self.expected = 0
        self.buffer: dict[int, Packet] = {}
        #: Reorder-timer token (``Simulator.fire`` idiom): odd while armed.
        self.timer_token = 0


class InOrderDest(Middleware):
    """Per-QP reorder buffer in front of the last hop."""

    def __init__(self, config: ConweaveConfig) -> None:
        self.config = config
        self._state: dict[FlowKey, _QpReorderState] = {}
        self._switch: Optional[Switch] = None
        # Stats
        self.buffered_packets = 0
        self.peak_buffer = 0
        self.timeout_flushes = 0
        self.overflow_flushes = 0
        self.delivered_in_order = 0

    # ------------------------------------------------------------------
    def on_packet(self, switch: Switch, packet: Packet,
                  in_port: Optional[Port]) -> bool:
        if packet.ptype is not PacketType.DATA:
            return True
        if packet.flow.dst not in switch.down_nics \
                or packet.flow.src in switch.down_nics:
            return True
        self._switch = switch
        state = self._state.get(packet.flow)
        if state is None:
            state = _QpReorderState()
            self._state[packet.flow] = state

        psn = packet.psn
        if psn < state.expected:
            return True  # retransmitted duplicate: pass through
        if psn == state.expected:
            state.expected += 1
            self.delivered_in_order += 1
            # Forward this packet *before* draining the run it unblocks,
            # then consume it (the pipeline must not forward it twice).
            switch.forward(packet)
            self._drain(switch, state)
            return False
        # Out of order: hold it.
        if psn not in state.buffer:
            state.buffer[psn] = packet
            self.buffered_packets += 1
            if len(state.buffer) > self.peak_buffer:
                self.peak_buffer = len(state.buffer)
        if len(state.buffer) >= self.config.buffer_packets:
            self.overflow_flushes += 1
            self._flush(switch, state)
        else:
            self._arm_timer(switch, state)
        return False

    # ------------------------------------------------------------------
    def _drain(self, switch: Switch, state: _QpReorderState) -> None:
        """Release the contiguous run now unblocked by an in-order
        arrival (the arrival itself is forwarded by the caller)."""
        while state.expected in state.buffer:
            held = state.buffer.pop(state.expected)
            state.expected += 1
            self.delivered_in_order += 1
            switch.forward(held)
        self._rearm_or_cancel(switch, state)

    def _flush(self, switch: Switch, state: _QpReorderState) -> None:
        """Give up on the gap: deliver everything buffered in ascending
        PSN order and resume ordered delivery after the highest PSN let
        through (the skipped gap is now the NIC's problem to NACK)."""
        psns = sorted(state.buffer)
        for psn in psns:
            switch.forward(state.buffer.pop(psn))
        state.expected = psns[-1] + 1 if psns else state.expected
        self._rearm_or_cancel(switch, state)

    def _arm_timer(self, switch: Switch, state: _QpReorderState) -> None:
        token = state.timer_token
        if not token & 1:
            state.timer_token = token = token + 1
            switch.sim.fire2(self.config.reorder_timeout_ns,
                             self._timer_fire, state, token)

    def _rearm_or_cancel(self, switch: Switch,
                         state: _QpReorderState) -> None:
        if state.timer_token & 1:
            state.timer_token += 1
        if state.buffer:
            self._arm_timer(switch, state)

    def _timer_fire(self, state: _QpReorderState, token: int) -> None:
        if token != state.timer_token:
            return  # cancelled: a drain or a flush came since
        self.timeout_flushes += 1
        # The gap packet is presumed lost: one timeout expires the whole
        # episode and ordered delivery resumes past the flushed run.
        self._flush(self._switch, state)
