"""Structured trace recorder and flight-recorder ring buffer.

The :class:`Recorder` is the hub of the observability layer.  Components
hold a *channel* — either the recorder itself (category enabled) or
``None`` (disabled) — so the instrumentation cost on a cold category is a
single attribute load and branch::

    rec = recorder.channel(PACKET) if recorder else None
    ...
    if rec is not None:
        rec.packet_hop(now, name, packet)

Every emitted event additionally lands in a bounded **flight ring**
(last-N events kept) regardless of retention settings, so a post-mortem
dump is always available when a simulation raises, an invariant fails,
or a job worker crashes.

Storage layout
--------------
Events are stored as compact *struct rows*: flat tuples whose first
element is an interned **name id** (an index into per-recorder
``id -> name/category/materializer`` tables) followed by the scalar
payload fields in a fixed per-event-type order.  Emitting costs one
tuple build, one list append, and one integer count bump — no dict is
built, no ``str(flow)`` or ``f"pfc_{action}"`` string is formatted, and
dynamic names (PFC/fault transitions) are interned once per distinct
action rather than formatted per event.

Each event type builds its row in exactly one place.  The three
per-packet events (``hop``, ``enq``, ``deq`` — nearly all emits of a
traced run) are closures built once per recorder that captured the
ring's ``append``, the counts list and their category's retained list,
so a call site pays one plain function call; every other emitter is a
method that hands its row to :meth:`Recorder._emit`.

The record shape every consumer reads, ``(time_ns, category, name,
location, data)`` with ``data`` a dict of scalars, is **materialized
lazily** — only when :meth:`records` or :meth:`dump_flight` is called —
and its dict key order is pinned per event type by golden tests.
``data`` never holds a live :class:`Packet` reference (packets are
pooled and recycled); immutable ``FlowKey`` tuples are safe to hold and
are stringified at materialization time.
"""

from __future__ import annotations

import itertools
import json
import os
import weakref
from collections import deque
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.packet import FlowKey, Packet

# ----------------------------------------------------------------------
# Event categories
# ----------------------------------------------------------------------
PACKET = "packet"    # per-hop packet observations at switches
QUEUE = "queue"      # port enqueue/dequeue + queue depth samples
ECN = "ecn"          # ECN CE marks applied by switch queue policies
DROP = "drop"        # tail/queue-policy drops at ports
NACK = "nack"        # NACK emit / Themis-D classify / compensate lifecycle
PFC = "pfc"          # PFC pause / resume frames
QP = "qp"            # sender QP state changes (rewind, rto, complete)
CC = "cc"            # congestion-control rate updates
FAULT = "fault"      # injected network failures (link down, reboot, storm)

ALL_CATEGORIES: tuple[str, ...] = (PACKET, QUEUE, ECN, DROP, NACK, PFC, QP,
                                   CC, FAULT)

#: Default flight-ring capacity: enough to reconstruct the last few
#: microseconds of a busy fabric without holding the whole run in memory.
DEFAULT_RING_CAPACITY = 4096

#: Environment variable overriding where crash dumps are written.
DUMP_DIR_ENV = "REPRO_OBS_DIR"
DEFAULT_DUMP_DIR = "obs-dumps"


class InvariantError(AssertionError):
    """An internal consistency check failed (flight ring was dumped)."""


# ----------------------------------------------------------------------
# Materializers: compact struct row -> (t, cat, name, loc, data).
# Field order inside each data dict is load-bearing — dump_flight JSONL
# and the Perfetto export are byte-compared against pinned CRCs.
# ----------------------------------------------------------------------
def _mat_hop(e, name, cat):
    flow = e[5]
    return (e[1], cat, name, e[2], {
        "pkt_id": e[3], "ptype": e[4].value, "src": flow.src,
        "dst": flow.dst, "qp": flow.qp, "psn": e[6], "epsn": e[7],
        "path_index": e[8], "is_retx": e[9]})


def _mat_queue(e, name, cat):
    return (e[1], cat, name, e[2], {
        "queued_bytes": e[3], "backlog_pkts": e[4]})


def _mat_ecn(e, name, cat):
    return (e[1], cat, name, e[2], {
        "pkt_id": e[3], "psn": e[4], "flow": str(e[5]),
        "queued_bytes": e[6]})


def _mat_drop(e, name, cat):
    return (e[1], cat, name, e[2], {
        "pkt_id": e[3], "ptype": e[4].value, "flow": str(e[5]),
        "psn": e[6], "reason": e[7]})


def _mat_nack_emit(e, name, cat):
    return (e[1], cat, name, e[2], {
        "flow": str(e[3]), "epsn": e[4], "trigger_psn": e[5]})


def _mat_nack_classify(e, name, cat):
    tpsn, n_paths, guard = e[6], e[7], e[10]
    data: dict = {"flow": str(e[3]), "epsn": e[4], "verdict": e[5],
                  "tpsn": tpsn, "n_paths": n_paths,
                  "ring_len": e[8], "armed": e[9]}
    if n_paths:
        data["epsn_path"] = e[4] % n_paths
        data["tpsn_path"] = None if tpsn is None else tpsn % n_paths
    if guard is not None:
        data["guard"] = guard
    return (e[1], cat, name, e[2], data)


def _mat_nack_compensate(e, name, cat):
    return (e[1], cat, name, e[2], {
        "flow": str(e[3]), "bepsn": e[4], "prove_psn": e[5]})


def _mat_nack_cancel(e, name, cat):
    return (e[1], cat, name, e[2], {
        "flow": str(e[3]), "bepsn": e[4], "reason": e[5]})


def _mat_pfc(e, name, cat):
    return (e[1], cat, name, e[2], {"occupancy_bytes": e[3]})


def _mat_qp_state(e, name, cat):
    data = {"flow": str(e[3]), "state": e[4]}
    data.update(e[5])
    return (e[1], cat, name, e[2], data)


def _mat_cc_rate(e, name, cat):
    return (e[1], cat, name, e[2], {"rate_bps": e[3]})


def _mat_fault(e, name, cat):
    return (e[1], cat, name, e[2], dict(e[3]))


#: Statically-interned names: (name, category, materializer).  Dynamic
#: names (pfc_*/fault_* transitions) are interned on first use and
#: appended after these.
_STATIC_NAMES = (
    ("hop", PACKET, _mat_hop),
    ("ecn_mark", ECN, _mat_ecn),
    ("drop", DROP, _mat_drop),
    ("nack_emit", NACK, _mat_nack_emit),
    ("nack_classify", NACK, _mat_nack_classify),
    ("nack_compensate", NACK, _mat_nack_compensate),
    ("nack_cancel", NACK, _mat_nack_cancel),
    ("qp_state", QP, _mat_qp_state),
    ("cc_rate", CC, _mat_cc_rate),
    ("enq", QUEUE, _mat_queue),
    ("deq", QUEUE, _mat_queue),
)
(_ID_HOP, _ID_ECN, _ID_DROP, _ID_NACK_EMIT, _ID_NACK_CLASSIFY,
 _ID_NACK_COMPENSATE, _ID_NACK_CANCEL, _ID_QP_STATE,
 _ID_CC_RATE, _ID_Q_ENQ, _ID_Q_DEQ) = range(len(_STATIC_NAMES))


# ----------------------------------------------------------------------
# Per-packet emitters.  Switch.receive and Port enqueue/dequeue fire
# these once per packet per hop, so each is a closure over the ring's
# append, the counts list and the category's retained list (None when
# unretained): one plain call per event, no ``self`` rebinding and no
# attribute loads.  Scalar fields are copied at emit time; the only
# object references stored are immutable (FlowKey tuples, enum members,
# strings) — never a live pooled Packet, whose fields are recycled
# after delivery.
# ----------------------------------------------------------------------
def _hop_closure(ring_append, counts, retained):
    def packet_hop(t: int, loc: str, packet: "Packet") -> None:
        row = (_ID_HOP, t, loc, packet.pkt_id, packet.ptype, packet.flow,
               packet.psn, packet.epsn, packet.path_index, packet.is_retx)
        ring_append(row)
        counts[_ID_HOP] += 1
        if retained is not None:
            retained.append(row)

    return packet_hop


def _queue_closure(name_id, ring_append, counts, retained):
    def queue_event(t: int, loc: str, queued_bytes: int,
                    backlog: int) -> None:
        row = (name_id, t, loc, queued_bytes, backlog)
        ring_append(row)
        counts[name_id] += 1
        if retained is not None:
            retained.append(row)

    return queue_event


class Recorder:
    """Typed trace-event recorder with per-category enable flags.

    Parameters
    ----------
    categories:
        Iterable of category names to enable, or ``None`` for all.
        Disabled categories emit nothing and cost nothing at call sites
        (their channel is ``None``).
    ring_capacity:
        Size of the always-on flight ring (last-N events kept).
    retain:
        Categories whose events are additionally kept *in full* (an
        unbounded append-only buffer of compact rows) for offline
        analysis — e.g. ``{NACK}`` for the causality audit, or all
        categories for a Perfetto export.
    """

    def __init__(self, categories: Optional[Iterable[str]] = None, *,
                 ring_capacity: int = DEFAULT_RING_CAPACITY,
                 retain: Iterable[str] = ()) -> None:
        cats = ALL_CATEGORIES if categories is None else tuple(categories)
        unknown = set(cats) - set(ALL_CATEGORIES)
        if unknown:
            raise ValueError(f"unknown trace categories: {sorted(unknown)}")
        self.enabled = frozenset(cats)
        retained = frozenset(retain)
        unknown = retained - set(ALL_CATEGORIES)
        if unknown:
            raise ValueError(f"unknown retain categories: {sorted(unknown)}")
        # Retaining a disabled category would silently record nothing.
        self.retain = retained & self.enabled

        # Interned name tables (index = name id used in struct rows).
        self._names: list[str] = [n for n, _, _ in _STATIC_NAMES]
        self._name_cats: list[str] = [c for _, c, _ in _STATIC_NAMES]
        self._mat: list = [m for _, _, m in _STATIC_NAMES]
        self._counts: list[int] = [0] * len(_STATIC_NAMES)
        #: Dynamic names: (category, action) -> name id.
        self._dynamic_ids: dict[tuple[str, str], int] = {}

        # Flight ring: deque of compact rows with C-level auto-evict,
        # so emitting pays no length check or trim slice.
        self._ring: deque = deque(maxlen=int(ring_capacity))
        # Retained full buffers (compact rows, objects shared with the
        # ring): the one per-category state table.
        self._retained: dict[str, list] = {cat: [] for cat in self.retain}

        #: Per-packet emitters; call sites hold these attributes directly
        #: (``switch.rec = recorder.packet_hop``).  Signatures:
        #: ``packet_hop(t, loc, packet)`` and
        #: ``queue_enq/queue_deq(t, loc, queued_bytes, backlog)``.
        ring_append, counts = self._ring.append, self._counts
        self.packet_hop = _hop_closure(ring_append, counts,
                                       self._retained.get(PACKET))
        queued = self._retained.get(QUEUE)
        self.queue_enq = _queue_closure(_ID_Q_ENQ, ring_append, counts,
                                        queued)
        self.queue_deq = _queue_closure(_ID_Q_DEQ, ring_append, counts,
                                        queued)

        self.dumps: list[Path] = []

    # ------------------------------------------------------------------
    # Channel handout
    # ------------------------------------------------------------------
    def channel(self, category: str) -> Optional["Recorder"]:
        """Return ``self`` when *category* is enabled, else ``None``.

        Call sites store the result once and guard each emit with a
        single ``if rec is not None`` — the whole per-category flag
        machinery compiles down to that check.
        """
        return self if category in self.enabled else None

    # ------------------------------------------------------------------
    # Typed emitters: each builds its event type's row and hands it to
    # _emit.  Same copy-scalars-at-emit-time rule as the closures above.
    # ------------------------------------------------------------------
    def _emit(self, row: tuple) -> None:
        """Ring append, count bump, retained append for one row."""
        name_id = row[0]
        self._ring.append(row)
        self._counts[name_id] += 1
        retained = self._retained.get(self._name_cats[name_id])
        if retained is not None:
            retained.append(row)

    def _dynamic_id(self, cat: str, action: str, mat) -> int:
        """Name id of ``<cat>_<action>``, interned on first use so the
        display name is formatted once per distinct action, not once
        per event."""
        name_id = self._dynamic_ids.get((cat, action))
        if name_id is None:
            name_id = self._dynamic_ids[cat, action] = len(self._names)
            self._names.append(f"{cat}_{action}")
            self._name_cats.append(cat)
            self._mat.append(mat)
            self._counts.append(0)
        return name_id

    def ecn_mark(self, t: int, loc: str, packet: "Packet",
                 queued_bytes: int) -> None:
        self._emit((_ID_ECN, t, loc, packet.pkt_id, packet.psn,
                    packet.flow, queued_bytes))

    def drop(self, t: int, loc: str, packet: "Packet",
             reason: str = "tail") -> None:
        self._emit((_ID_DROP, t, loc, packet.pkt_id, packet.ptype,
                    packet.flow, packet.psn, reason))

    def nack_emit(self, t: int, loc: str, flow: "FlowKey", epsn: int,
                  trigger_psn: Optional[int]) -> None:
        """A receiver generated a NACK for *epsn* on seeing *trigger_psn*."""
        self._emit((_ID_NACK_EMIT, t, loc, flow, epsn, trigger_psn))

    def nack_classify(self, t: int, loc: str, flow: "FlowKey", epsn: int,
                      verdict: str, *, tpsn: Optional[int] = None,
                      n_paths: int = 0, ring_len: int = 0,
                      armed: bool = False,
                      guard: Optional[str] = None) -> None:
        """Themis-D decision for one NACK (Eq. 3 evaluation)."""
        self._emit((_ID_NACK_CLASSIFY, t, loc, flow, epsn, verdict, tpsn,
                    n_paths, ring_len, armed, guard))

    def nack_compensate(self, t: int, loc: str, flow: "FlowKey",
                        bepsn: int, prove_psn: int) -> None:
        """A previously blocked ePSN was proven lost; NACK regenerated."""
        self._emit((_ID_NACK_COMPENSATE, t, loc, flow, bepsn, prove_psn))

    def nack_cancel(self, t: int, loc: str, flow: "FlowKey", bepsn: int,
                    reason: str) -> None:
        """Armed compensation dismissed (the blocked ePSN showed up)."""
        self._emit((_ID_NACK_CANCEL, t, loc, flow, bepsn, reason))

    def pfc(self, t: int, loc: str, action: str,
            occupancy_bytes: int) -> None:
        self._emit((self._dynamic_id(PFC, action, _mat_pfc), t, loc,
                    occupancy_bytes))

    def qp_state(self, t: int, loc: str, flow: "FlowKey", state: str,
                 **detail) -> None:
        self._emit((_ID_QP_STATE, t, loc, flow, state, detail))

    def cc_rate(self, t: int, loc: str, rate_bps: float) -> None:
        self._emit((_ID_CC_RATE, t, loc, rate_bps))

    def fault(self, t: int, loc: str, action: str, **detail) -> None:
        """An injected failure (or its recovery) took effect at *loc*.

        ``action`` names the transition (``link_down``, ``link_up``,
        ``degrade``, ``latency_shift``, ``reboot``, ``recover``,
        ``pfc_storm``, ``storm_end``, ``reconverge``, ...); scalar detail
        fields carry the parameters.  Faults always leave a trace — the
        audit relies on these events to explain every compensation
        decision made around a path failure.
        """
        self._emit((self._dynamic_id(FAULT, action, _mat_fault), t, loc,
                    detail))

    # ------------------------------------------------------------------
    # Queries (lazy materialization)
    # ------------------------------------------------------------------
    def _materialize(self, entry: tuple):
        name_id = entry[0]
        return self._mat[name_id](entry, self._names[name_id],
                                  self._name_cats[name_id])

    def records(self, category: Optional[str] = None) -> list:
        """Recorded events for one category (retained buffer when the
        category is retained, else whatever survives in the flight ring);
        all ring contents when *category* is ``None``.  Each record is a
        ``(t, cat, name, loc, data)`` tuple."""
        mat = self._materialize
        if category is None:
            return [mat(e) for e in self._ring]
        retained = self._retained.get(category)
        if retained is not None:
            return [mat(e) for e in retained]
        cats = self._name_cats
        return [mat(e) for e in self._ring if cats[e[0]] == category]

    @property
    def counts(self) -> dict:
        """Per-event-name emit counts (materialized from id counters)."""
        return {name: count for name, count
                in zip(self._names, self._counts) if count}

    def total_events(self) -> int:
        return sum(self._counts)

    def counts_summary(self) -> dict:
        """Per-event-name counts plus a total, for Metrics.summary()."""
        out = dict(sorted(self.counts.items()))
        out["total"] = self.total_events()
        return out

    # ------------------------------------------------------------------
    # Flight-recorder dump
    # ------------------------------------------------------------------
    def dump_flight(self, path: str | Path | None = None, *,
                    reason: str = "manual") -> Path:
        """Write the flight ring as JSONL; returns the path written.

        The first line is a metadata header; each following line is one
        event.  Both are standalone JSON objects, so the file parses as
        plain JSONL.
        """
        if path is None:
            path = _default_dump_path(reason)
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = self._ring
        mat = self._materialize
        with path.open("w") as fh:
            fh.write(json.dumps({
                "meta": "repro-flight-recorder", "reason": reason,
                "events": len(rows),
                "total_emitted": self.total_events(),
                "categories": sorted(self.enabled)}) + "\n")
            for entry in rows:
                t, cat, name, loc, data = mat(entry)
                doc = {"t": t, "cat": cat, "ev": name, "loc": loc}
                doc.update(data)
                fh.write(json.dumps(doc) + "\n")
        self.dumps.append(path)
        return path


# ----------------------------------------------------------------------
# Active-recorder registry (crash-dump hook)
# ----------------------------------------------------------------------
# The harness registers the recorder of the run in flight so that crash
# paths far from the Network object (job workers, invariant checks) can
# dump it without plumbing.  A weakref keeps the registry from extending
# recorder lifetime.
_active: Optional[weakref.ref] = None


def set_active(recorder: Optional[Recorder]) -> None:
    global _active
    _active = None if recorder is None else weakref.ref(recorder)


def active_recorder() -> Optional[Recorder]:
    if _active is None:
        return None
    return _active()


# Process-local monotonic sequence: pid + wall-clock ms alone collide when
# one process dumps twice within a millisecond (e.g. in-proc job retries),
# and concurrently-failing job workers forked from the same parent can even
# share a pid namespace on some mp start methods.  pid + seq + optional
# caller tag (job spec-hash) makes every dump name unique.
_dump_seq = itertools.count()


def _default_dump_path(reason: str, tag: str | None = None) -> Path:
    import time

    directory = Path(os.environ.get(DUMP_DIR_ENV, DEFAULT_DUMP_DIR))
    slug = "".join(c if c.isalnum() or c in "-_" else "-" for c in reason)
    stamp = int(time.time() * 1000)
    parts = [f"flight-{slug}"]
    if tag:
        safe = "".join(c if c.isalnum() or c in "-_" else "-" for c in tag)
        parts.append(safe)
    parts.append(f"pid{os.getpid()}-{stamp}-{next(_dump_seq)}")
    return directory / ("-".join(parts) + ".jsonl")


def dump_active_flight(reason: str,
                       directory: str | Path | None = None, *,
                       tag: str | None = None,
                       ) -> Optional[Path]:
    """Dump the active recorder's flight ring; best-effort, never raises.

    Returns the dump path, or ``None`` when no recorder is active or the
    write failed (crash paths must not mask the original error).  *tag*
    (e.g. a job spec-hash) is woven into the filename so concurrent
    worker failures never race to the same dump file.
    """
    rec = active_recorder()
    if rec is None:
        return None
    try:
        if directory is None:
            path = _default_dump_path(reason, tag)
        else:
            path = Path(directory) / _default_dump_path(reason, tag).name
        return rec.dump_flight(path, reason=reason)
    except Exception:  # pragma: no cover - defensive
        return None


def check_invariant(condition: bool, message: str) -> None:
    """Assert an internal invariant; on failure dump the flight ring.

    Raises :class:`InvariantError` with the dump path appended so the
    failure message points straight at the evidence.
    """
    if condition:
        return
    dump = dump_active_flight("invariant")
    if dump is not None:
        message = f"{message} [flight recorder: {dump}]"
    raise InvariantError(message)
