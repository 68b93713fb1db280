"""``repro serve`` — the live experiment dashboard.

Stdlib only: an :class:`http.server.HTTPServer` that hands each accepted
socket to one of :data:`WORKERS` resident threads, which borrow
**read-only** sqlite connections from the :class:`Dashboard`'s free list
for the length of one render, so concurrent page loads never share a
connection or contend with a sweep writing the store in WAL mode, and a
thread or connection, once started, serves every later request until
``server_close()``.  A response costs what its bytes cost: JSON is
encoded in C, or joined from the text the store already holds, and
tables are filled from columns.

Routing is two plain tables of ``(pattern, renderer)`` entries — pages
that read the store and are handed a connection, and the two that never
touch it; every renderer returns ``(status, content_type, body)``.  The
same tables drive ``repro serve --check``: :func:`check_pages` renders
every page headlessly (no sockets) against the store and validates
HTML/JSON shape, which is what CI's results-smoke job runs.

Pages
-----
* ``/``                     overview tiles + latest arena ranking
* ``/arena``                run list + ranking-over-time chart
* ``/arena/<run_id>``       one run: ranked table + cell grid
* ``/cell/<run_id>/<hash>`` per-cell drill-down + Perfetto deep link
* ``/faults``               recovery / goodput-dip panels per scenario
* ``/bench``                events/sec + tracing-overhead trend lines of
  ingested bench history (kept for existing stores and the ledger's
  ``dashboard_serve`` workload)
* ``/api/...``              the JSON twins of every page (compact:
  pipe through ``python -m json.tool`` to read one)
* ``/traces/<file>``        exported Perfetto traces (``--traces`` dir)
"""

from __future__ import annotations

import json
import os
import queue
import re
import sqlite3
import threading
from contextlib import closing, contextmanager
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Callable, Iterator, Optional
from urllib.parse import quote

from repro.results import html as H
from repro.results import query as Q
from repro.results.store import connect_readonly

PERFETTO_UI = "https://ui.perfetto.dev/#!/?url="

Conn = sqlite3.Connection

#: Resident request threads: a browser opens at most six connections to
#: one host, and each thread holds at most one store connection.
WORKERS = 6

#: Seconds a client may leave a socket silent, mid-request or before
#: one, until its worker hangs up: a bounded pool must not be held by
#: connections that never speak (a browser's preconnects do not).
READ_TIMEOUT_S = 5.0


class Dashboard:
    """Renders every route against one store file.

    Owns the read-only connections it opens: a render borrows one from
    the free list (opening one only when every other is lent out) and
    hands it back on return, so the dashboard holds at most one
    connection per concurrently rendering thread until :meth:`close`.
    """

    def __init__(self, db_path: str,
                 traces_dir: Optional[str] = None) -> None:
        self.db_path = db_path
        self.traces_dir = traces_dir
        self._lock = threading.Lock()
        self._free: list[Conn] = []
        self._closed = False
        self.connections_open = 0
        self.connections_opened = 0
        # Handlers of ``routes`` read the store and take the borrowed
        # connection first; those of ``static_routes`` never touch it.
        self.static_routes: list[tuple[re.Pattern, Callable]] = [
            (re.compile(r"^/healthz$"), self.page_health),
            (re.compile(r"^/traces/([\w.\-]+)$"), self.serve_trace),
        ]
        self.routes: list[tuple[re.Pattern, Callable]] = [
            (re.compile(r"^/$"), self.page_index),
            (re.compile(r"^/arena$"), self.page_arena),
            (re.compile(r"^/arena/(\d+)$"), self.page_arena_run),
            (re.compile(r"^/cell/(\d+)/([0-9a-f]+)$"), self.page_cell),
            (re.compile(r"^/faults$"), self.page_faults),
            (re.compile(r"^/bench$"), self.page_bench),
            (re.compile(r"^/api/summary$"), self.api_summary),
            (re.compile(r"^/api/arena/runs$"), self.api_arena_runs),
            (re.compile(r"^/api/arena/(\d+)$"), self.api_arena_run),
            (re.compile(r"^/api/ranking-over-time$"),
             self.api_ranking_over_time),
            (re.compile(r"^/api/cell/(\d+)/([0-9a-f]+)$"),
             self.api_cell),
            (re.compile(r"^/api/faults$"), self.api_faults),
            (re.compile(r"^/api/bench$"), self.api_bench),
        ]

    # -- connections ---------------------------------------------------
    @contextmanager
    def reader(self) -> Iterator[Conn]:
        """Lend one read-only connection for the length of the block."""
        with self._lock:
            conn = self._free.pop() if self._free else None
        if conn is None:
            conn = connect_readonly(self.db_path)
            with self._lock:
                self.connections_open += 1
                self.connections_opened += 1
        try:
            yield conn
        finally:
            with self._lock:
                if self._closed:
                    conn.close()
                    self.connections_open -= 1
                else:
                    self._free.append(conn)

    def close(self) -> None:
        """Close every idle connection; one still lent out is closed
        when its render returns.  Idempotent."""
        with self._lock:
            self._closed = True
            while self._free:
                self._free.pop().close()
                self.connections_open -= 1

    # -- dispatch ------------------------------------------------------
    def render(self, path: str,
               host: str = "localhost") -> tuple[int, str, bytes]:
        """Resolve one request path; never raises (500 with detail)."""
        path = path.split("?", 1)[0]
        try:
            for pattern, handler in self.static_routes:
                match = pattern.match(path)
                if match:
                    return handler(host, *match.groups())
            for pattern, handler in self.routes:
                match = pattern.match(path)
                if match:
                    with self.reader() as conn:
                        return handler(conn, host, *match.groups())
        except Exception as exc:  # pragma: no cover - guard
            return (500, "text/plain; charset=utf-8",
                    f"internal error: {exc}".encode())
        return (404, "text/plain; charset=utf-8", b"not found")

    @staticmethod
    def _html(body: str, status: int = 200) -> tuple[int, str, bytes]:
        return status, "text/html; charset=utf-8", body.encode()

    @staticmethod
    def _json(doc, status: int = 200) -> tuple[int, str, bytes]:
        return (status, "application/json",
                json.dumps(doc, sort_keys=True).encode())

    # -- pages ---------------------------------------------------------
    def page_health(self, host: str) -> tuple[int, str, bytes]:
        return self._json({"ok": True, "db": self.db_path,
                           "workers": WORKERS,
                           "connections_open": self.connections_open,
                           "connections_opened": self.connections_opened})

    def page_index(self, conn: Conn, host: str) -> tuple[int, str, bytes]:
        s = Q.summary(conn)
        body = H.tiles([
            ("cached job results", s["job_results"]),
            ("ingested runs", s["runs"]),
            ("arena runs", s["arena_runs"]),
            ("fault runs", s["fault_runs"]),
            ("bench runs", s["bench_runs"]),
            ("arena cells", s["arena_cells"]),
        ])
        latest = Q.latest_run_id(conn, "repro-arena")
        if latest is not None:
            ranking = Q.arena_ranking(conn, latest)
            rows = [(r["rank"],
                     f'{H.swatch(min(i + 1, 8))}{H.esc(r["lb"])}',
                     r["transport"], f"{r['mean_slowdown']:.3f}",
                     f"{r['mean_goodput_gbps']:.3f}",
                     f"{r['mean_nack_validity']:.3f}",
                     f"{r['completed_cells']}/{r['cells']}")
                    for i, r in enumerate(ranking)]
            body += ("<h2>latest arena ranking "
                     f'(<a href="/arena/{latest}">run {latest}</a>)</h2>'
                     + H.card(H.table(
                         ["rank", "lb", "transport", "slowdown",
                          "goodput Gbps", "nack validity", "cells"],
                         rows, numeric=(0, 3, 4, 5, 6), raw=(1,))))
        else:
            body += H.card(
                "<p>No runs ingested yet. Start with "
                "<code>repro arena --quick --out arena.json</code> then "
                "<code>repro results ingest --db results.sqlite "
                "arena.json</code>.</p>")
        return self._html(H.page(
            "experiment results", body, active="/",
            subtitle="spec-hash results store · "
                     + os.path.basename(self.db_path)))

    def page_arena(self, conn: Conn, host: str) -> tuple[int, str, bytes]:
        runs = Q.arena_runs(conn)
        over_time = Q.ranking_over_time(conn)
        body = ""
        if over_time["run_ids"] and over_time["series"]:
            labels = [f"run {r}" for r in over_time["run_ids"]]
            # Chart the best pairs only (palette slots are finite);
            # the full per-run ranking lives in the table below.
            top = over_time["series"][:6]
            chart = H.line_chart(
                labels,
                [(f"{s['lb']}/{s['transport']}", s["slowdowns"])
                 for s in top], y_fmt="{:.3f}")
            body += ("<h2>mean FCT slowdown over ingested runs</h2>"
                     + H.card(chart + (
                         '<p class="note">top 6 (lb, transport) pairs '
                         'by latest rank; lower is better. All '
                         f'{len(over_time["series"])} pairs are in the '
                         'run tables.</p>')))
        rows = [(f'<a href="/arena/{r["run_id"]}">run {r["run_id"]}</a>',
                 r["schema"], H.esc(r["source"]),
                 f"{r['completed_cells']}/{r['cells']}",
                 H.esc(f"{r['best_lb']}/{r['best_transport']}"
                       if r["best_lb"] else "-"),
                 ("-" if r["best_slowdown"] is None
                  else f"{r['best_slowdown']:.3f}"))
                for r in runs]
        body += "<h2>ingested arena runs</h2>" + H.card(H.table(
            ["run", "schema", "source", "cells", "best pair",
             "best slowdown"], rows, numeric=(3, 5), raw=(0, 2, 4)))
        return self._html(H.page("arena", body, active="/arena",
                                 subtitle="LB x transport head-to-head "
                                          "rankings"))

    def page_arena_run(self, conn: Conn, host: str,
                       run_id: str) -> tuple[int, str, bytes]:
        run_id = int(run_id)
        ranking = Q.arena_ranking(conn, run_id)
        cells = Q.arena_cell_rows(conn, run_id)
        if not cells:
            return self._html(H.page(f"arena run {run_id}",
                                     H.card("<p>unknown run</p>")),
                              status=404)
        rank_rows = [(r["rank"],
                      f'{H.swatch(min(i + 1, 8))}{H.esc(r["lb"])}',
                      r["transport"], f"{r['mean_slowdown']:.3f}",
                      f"{r['mean_goodput_gbps']:.3f}",
                      f"{r['mean_reorder_rate']:.4f}",
                      f"{r['mean_nack_validity']:.3f}",
                      f"{r['completed_cells']}/{r['cells']}")
                     for i, r in enumerate(ranking)]
        body = "<h2>ranking</h2>" + H.card(H.table(
            ["rank", "lb", "transport", "slowdown", "goodput Gbps",
             "reorder", "nack validity", "cells"],
            rank_rows, numeric=(0, 3, 4, 5, 6, 7), raw=(1,)))
        cell_rows = [
            (f'<a href="/cell/{run_id}/{spec_hash}">{spec_hash[:10]}</a>',
             lb, transport, cc, workload, topology, seed,
             "yes" if completed else "NO", f"{slowdown:.3f}",
             f"{goodput:.3f}", f"{validity:.3f}")
            for (spec_hash, lb, transport, cc, workload, topology, seed,
                 completed, slowdown, goodput, validity) in cells]
        body += "<h2>cells</h2>" + H.card(H.table(
            ["cell", "lb", "transport", "cc", "workload", "topology",
             "seed", "done", "slowdown", "goodput", "validity"],
            cell_rows, numeric=(6, 8, 9, 10), raw=(0,)))
        return self._html(H.page(f"arena run {run_id}", body,
                                 active="/arena"))

    def page_cell(self, conn: Conn, host: str, run_id: str,
                  spec_hash: str) -> tuple[int, str, bytes]:
        detail = Q.cell_detail(conn, int(run_id), spec_hash)
        if detail is None:
            return self._html(H.page("cell", H.card("<p>unknown cell"
                                                    "</p>")), status=404)
        cell = detail["cell"]
        body = H.tiles([
            ("mean slowdown", f"{cell['mean_slowdown']:.3f}"),
            ("goodput Gbps", f"{cell['goodput_gbps']:.3f}"),
            ("reorder rate", f"{cell['reorder_rate']:.4f}"),
            ("NACK validity", f"{cell['nack_validity']:.3f}"),
        ])
        rows = [(k, v) for k, v in cell.items()]
        body += "<h2>cell fields</h2>" + H.card(
            H.table(["field", "value"], rows))
        if len(detail["history"]) > 1:
            labels = [f"run {h['run_id']}" for h in detail["history"]]
            body += "<h2>this cell across ingested runs</h2>" + H.card(
                H.line_chart(labels, [
                    ("slowdown",
                     [h["mean_slowdown"] for h in detail["history"]])],
                    y_fmt="{:.3f}"))
        # Perfetto deep link: served from --traces when an exported
        # trace named <spec_hash>.json exists there.
        trace_name = f"{spec_hash}.json"
        if (self.traces_dir
                and os.path.exists(os.path.join(self.traces_dir,
                                                trace_name))):
            trace_url = f"http://{host}/traces/{trace_name}"
            deep = PERFETTO_UI + quote(trace_url, safe="")
            body += "<h2>trace</h2>" + H.card(
                f'<p><a href="{deep}">open in Perfetto UI</a> · '
                f'<a href="/traces/{trace_name}">raw trace JSON</a></p>')
        else:
            body += "<h2>trace</h2>" + H.card(
                "<p>No exported trace for this cell. Generate one with "
                f"<code>repro trace --perfetto traces/{trace_name}"
                "</code> and serve with <code>--traces traces/</code>."
                "</p>")
        if detail["job"]:
            body += "<h2>job spec (run cache)</h2>" + H.card(
                "<pre>" + H.esc(json.dumps(detail["job"], indent=2,
                                           sort_keys=True)) + "</pre>")
        return self._html(H.page(
            f"cell {spec_hash[:10]}", body, active="/arena",
            subtitle=f"{cell['lb']}/{cell['transport']}/{cell['cc']}/"
                     f"{cell['workload']}/{cell['topology']}/"
                     f"s{cell['seed']}"))

    def page_faults(self, conn: Conn, host: str) -> tuple[int, str, bytes]:
        panels = Q.fault_panels(conn)
        if not panels:
            body = H.card("<p>No fault campaigns ingested. Run "
                          "<code>repro faults run --name "
                          "link-flap-smoke --out faults.json</code> "
                          "then ingest it.</p>")
        else:
            body = ""
            for panel in panels:
                agg = panel["aggregate"]
                body += f"<h2>{H.esc(panel['scenario'])}</h2>"
                body += H.tiles([
                    ("cells", agg["cells"]),
                    ("completed", agg["completed"]),
                    ("unexplained NACKs", agg["unexplained_nacks"]),
                    ("mean recovery",
                     "-" if agg["mean_recovery_ns"] is None
                     else f"{agg['mean_recovery_ns'] / 1000:.1f} us"),
                    ("worst goodput dip",
                     "-" if agg["worst_dip_frac"] is None
                     else f"{agg['worst_dip_frac'] * 100:.1f}%"),
                ])
                rows = [(c["run_id"], c["seed"],
                         "yes" if c["completed"] else "NO",
                         "-" if c["tail_stretch"] is None
                         else f"{c['tail_stretch']:.3f}",
                         "-" if c["dip_frac"] is None
                         else f"{c['dip_frac'] * 100:.1f}%",
                         "-" if c["recovery_ns"] is None
                         else f"{c['recovery_ns'] / 1000:.1f}",
                         c["unexplained"])
                        for c in panel["cells"]]
                body += H.card(H.table(
                    ["run", "seed", "done", "tail stretch",
                     "goodput dip", "recovery (us)", "unexplained"],
                    rows, numeric=(0, 1, 3, 4, 5, 6)))
        return self._html(H.page(
            "fault campaigns", body, active="/faults",
            subtitle="recovery time · goodput dip · NACK-audit "
                     "validity"))

    def page_bench(self, conn: Conn, host: str) -> tuple[int, str, bytes]:
        data = Q.bench_series(conn)
        if not data["run_ids"]:
            body = H.card("<p>No bench history ingested. Ingest a bench "
                          "history document (<code>schema_version</code> "
                          "+ <code>scenarios</code>).</p>")
        else:
            labels = [f"run {r}" for r in data["run_ids"]]
            calendar = [(s["scenario"], s["events_per_sec"])
                        for s in data["series"]
                        if s["engine"] == "calendar"]
            body = "<h2>events/sec by scenario</h2>" + H.card(
                H.line_chart(labels, calendar, y_fmt="{:,.0f}"))
            rows = [(r["run_id"], H.esc(str(r["source"])),
                     "quick" if r["quick"] else "full",
                     r["python"] or "-",
                     "-" if r["speedup_vs_heap"] is None
                     else f"{r['speedup_vs_heap']:.2f}x",
                     "-" if r["tracing_overhead"] is None
                     else f"{r['tracing_overhead']:.2f}x")
                    for r in data["runs"]]
            body += "<h2>bench runs</h2>" + H.card(H.table(
                ["run", "source", "mode", "python", "speedup vs heap",
                 "tracing overhead"], rows, numeric=(0, 4, 5),
                raw=(1,)))
        return self._html(H.page(
            "bench history", body, active="/bench",
            subtitle="engine throughput and tracing-overhead trend"))

    # -- API -----------------------------------------------------------
    def api_summary(self, conn: Conn, host: str) -> tuple[int, str, bytes]:
        return self._json(Q.summary(conn))

    def api_arena_runs(self, conn: Conn, host: str) -> tuple[int, str, bytes]:
        return self._json({"runs": Q.arena_runs(conn)})

    def api_arena_run(self, conn: Conn, host: str,
                      run_id: str) -> tuple[int, str, bytes]:
        doc = Q.arena_run_json(conn, int(run_id))
        if doc is None:
            return self._json({"error": "unknown run"}, status=404)
        return 200, "application/json", doc.encode()

    def api_ranking_over_time(self, conn: Conn,
                              host: str) -> tuple[int, str, bytes]:
        return self._json(Q.ranking_over_time(conn))

    def api_cell(self, conn: Conn, host: str, run_id: str,
                 spec_hash: str) -> tuple[int, str, bytes]:
        detail = Q.cell_detail(conn, int(run_id), spec_hash)
        if detail is None:
            return self._json({"error": "unknown cell"}, status=404)
        return self._json(detail)

    def api_faults(self, conn: Conn, host: str) -> tuple[int, str, bytes]:
        return self._json({"panels": Q.fault_panels(conn)})

    def api_bench(self, conn: Conn, host: str) -> tuple[int, str, bytes]:
        return self._json(Q.bench_series(conn))

    # -- static traces -------------------------------------------------
    def serve_trace(self, host: str,
                    name: str) -> tuple[int, str, bytes]:
        if not self.traces_dir:
            return (404, "text/plain; charset=utf-8",
                    b"no --traces directory configured")
        path = os.path.join(self.traces_dir, name)
        if (not os.path.abspath(path).startswith(
                os.path.abspath(self.traces_dir) + os.sep)
                or not os.path.exists(path)):
            return 404, "text/plain; charset=utf-8", b"no such trace"
        with open(path, "rb") as fh:
            return 200, "application/json", fh.read()


# ----------------------------------------------------------------------
# HTTP plumbing
# ----------------------------------------------------------------------
def make_handler(dashboard: Dashboard,
                 quiet: bool = False) -> type:
    class Handler(BaseHTTPRequestHandler):
        timeout = READ_TIMEOUT_S

        def do_GET(self) -> None:  # noqa: N802 - http.server API
            host = self.headers.get("Host") or "localhost"
            status, ctype, body = dashboard.render(self.path, host=host)
            self.send_response(status)
            self.send_header("Content-Type", ctype)
            self.send_header("Content-Length", str(len(body)))
            self.send_header("Cache-Control", "no-cache")
            self.end_headers()
            if self.command != "HEAD":
                self.wfile.write(body)

        do_HEAD = do_GET  # noqa: N815 - the GET's headers, no body

        def log_message(self, fmt, *args) -> None:
            if not quiet:  # pragma: no cover - console chatter
                super().log_message(fmt, *args)

    return Handler


class DashboardServer(HTTPServer):
    """The server, the :data:`WORKERS` threads that answer what it
    accepts, and the :class:`Dashboard` they render; ``server_close()``
    joins the threads and closes the dashboard's connections.

    An accepted socket goes to the most recently idle worker (a stack of
    per-worker hand-off queues), so a client that sends one request at a
    time keeps being answered by the same thread, and the threads it
    does not need grow no malloc arena of their own.  A socket accepted
    while every worker is busy waits on the shared queue, which a worker
    drains before it goes idle again.
    """

    def __init__(self, address: tuple[str, int], dashboard: Dashboard,
                 quiet: bool = False) -> None:
        self.dashboard = dashboard
        super().__init__(address, make_handler(dashboard, quiet=quiet))
        self._accepted: queue.SimpleQueue = queue.SimpleQueue()
        self._handoff_lock = threading.Lock()
        self._idle: list[queue.SimpleQueue] = []
        self._inboxes = [queue.SimpleQueue() for _ in range(WORKERS)]
        self._workers = [threading.Thread(target=self._work, args=(inbox,),
                                          daemon=True)
                         for inbox in self._inboxes]
        for worker in self._workers:
            worker.start()

    def process_request(self, request, client_address) -> None:
        with self._handoff_lock:
            inbox = self._idle.pop() if self._idle else self._accepted
        inbox.put((request, client_address))

    def _next(self, inbox: queue.SimpleQueue):
        """A socket left on the shared queue for the worker that owns
        ``inbox``, or ``None`` once that worker is back on top of the
        idle stack (its next socket then arrives in ``inbox``)."""
        with self._handoff_lock:
            try:
                return self._accepted.get_nowait()
            except queue.Empty:
                self._idle.append(inbox)
        return None

    def _work(self, inbox: queue.SimpleQueue) -> None:
        """Answer accepted sockets in turn, until ``server_close()``."""
        accepted = self._next(inbox)
        while True:
            if accepted is None:
                accepted = inbox.get()
                if accepted is None:
                    return
            try:
                self.finish_request(*accepted)
            except Exception:
                self.handle_error(*accepted)
            # The response is written: take the next socket (or rejoin
            # the idle stack) before closing this one, so the client's
            # next request finds this thread on top.
            answered, accepted = accepted, self._next(inbox)
            self.shutdown_request(answered[0])

    def server_close(self) -> None:
        """Idempotent.  Sockets accepted before the call are answered
        first (each worker drains the shared queue before it reads its
        own), so a silent one can hold the join for up to
        :data:`READ_TIMEOUT_S`."""
        super().server_close()
        for inbox in self._inboxes:
            inbox.put(None)
        for worker in self._workers:
            worker.join()
        self._workers = []
        self._inboxes = []
        self.dashboard.close()


def make_server(db_path: str, *, host: str = "127.0.0.1",
                port: int = 8000, traces_dir: Optional[str] = None,
                quiet: bool = False) -> DashboardServer:
    """Bound, ready-to-``serve_forever`` server (port 0 OK)."""
    return DashboardServer((host, port),
                           Dashboard(db_path, traces_dir=traces_dir),
                           quiet=quiet)


# ----------------------------------------------------------------------
# Headless check (CI)
# ----------------------------------------------------------------------
def check_pages(db_path: str,
                traces_dir: Optional[str] = None) -> list[str]:
    """Render every page/endpoint headlessly; returns problems.

    Covers the static routes plus one ``/arena/<id>`` and one
    ``/cell/...`` per ingested arena run, validating that HTML pages
    close cleanly and the API twins parse as JSON.
    """
    with closing(Dashboard(db_path, traces_dir=traces_dir)) as dashboard:
        paths = ["/", "/healthz", "/arena", "/faults", "/bench",
                 "/api/summary", "/api/arena/runs",
                 "/api/ranking-over-time", "/api/faults", "/api/bench"]
        with dashboard.reader() as conn:
            for run in Q.arena_runs(conn):
                paths.append(f"/arena/{run['run_id']}")
                paths.append(f"/api/arena/{run['run_id']}")
                cells = Q.arena_cells(conn, run["run_id"])
                if cells:
                    paths.append(f"/cell/{run['run_id']}/"
                                 f"{cells[0]['spec_hash']}")
                    paths.append(f"/api/cell/{run['run_id']}/"
                                 f"{cells[0]['spec_hash']}")
        problems = []
        for path in paths:
            status, ctype, body = dashboard.render(path)
            if status != 200:
                problems.append(f"{path}: HTTP {status}")
                continue
            if ctype.startswith("text/html"):
                text = body.decode()
                if not text.startswith("<!DOCTYPE html>") \
                        or "</html>" not in text:
                    problems.append(f"{path}: malformed HTML document")
            elif ctype == "application/json":
                try:
                    json.loads(body)
                except json.JSONDecodeError as exc:
                    problems.append(f"{path}: invalid JSON ({exc})")
        return problems
