"""Dashboard smoke tests: headless rendering and a real HTTP round trip."""

import http.client
import json
import re
import socket
import sys
import threading
import time
from contextlib import closing, contextmanager

import pytest

from repro.results import ResultsStore, ingest_doc
from repro.results import query as Q
from repro.results import server as server_module
from repro.results.query import arena_cells
from repro.results.server import (WORKERS, Dashboard, check_pages,
                                  make_server)
from repro.results.store import connect_readonly

from tests.results.test_store import (make_arena_doc, make_bench_doc,
                                      make_faults_doc)


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """A pool that ``server_close()`` did not join fails the test that
    started it."""
    before = threading.active_count()
    yield
    assert threading.active_count() == before


@pytest.fixture()
def db(tmp_path):
    path = str(tmp_path / "r.sqlite")
    with ResultsStore(path) as store:
        ingest_doc(store, make_arena_doc(), source="a1")
        ingest_doc(store, make_arena_doc(), source="a2")
        ingest_doc(store, make_faults_doc(), source="f1")
        ingest_doc(store, make_bench_doc(), source="b1")
    return path


@pytest.fixture()
def open_dashboard():
    """``Dashboard(...)`` whose connections are closed after the test."""
    opened = []

    def factory(*args, **kwargs):
        opened.append(Dashboard(*args, **kwargs))
        return opened[-1]

    yield factory
    for dashboard in opened:
        dashboard.close()


def first_spec_hash(db, run_id=1):
    with closing(connect_readonly(db)) as conn:
        return arena_cells(conn, run_id)[0]["spec_hash"]


@contextmanager
def serving(db):
    """A ``make_server`` on a free port, serving until the block ends."""
    server = make_server(db, port=0, quiet=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def request(server, method, path):
    """One request on a connection of its own, whatever the status:
    ``(status, headers, body)``."""
    with closing(http.client.HTTPConnection(*server.server_address[:2],
                                            timeout=10)) as conn:
        conn.request(method, path)
        response = conn.getresponse()
        return response.status, response.headers, response.read()


def fetch(server, path):
    status, headers, body = request(server, "GET", path)
    return status, headers["Content-Type"], body


class TestHeadlessRendering:
    def test_check_pages_clean_on_populated_store(self, db):
        assert check_pages(db) == []

    def test_check_pages_clean_on_empty_store(self, tmp_path):
        path = str(tmp_path / "empty.sqlite")
        ResultsStore(path).close()
        assert check_pages(path) == []

    def test_pages_render_html_documents(self, db, open_dashboard):
        dashboard = open_dashboard(db)
        for path in ("/", "/arena", "/arena/1", "/faults", "/bench"):
            status, ctype, body = dashboard.render(path)
            assert status == 200, path
            assert ctype.startswith("text/html")
            text = body.decode()
            assert text.startswith("<!DOCTYPE html>")
            assert "</html>" in text

    def test_bench_page_renders_old_and_v4_documents(self, tmp_path,
                                                     open_dashboard):
        """Documents from before schema v4 still carry speedup_vs_heap
        and keep rendering it; v4 and v5 documents show a dash.  A v4
        document's cost_model block is stored but no longer rendered,
        even when that document is the latest run."""
        path = str(tmp_path / "bench.sqlite")
        v4 = make_bench_doc()
        v4["schema_version"] = 4
        del v4["heap_baseline"], v4["speedup_vs_heap"]
        v5 = dict(v4, schema_version=5)
        v4_costs = dict(v4, cost_model={
            "tolerance": 0.15, "costs_ns": {"Port._pump": 1234.0},
            "predictions": []})
        with ResultsStore(path) as store:
            ingest_doc(store, make_bench_doc(), source="old")
            ingest_doc(store, v4, source="new")
            ingest_doc(store, v5, source="v5")
            ingest_doc(store, v4_costs, source="v4-costs")
        dashboard = open_dashboard(path)
        status, _, body = dashboard.render("/bench")
        text = body.decode()
        assert status == 200 and "2.00x" in text
        assert "<h2>bench runs</h2>" in text
        assert "fitted per-event-class costs" not in text
        runs = json.loads(dashboard.render("/api/bench")[2])["runs"]
        assert [r["speedup_vs_heap"] for r in runs] == [2.0, None, None,
                                                        None]

    def test_unknown_routes_404(self, db, open_dashboard):
        dashboard = open_dashboard(db)
        assert dashboard.render("/nope")[0] == 404
        assert dashboard.render("/arena/999")[0] == 404
        assert dashboard.render("/cell/1/ffffffffffffffff")[0] == 404
        assert dashboard.render("/api/arena/999")[0] == 404

    def test_api_endpoints_serve_query_json(self, db, open_dashboard):
        dashboard = open_dashboard(db)
        status, ctype, body = dashboard.render("/api/summary")
        assert status == 200 and ctype == "application/json"
        summary = json.loads(body)
        assert summary["arena_runs"] == 2
        status, _, body = dashboard.render("/api/ranking-over-time")
        assert status == 200
        assert len(json.loads(body)["run_ids"]) == 2

    def test_cell_page_and_api(self, db, open_dashboard):
        spec_hash = first_spec_hash(db)
        dashboard = open_dashboard(db)
        status, _, body = dashboard.render(f"/cell/1/{spec_hash}")
        assert status == 200
        assert spec_hash[:10] in body.decode()
        status, _, body = dashboard.render(f"/api/cell/1/{spec_hash}")
        detail = json.loads(body)
        assert [h["run_id"] for h in detail["history"]] == [1, 2]

    def test_query_strings_are_ignored(self, db, open_dashboard):
        assert open_dashboard(db).render("/arena?refresh=1")[0] == 200

    def test_index_links_the_latest_arena_run(self, db, open_dashboard):
        page = open_dashboard(db).render("/")[2].decode()
        assert '<a href="/arena/2">run 2</a>' in page


class TestFastPathsAgreeWithTheQueryLayer:
    """The API bodies are encoded, one of them joined from stored text,
    without the query functions that define them, and ``/arena/<id>``
    reads columns where ``Q.arena_cells`` reads ``cell_json``: neither
    may say anything the query layer does not."""

    def test_every_api_route_serves_its_query_value(self, db,
                                                    open_dashboard):
        dashboard = open_dashboard(db)
        spec_hash = first_spec_hash(db)
        with dashboard.reader() as conn:
            twins = {
                "/api/summary": Q.summary(conn),
                "/api/arena/runs": {"runs": Q.arena_runs(conn)},
                "/api/ranking-over-time": Q.ranking_over_time(conn),
                f"/api/cell/1/{spec_hash}":
                    Q.cell_detail(conn, 1, spec_hash),
                "/api/faults": {"panels": Q.fault_panels(conn)},
                "/api/bench": Q.bench_series(conn),
            }
            for run_id in (1, 2):
                twins[f"/api/arena/{run_id}"] = {
                    "run_id": run_id,
                    "cells": Q.arena_cells(conn, run_id),
                    "ranking": Q.arena_ranking(conn, run_id)}
        for pattern, _ in dashboard.routes:
            if pattern.pattern.startswith("^/api/"):
                assert any(pattern.match(path) for path in twins), \
                    f"no twin checked for {pattern.pattern}"
        for path, expected in twins.items():
            status, ctype, body = dashboard.render(path)
            assert (status, ctype) == (200, "application/json"), path
            assert json.loads(body) == expected, path
            assert b"\n" not in body, path

    def test_arena_run_table_shows_what_cell_json_holds(self, db,
                                                        open_dashboard):
        dashboard = open_dashboard(db)
        with dashboard.reader() as conn:
            cells = Q.arena_cells(conn, 2)
        page = dashboard.render("/arena/2")[2].decode()
        table = page.split("<h2>cells</h2>")[1]
        rows = [re.findall(r"<td[^>]*>(.*?)</td>", row)
                for row in re.findall(r"<tr>(.*?)</tr>", table)[1:]]
        assert len(rows) == len(cells) > 0
        for shown, cell in zip(rows, cells):
            assert shown[0] == (
                f'<a href="/cell/2/{cell["spec_hash"]}">'
                f'{cell["spec_hash"][:10]}</a>')
            assert shown[1:] == [
                cell["lb"], cell["transport"], cell["cc"],
                cell["workload"], cell["topology"], str(cell["seed"]),
                "yes" if cell["completed"] else "NO",
                f"{cell['mean_slowdown']:.3f}",
                f"{cell['goodput_gbps']:.3f}",
                f"{cell['nack_validity']:.3f}"]


class TestTraces:
    def test_trace_served_and_deep_linked(self, db, tmp_path,
                                          open_dashboard):
        spec_hash = first_spec_hash(db)
        traces = tmp_path / "traces"
        traces.mkdir()
        (traces / f"{spec_hash}.json").write_text('{"traceEvents": []}')
        dashboard = open_dashboard(db, traces_dir=str(traces))
        status, ctype, body = dashboard.render(
            f"/traces/{spec_hash}.json")
        assert status == 200 and ctype == "application/json"
        page = dashboard.render(f"/cell/1/{spec_hash}",
                                host="localhost:8000")[2].decode()
        assert "ui.perfetto.dev" in page
        assert f"{spec_hash}.json" in page

    def test_no_traces_dir_hints_instead(self, db, open_dashboard):
        spec_hash = first_spec_hash(db)
        page = open_dashboard(db).render(
            f"/cell/1/{spec_hash}")[2].decode()
        assert "No exported trace" in page

    def test_path_traversal_rejected(self, db, tmp_path, open_dashboard):
        traces = tmp_path / "traces"
        traces.mkdir()
        (tmp_path / "secret.json").write_text("{}")
        dashboard = open_dashboard(db, traces_dir=str(traces))
        # The route regex only admits [\w.-]+ names; dotted relative
        # names that resolve outside the directory are rejected too.
        assert dashboard.render("/traces/../secret.json")[0] == 404
        assert dashboard.render("/traces/..%2Fsecret.json")[0] == 404


class TestHttpRoundTrip:
    def test_threaded_server_serves_pages_and_api(self, db):
        with serving(db) as server:
            status, ctype, body = fetch(server, "/")
            threads = threading.active_count()
            assert status == 200
            assert "text/html" in ctype
            assert b"</html>" in body
            assert json.loads(fetch(server, "/api/summary")[2])[
                "arena_runs"] == 2
            health = json.loads(fetch(server, "/healthz")[2])
            assert health["ok"] is True and health["workers"] == WORKERS
            # The workers are resident: no request started a thread.
            assert threading.active_count() == threads

    def test_head_answers_with_the_headers_of_the_get(self, db):
        with serving(db) as server:
            for path, expected in (("/", 200), ("/api/summary", 200),
                                   ("/nope", 404)):
                status, headers, body = request(server, "HEAD", path)
                got, get_headers, get_body = request(server, "GET", path)
                assert status == got == expected, path
                assert body == b"" and get_body, path
                for name in ("Content-Type", "Content-Length"):
                    assert headers[name] == get_headers[name], path
                assert int(headers["Content-Length"]) == len(get_body)

    def test_oversized_request_line_is_refused_unrendered(self, db):
        with serving(db) as server:
            rendered = []
            inner = server.dashboard.render

            def render(path, host="localhost"):
                rendered.append(path)
                return inner(path, host=host)

            server.dashboard.render = render
            status, _, _ = request(server, "GET",
                                   "/arena?x=" + "a" * 70_000)
            assert status == 414 and rendered == []
            assert request(server, "GET", "/arena")[0] == 200
            assert rendered == ["/arena"]

    def test_stalled_clients_cannot_hold_the_pool(self, db):
        """More silent connections than workers: each is hung up on
        after the read timeout, and a request queued behind them all is
        answered as soon as a worker is free."""
        timeout = 0.5
        with serving(db) as server:
            server.RequestHandlerClass.timeout = timeout
            stalled = [socket.create_connection(server.server_address[:2],
                                                timeout=10)
                       for _ in range(WORKERS + 1)]
            try:
                start = time.monotonic()
                assert fetch(server, "/arena")[0] == 200
                assert time.monotonic() - start < timeout + 1
                for sock in stalled:
                    assert sock.recv(1) == b""
            finally:
                for sock in stalled:
                    sock.close()

    def test_concurrent_clients_share_at_most_one_connection_each(
            self, db, monkeypatch, open_dashboard):
        """8 clients x 50 requests over the ledger's page mix: every
        response is the headless render of its path, and the server
        opens at most one connection per client and per worker (400
        before reuse)."""
        clients, requests_each = 8, 50
        spec_hash = first_spec_hash(db, 2)
        paths = ["/", "/arena", "/arena/2", f"/cell/2/{spec_hash}",
                 "/api/ranking-over-time", "/api/arena/2", "/bench",
                 "/faults"]
        headless = open_dashboard(db)
        expected = {path: headless.render(path) for path in paths}

        opened = []
        real_connect = server_module.connect_readonly

        def counting_connect(path):
            opened.append(path)
            return real_connect(path)

        monkeypatch.setattr(server_module, "connect_readonly",
                            counting_connect)
        wrong, errors = [], []

        def client(offset, server):
            try:
                for i in range(requests_each):
                    path = paths[(offset + i) % len(paths)]
                    if fetch(server, path) != expected[path]:
                        wrong.append(path)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            with serving(db) as server:
                workers = [threading.Thread(target=client,
                                            args=(offset, server))
                           for offset in range(clients)]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=60)
                assert not any(w.is_alive() for w in workers)
                health = json.loads(fetch(server, "/healthz")[2])
                dashboard = server.dashboard
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert not wrong, wrong
        assert 1 <= len(opened) <= clients
        assert health["connections_opened"] == len(opened)
        assert health["connections_open"] == len(opened)
        assert health["connections_opened"] <= health["workers"]
        # server_close() closed every one of them.
        assert dashboard.connections_open == 0

    def test_one_client_at_a_time_stays_on_one_worker(self, db):
        """A client that sends 50 requests one after another, each once
        the last is answered and hung up on, is answered by one of the
        six workers: the worker rejoins the top of the idle stack before
        it closes the socket, so the next request finds it there (a
        first-in, first-out hand-off would rotate such a client across all
        six).  A client that does not wait for the hang-up can reach the
        server first, and is then answered by the next worker down."""
        spec_hash = first_spec_hash(db)
        paths = ["/", "/arena", "/arena/1", f"/cell/1/{spec_hash}",
                 "/api/arena/1"]
        with serving(db) as server:
            answered_by = []
            inner = server.dashboard.render

            def render(path, host="localhost"):
                answered_by.append(threading.get_ident())
                return inner(path, host=host)

            server.dashboard.render = render
            for i in range(50):
                with socket.create_connection(server.server_address[:2],
                                              timeout=10) as sock:
                    sock.sendall(f"GET {paths[i % len(paths)]} HTTP/1.0"
                                 "\r\n\r\n".encode())
                    response = b""
                    while chunk := sock.recv(65536):
                        response += chunk
                assert response.startswith(b"HTTP/1.0 200 ")
        assert len(answered_by) == 50
        assert len(set(answered_by)) == 1

    def test_server_close_closes_connections_and_is_idempotent(self, db):
        with serving(db) as server:
            fetch(server, "/arena")
            dashboard = server.dashboard
            assert dashboard.connections_open == 1
            (conn,) = dashboard._free
        assert dashboard.connections_open == 0
        with pytest.raises(Exception, match="closed database"):
            conn.execute("SELECT 1")
        dashboard.close()
        assert dashboard.connections_open == 0
        # A render after close() still answers, on a connection of its
        # own that does not stay open.
        assert dashboard.render("/api/summary")[0] == 200
        assert dashboard.connections_open == 0

    def test_kept_reader_sees_new_runs_and_does_not_block_checkpoint(
            self, db):
        def run_count(server):
            return len(json.loads(
                fetch(server, "/api/arena/runs")[2])["runs"])

        with serving(db) as server:
            assert run_count(server) == 2
            for path in ("/", "/arena", f"/cell/1/{first_spec_hash(db)}",
                         "/api/summary", "/bench"):
                assert fetch(server, path)[0] == 200
            with ResultsStore(db) as store:
                ingest_doc(store, make_arena_doc(), source="a3")
                assert run_count(server) == 3
                busy = store.conn.execute(
                    "PRAGMA wal_checkpoint(TRUNCATE)").fetchone()[0]
            assert busy == 0
            assert server.dashboard.connections_opened == 1
