"""Dashboard smoke tests: headless rendering and a real HTTP round trip."""

import json
import threading
import urllib.request

import pytest

from repro.results import ResultsStore, ingest_doc
from repro.results.query import arena_cells
from repro.results.server import Dashboard, check_pages, make_server
from repro.results.store import connect_readonly

from tests.results.test_store import (make_arena_doc, make_bench_doc,
                                      make_faults_doc)


@pytest.fixture()
def db(tmp_path):
    path = str(tmp_path / "r.sqlite")
    with ResultsStore(path) as store:
        ingest_doc(store, make_arena_doc(), source="a1")
        ingest_doc(store, make_arena_doc(), source="a2")
        ingest_doc(store, make_faults_doc(), source="f1")
        ingest_doc(store, make_bench_doc(), source="b1")
    return path


class TestHeadlessRendering:
    def test_check_pages_clean_on_populated_store(self, db):
        assert check_pages(db) == []

    def test_check_pages_clean_on_empty_store(self, tmp_path):
        path = str(tmp_path / "empty.sqlite")
        ResultsStore(path).close()
        assert check_pages(path) == []

    def test_pages_render_html_documents(self, db):
        dashboard = Dashboard(db)
        for path in ("/", "/arena", "/arena/1", "/faults", "/bench"):
            status, ctype, body = dashboard.render(path)
            assert status == 200, path
            assert ctype.startswith("text/html")
            text = body.decode()
            assert text.startswith("<!DOCTYPE html>")
            assert "</html>" in text

    def test_bench_page_renders_old_and_v4_documents(self, tmp_path):
        """Documents from before schema v4 still carry speedup_vs_heap
        and keep rendering it; v4 documents show a dash."""
        path = str(tmp_path / "bench.sqlite")
        v4 = make_bench_doc()
        v4["schema_version"] = 4
        del v4["heap_baseline"], v4["speedup_vs_heap"]
        with ResultsStore(path) as store:
            ingest_doc(store, make_bench_doc(), source="old")
            ingest_doc(store, v4, source="new")
        dashboard = Dashboard(path)
        status, _, body = dashboard.render("/bench")
        assert status == 200 and "2.00x" in body.decode()
        runs = json.loads(dashboard.render("/api/bench")[2])["runs"]
        assert [r["speedup_vs_heap"] for r in runs] == [2.0, None]

    def test_unknown_routes_404(self, db):
        dashboard = Dashboard(db)
        assert dashboard.render("/nope")[0] == 404
        assert dashboard.render("/arena/999")[0] == 404
        assert dashboard.render("/cell/1/ffffffffffffffff")[0] == 404
        assert dashboard.render("/api/arena/999")[0] == 404

    def test_api_endpoints_serve_query_json(self, db):
        dashboard = Dashboard(db)
        status, ctype, body = dashboard.render("/api/summary")
        assert status == 200 and ctype == "application/json"
        summary = json.loads(body)
        assert summary["arena_runs"] == 2
        status, _, body = dashboard.render("/api/ranking-over-time")
        assert status == 200
        assert len(json.loads(body)["run_ids"]) == 2

    def test_cell_page_and_api(self, db):
        conn = connect_readonly(db)
        spec_hash = arena_cells(conn, 1)[0]["spec_hash"]
        dashboard = Dashboard(db)
        status, _, body = dashboard.render(f"/cell/1/{spec_hash}")
        assert status == 200
        assert spec_hash[:10] in body.decode()
        status, _, body = dashboard.render(f"/api/cell/1/{spec_hash}")
        detail = json.loads(body)
        assert [h["run_id"] for h in detail["history"]] == [1, 2]

    def test_query_strings_are_ignored(self, db):
        assert Dashboard(db).render("/arena?refresh=1")[0] == 200


class TestTraces:
    def test_trace_served_and_deep_linked(self, db, tmp_path):
        conn = connect_readonly(db)
        spec_hash = arena_cells(conn, 1)[0]["spec_hash"]
        traces = tmp_path / "traces"
        traces.mkdir()
        (traces / f"{spec_hash}.json").write_text('{"traceEvents": []}')
        dashboard = Dashboard(db, traces_dir=str(traces))
        status, ctype, body = dashboard.render(
            f"/traces/{spec_hash}.json")
        assert status == 200 and ctype == "application/json"
        page = dashboard.render(f"/cell/1/{spec_hash}",
                                host="localhost:8000")[2].decode()
        assert "ui.perfetto.dev" in page
        assert f"{spec_hash}.json" in page

    def test_no_traces_dir_hints_instead(self, db):
        conn = connect_readonly(db)
        spec_hash = arena_cells(conn, 1)[0]["spec_hash"]
        page = Dashboard(db).render(f"/cell/1/{spec_hash}")[2].decode()
        assert "No exported trace" in page

    def test_path_traversal_rejected(self, db, tmp_path):
        traces = tmp_path / "traces"
        traces.mkdir()
        (tmp_path / "secret.json").write_text("{}")
        dashboard = Dashboard(db, traces_dir=str(traces))
        # The route regex only admits [\w.-]+ names; dotted relative
        # names that resolve outside the directory are rejected too.
        assert dashboard.render("/traces/../secret.json")[0] == 404
        assert dashboard.render("/traces/..%2Fsecret.json")[0] == 404


class TestHttpRoundTrip:
    def test_threaded_server_serves_pages_and_api(self, db):
        server = make_server(db, port=0, quiet=True)
        host, port = server.server_address[:2]
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        try:
            base = f"http://{host}:{port}"
            with urllib.request.urlopen(f"{base}/", timeout=10) as resp:
                assert resp.status == 200
                assert "text/html" in resp.headers["Content-Type"]
                assert b"</html>" in resp.read()
            with urllib.request.urlopen(f"{base}/api/summary",
                                        timeout=10) as resp:
                assert json.loads(resp.read())["arena_runs"] == 2
            with urllib.request.urlopen(f"{base}/healthz",
                                        timeout=10) as resp:
                assert json.loads(resp.read())["ok"] is True
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_concurrent_requests_use_per_thread_connections(self, db):
        server = make_server(db, port=0, quiet=True)
        host, port = server.server_address[:2]
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        results, errors = [], []

        def fetch(path):
            try:
                with urllib.request.urlopen(
                        f"http://{host}:{port}{path}",
                        timeout=10) as resp:
                    results.append((path, resp.status))
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append((path, exc))

        try:
            workers = [threading.Thread(target=fetch, args=(p,))
                       for p in ("/", "/arena", "/faults", "/bench",
                                 "/api/summary", "/api/arena/runs")]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=15)
            assert not errors, errors
            assert sorted(s for _, s in results) == [200] * 6
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
