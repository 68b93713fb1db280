"""Tests for the command-line interface."""

import os

import pytest

from repro.harness.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_memory_defaults(self):
        args = build_parser().parse_args(["memory"])
        assert args.n_paths == 256
        assert args.bandwidth_gbps == 400.0

    def test_shared_flag_sets_keep_per_command_defaults(self):
        parse = build_parser().parse_args
        assert parse(["trace"]).nodes == 32
        assert parse(["profile"]).nodes == 8
        for argv in (["sweep"], ["arena"],
                     ["faults", "run", "--name", "link-flap-smoke"]):
            args = parse(argv)
            assert (args.workers, args.timeout, args.retries, args.resume,
                    args.cache, args.progress) \
                == (1, None, 2, None, None, False)
        assert parse(["serve"]).db == parse(["results", "list"]).db \
            == "results.sqlite"

    def test_motivation_scheme_validation(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["motivation", "--scheme", "nope"])


class TestCommands:
    def test_memory_output(self, capsys):
        assert main(["memory"]) == 0
        out = capsys.readouterr().out
        assert "192512" in out
        assert "192.5" in out

    def test_memory_custom_params(self, capsys):
        assert main(["memory", "--n-qp", "200"]) == 0
        out = capsys.readouterr().out
        assert "384512" in out  # 512 + 120*200*16

    def test_motivation_small(self, capsys):
        rc = main(["motivation", "--flow-bytes", "200000",
                   "--scheme", "themis"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "spurious retx ratio" in out
        assert "mean goodput" in out

    def test_pathmap(self, capsys):
        assert main(["pathmap", "--k", "4", "--src", "0",
                     "--dst", "15"]) == 0
        out = capsys.readouterr().out
        assert "PSN mod N" in out
        assert "core" in out

    def test_collective_quick(self, capsys):
        rc = main(["collective", "--collective", "allgather",
                   "--scheme", "themis", "--ti-us", "10",
                   "--td-us", "200"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tail completion" in out


class TestJsonExport:
    def test_collective_json_export(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        rc = main(["collective", "--collective", "allgather",
                   "--scheme", "ecmp", "--ti-us", "10",
                   "--td-us", "200", "--out", str(out)])
        assert rc == 0
        import json
        payload = json.loads(out.read_text())
        assert payload["scheme"] == "ecmp"
        assert payload["completed"]
        assert payload["tail_completion_ms"] > 0
        assert f"wrote {out}" in capsys.readouterr().out


class TestGlobalOutputFlags:
    def test_json_before_subcommand(self, capsys):
        import json
        assert main(["--json", "memory"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_bytes"] == 192512

    def test_json_after_subcommand(self, capsys):
        import json
        assert main(["memory", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_kb"] == 192.5

    def test_quiet_keeps_primary_output(self, capsys):
        assert main(["--quiet", "memory"]) == 0
        assert "192512" in capsys.readouterr().out

    def test_collective_json_path_flag_still_parses(self, capsys):
        """``--json`` means one thing everywhere: ``collective`` writes
        its file with ``--out`` like every other command, and prints the
        same document whichever side of the subcommand ``--json`` is."""
        args = build_parser().parse_args(
            ["collective", "--json", "--out", "out.json"])
        assert args.out == "out.json"
        assert args.json_mode is True
        run = ["collective", "--collective", "allgather", "--scheme",
               "ecmp", "--ti-us", "10", "--td-us", "200"]
        assert main(run + ["--json"]) == 0
        after = capsys.readouterr().out
        assert main(["--json"] + run) == 0
        assert after == capsys.readouterr().out
        assert after.startswith("{")


class TestTraceCommand:
    def test_nack_report(self, capsys):
        rc = main(["trace", "nacks", "--nodes", "6", "--bytes", "6000",
                   "--loss", "0.02", "--limit", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "NACK causality audit" in out
        assert "unexplained=0" in out

    def test_quiet_drops_progress_keeps_report(self, capsys):
        rc = main(["--quiet", "trace", "--nodes", "4",
                   "--bytes", "4000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "running traced" not in out
        assert "NACK causality audit" in out

    def test_json_mode_emits_audit_document(self, capsys):
        import json
        rc = main(["--json", "trace", "--nodes", "4", "--bytes", "4000"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"] == "nacks"
        assert payload["audit"]["unexplained"] == 0
        assert payload["metrics"]["trace_events"] > 0

    def test_perfetto_and_dump_artifacts(self, tmp_path, capsys):
        import json
        trace = tmp_path / "trace.json"
        dump = tmp_path / "flight.jsonl"
        rc = main(["trace", "--nodes", "4", "--bytes", "4000",
                   "--perfetto", str(trace), "--dump", str(dump)])
        assert rc == 0
        from repro.obs.perfetto import validate_chrome_trace
        assert validate_chrome_trace(json.loads(trace.read_text())) == []
        lines = dump.read_text().splitlines()
        assert json.loads(lines[0])["meta"] == "repro-flight-recorder"
        assert all(json.loads(ln) for ln in lines)

    def test_odd_node_count_rejected(self, capsys):
        assert main(["trace", "--nodes", "5"]) == 2
        assert capsys.readouterr().out == (
            "error: nodes must be even and >= 4\n")


class TestProfileCommand:
    def test_table_output(self, capsys):
        rc = main(["--quiet", "profile", "--nodes", "4", "--bytes",
                   "4000", "--top", "2"])
        assert rc == 0
        header, *rows, total = capsys.readouterr().out.splitlines()
        assert "handler" in header
        assert len(rows) == 2
        assert "total profiled wall time" in total

    def test_json_report(self, tmp_path, capsys):
        import json
        out_file = tmp_path / "profile.json"
        rc = main(["--json", "profile", "--nodes", "4",
                   "--bytes", "4000", "--out", str(out_file)])
        assert rc == 0
        stdout_doc = json.loads(capsys.readouterr().out)
        file_doc = json.loads(out_file.read_text())
        for doc in (stdout_doc, file_doc):
            assert doc["handlers"]
            assert doc["total_ms"] > 0
            assert {"handler", "calls", "total_ms", "mean_us",
                    "share"} <= set(doc["handlers"][0])


class TestUnwritableOutput:
    @pytest.mark.parametrize("argv", [
        ["profile", "--nodes", "4", "--bytes", "2000", "--out"],
        ["trace", "--nodes", "4", "--perfetto"],
        ["trace", "--nodes", "4", "--dump"],
        ["collective", "--out"],
        ["arena", "--quick", "--out"],
    ])
    def test_one_error_line_before_the_run(self, argv, tmp_path, capsys,
                                           monkeypatch):
        """An output path that cannot be written is refused up front
        (exit code 2, one ``error:`` line), not discovered by a
        traceback after the whole experiment ran."""
        blocker = tmp_path / "file"
        blocker.write_text("")

        def no_run(*args, **kwargs):
            raise AssertionError("experiment ran")

        monkeypatch.setattr("repro.harness.network.Network.run", no_run)
        assert main(argv + [str(blocker / "nope" / "x.json")]) == 2
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1 and out[0].startswith("error: cannot write")

    def test_writable_path_is_left_alone_until_written(self, tmp_path):
        target = tmp_path / "new" / "profile.json"
        assert main(["--quiet", "profile", "--nodes", "4", "--bytes",
                     "2000", "--out", str(target)]) == 0
        assert target.read_text().startswith("{")


class TestBadInput:
    @pytest.mark.parametrize("argv", [
        ["profile", "--nodes", "2"],
        ["trace", "--nodes", "8", "--name", "nope"],
        ["pathmap", "--k", "3"],
        ["memory", "--factor", "0.5"],
        ["arena", "--quick", "--lbs", "nope"],
        ["arena", "--quick", "--transports", "nope"],
        ["arena", "--quick", "--ccs", "nope"],
        ["arena", "--quick", "--workloads", ""],
        ["arena", "--quick", "--topos", "nope"],
        ["arena", "--quick", "--seeds", "0"],
        ["sweep", "--schemes", "nope"],
        ["faults", "run", "--name", "link-flap-smoke", "--seeds", "0"],
        ["trace", "--nodes", "8", "--spec", "no/such/scenario.json"],
        ["arena", "--quick", "--transports", "commodity"],
        ["collective", "--ti-us", "-1"],
        ["motivation", "--flow-bytes", "0"],
        ["arena", "--quick", "--bytes", "0"],
        ["arena", "--quick", "--deadline-us", "-5"],
    ])
    def test_one_error_line_and_nothing_runs(self, argv, capsys,
                                             monkeypatch):
        """A value no run could use is one ``error:`` line and exit code
        2 before any simulation or job starts, not a traceback after."""
        def no_run(*args, **kwargs):
            raise AssertionError("something ran")

        monkeypatch.setattr("repro.harness.network.Network.run", no_run)
        monkeypatch.setattr("repro.harness.jobs.JobRunner.run", no_run)
        assert main(argv) == 2
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1 and out[0].startswith("error: ")

    def test_trace_spec_naming_a_missing_cable(self, tmp_path, capsys,
                                               monkeypatch):
        import json
        spec_file = tmp_path / "nope.json"
        spec_file.write_text(json.dumps({
            "name": "nope",
            "layers": [{"kind": "link_flap", "link": "tor0:nope",
                        "at_us": 5, "down_us": 10}]}))
        self.test_one_error_line_and_nothing_runs(
            ["trace", "--nodes", "8", "--spec", str(spec_file)], capsys,
            monkeypatch)

    @pytest.mark.parametrize("doc", [
        {"name": "p", "layers": [{"kind": "link_flap",
                                  "link": "tor0:spine0", "at_us": None,
                                  "down_us": 10}]},
        {"name": "p", "layers": [{"kind": "link_flap",
                                  "link": "tor0:spine0", "at_us": 5,
                                  "down_us": 10, "repeat": "2"}]},
        {"name": "p", "layers": [{"kind": "degrade",
                                  "link": "tor0:spine0", "at_us": 5,
                                  "duration_us": 10, "factor": "0.5"}]},
        {"name": "p", "converge_us": "x", "layers": []},
        {"name": "p", "workload": {"nodes": 8, "message_byte": 400_000},
         "layers": []},
        {"name": "p", "workload": {"nodes": "8"}, "layers": []},
    ], ids=["null-at_us", "string-repeat", "string-factor",
            "string-converge_us", "misspelt-workload-key",
            "string-nodes"])
    @pytest.mark.parametrize("command", [
        ["faults", "show"], ["faults", "run"], ["trace", "--nodes", "8"]])
    def test_malformed_scenario_field(self, doc, command, tmp_path, capsys,
                                      monkeypatch):
        import json
        spec_file = tmp_path / "bad.json"
        spec_file.write_text(json.dumps(doc))
        self.test_one_error_line_and_nothing_runs(
            [*command, "--spec", str(spec_file)], capsys, monkeypatch)

    def test_failure_inside_a_running_simulation_still_raises(
            self, monkeypatch):
        def broken(self, until_ns=None):
            raise ValueError("mid-run")

        monkeypatch.setattr("repro.harness.network.Network.run", broken)
        with pytest.raises(ValueError, match="mid-run"):
            main(["--quiet", "trace", "--nodes", "4"])

    @pytest.mark.parametrize("command", [["list"], ["show", "1"]])
    def test_reading_a_missing_store_does_not_create_it(
            self, command, tmp_path, capsys):
        db = str(tmp_path / "missing.sqlite")
        assert main(["results", *command, "--db", db]) == 2
        out = capsys.readouterr().out.splitlines()
        assert out == [f"error: results store not found: {db} "
                       "(create one with 'repro results ingest')"]
        assert not os.path.exists(db)

    def test_ingest_of_a_document_sqlite_refuses_writes_nothing(
            self, tmp_path, capsys):
        """Passes the structural validator, fails the bench table's
        primary key after the run row and the first scenario row went in
        (a scenario measured on the engine the heap baseline names): one
        error line, exit 1, and the store holds no part of it."""
        import json
        from repro.results import ResultsStore
        from tests.results.test_store import make_bench_doc
        doc = make_bench_doc()
        doc["scenarios"]["alltoall-lossy"]["engine"] = "heap"
        path, db = tmp_path / "bench.json", str(tmp_path / "r.sqlite")
        path.write_text(json.dumps(doc))
        assert main(["results", "ingest", "--db", db, str(path)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out == [f"error: {path}: invalid bench doc: UNIQUE "
                       "constraint failed: bench_scenarios.run_id, "
                       "bench_scenarios.scenario, bench_scenarios.engine"]
        with ResultsStore(db) as store:
            assert store.counts()["runs"] == store.conn.execute(
                "SELECT COUNT(*) FROM bench_scenarios").fetchone()[0] == 0


class TestFaultsCommand:
    def test_list_names_builtins(self, capsys):
        assert main(["faults", "list"]) == 0
        out = capsys.readouterr().out
        assert "link-flap-smoke" in out
        assert "spine-reboot" in out

    def test_show_builtin_spec(self, capsys):
        import json
        assert main(["--json", "faults", "show", "--name",
                     "link-flap-smoke"]) == 0
        spec = json.loads(capsys.readouterr().out)
        assert spec["name"] == "link-flap-smoke"
        assert [e["kind"] for e in spec["events"]] == ["link_down",
                                                       "link_up"]

    def test_show_unknown_name_fails(self, capsys):
        assert main(["faults", "show", "--name", "nope"]) == 2
        assert "no builtin scenario" in capsys.readouterr().out

    def test_run_campaign_from_spec_file(self, tmp_path, capsys):
        import json
        spec_file = tmp_path / "flap.json"
        spec_file.write_text(json.dumps({
            "name": "cli-flap",
            "workload": {"nodes": 8, "message_bytes": 20000},
            "layers": [{"kind": "link_flap", "link": "tor0:spine0",
                        "at_us": 5, "down_us": 10}],
        }))
        out_file = tmp_path / "campaign.json"
        rc = main(["--json", "faults", "run", "--spec", str(spec_file),
                   "--seeds", "1", "--out", str(out_file)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "cli-flap"
        assert payload["aggregate"]["completed"] == 1
        assert payload["aggregate"]["unexplained_nacks"] == 0
        written = json.loads(out_file.read_text())
        assert written["cells"][0]["faults"]["applied"] == 2
        # The job counters ride the --json result, never the document:
        # a cache-warm re-run must write the same bytes.
        assert payload["jobs"]["jobs_completed"] == 1
        assert "jobs" not in written
        assert {**written, "jobs": payload["jobs"]} == payload

    def test_run_requires_spec_or_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults", "run"])

    def test_trace_with_fault_link_flag(self, capsys):
        """``--name link-flap-smoke`` is the run the retired
        ``--fault-link tor0:spine0 --fault-at-us 40 --fault-down-us 80``
        made (the numbers matched those flags' output on the commit
        before they went); they were re-pinned once since, when NIC
        uplinks became pull-mode TX arbiters."""
        import json
        rc = main(["--json", "trace", "nacks", "--nodes", "8",
                   "--bytes", "200000", "--name", "link-flap-smoke"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["audit"] == {
            "armed_open": 0, "blocked": 49, "cancelled": 25,
            "compensated": 24, "decisions": 49, "forwarded": 0,
            "no_state": 0, "no_tpsn": 0, "unexplained": 0}
        assert payload["metrics"] == {
            "cnps_generated": 35, "data_packets_sent": 8212, "drops": 428,
            "mean_goodput_gbps": 6.64, "nacks_generated": 62,
            "retransmissions": 428, "spurious_ratio": 0.0521,
            "themis_blocked": 49, "themis_compensated": 24,
            "themis_forwarded": 0, "trace_events": 84242,
            "trace_counts": {
                "cc_rate": 814, "deq": 29977, "drop": 428,
                "ecn_mark": 271, "enq": 24395, "fault_link_down": 1,
                "fault_link_up": 1, "fault_reconverge": 2, "hop": 27709,
                "nack_cancel": 25, "nack_classify": 49,
                "nack_compensate": 24, "nack_emit": 62, "qp_state": 484,
                "total": 84242}}
        assert payload["faults"] == {"spec": "link-flap-smoke",
                                     "scheduled": 2, "applied": 2,
                                     "recorded": 4}

    def test_trace_ignores_the_scenario_workload(self, capsys):
        """The scenario sizes campaigns (8 nodes, 200 kB); ``trace``
        takes only its fault schedule and says so in its help."""
        import json
        assert main(["--json", "trace", "--nodes", "4", "--bytes",
                     "20000", "--name", "link-flap-smoke"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"]["nodes"] == 4
        assert payload["params"]["bytes"] == 20000
        assert payload["faults"]["applied"] == 2
        with pytest.raises(SystemExit):
            main(["trace", "--help"])
        assert "'workload' section is ignored" in " ".join(
            capsys.readouterr().out.split())
