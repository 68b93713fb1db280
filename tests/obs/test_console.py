"""Tests for the CLI console output helper."""

import io
import json

from repro.obs.console import Console


def make(**kw):
    out = io.StringIO()
    return Console(stream=out, **kw), out


class TestModes:
    def test_default_prints_info_and_out(self):
        console, out = make()
        console.info("progress...")
        console.out("result line")
        assert out.getvalue() == "progress...\nresult line\n"

    def test_quiet_drops_info_keeps_out(self):
        console, out = make(quiet=True)
        console.info("progress...")
        console.out("result line")
        assert out.getvalue() == "result line\n"

    def test_json_mode_emits_only_the_document(self):
        console, out = make(json_mode=True)
        console.info("progress...")
        console.out("result line")
        console.result({"b": 2, "a": 1})
        assert json.loads(out.getvalue()) == {"a": 1, "b": 2}

    def test_result_not_printed_in_human_mode(self):
        console, out = make()
        console.result({"a": 1})
        assert out.getvalue() == ""
        assert console.last_result == {"a": 1}

    def test_progress_printer_respects_quiet(self):
        console, out = make(quiet=True)
        console.progress_printer()("job 1/10")
        assert out.getvalue() == ""
        console2, out2 = make()
        console2.progress_printer()("job 1/10")
        assert out2.getvalue() == "job 1/10\n"
