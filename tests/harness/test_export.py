"""Tests for CSV/JSON result export."""

import csv
import json

from repro.harness.export import FLOW_FIELDS, flows_to_csv, run_to_json
from repro.harness.network import Network, NetworkConfig, TopologySpec


class TestExport:
    def _run(self):
        topo = TopologySpec(kind="leaf_spine", num_tors=2, num_spines=2,
                            nics_per_tor=2, link_bandwidth_bps=25e9)
        net = Network(NetworkConfig(topology=topo, scheme="themis"))
        net.post_message(0, 2, 100_000)
        net.post_message(3, 1, 50_000)
        net.run(until_ns=10_000_000_000)
        return net

    def test_flows_to_csv(self, tmp_path):
        net = self._run()
        path = flows_to_csv(net.metrics, tmp_path / "flows.csv")
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert set(rows[0]) == set(FLOW_FIELDS)
        by_src = {row["src"]: row for row in rows}
        assert by_src["0"]["bytes_posted"] == "100000"
        assert float(by_src["0"]["goodput_gbps"]) > 0

    def test_run_to_json(self, tmp_path):
        net = self._run()
        path = run_to_json(net.metrics, tmp_path / "run.json",
                           extra={"scheme": "themis"})
        payload = json.loads(path.read_text())
        assert payload["experiment"]["scheme"] == "themis"
        assert len(payload["flows"]) == 2
        themis = payload["themis"]
        assert list(themis) == ["nacks_inspected", "nacks_blocked",
                                "nacks_forwarded", "nacks_compensated",
                                "tpsn_not_found", "queue_overflows"]
        assert themis["nacks_inspected"] \
            == themis["nacks_blocked"] + themis["nacks_forwarded"]
        assert payload["summary"]["data_packets_sent"] > 0
