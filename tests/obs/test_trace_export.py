"""Tests for trace-artifact serialization and the chrome emitter."""

import json

from repro import design as designs
from repro.gpu.config import GPUConfig
from repro.harness.runner import run_app
from repro.obs import StallCat
from repro.obs.chrome import ASSIST_TID, ChromeTraceCollector
from repro.obs.export import (
    payload_csv,
    payload_json,
    render_ledger,
    write_trace_files,
)
from repro.workloads.tracegen import TraceScale

SCALE = TraceScale(work=0.25, waves=0.25)


def _traced_payload(chrome=False):
    run = run_app("PVC", designs.caba("bdi"), GPUConfig.small(),
                  scale=SCALE, use_cache=False, trace=True, chrome=chrome)
    return run.obs


class TestChromeCollector:
    def test_run_length_encoding_merges_repeats(self):
        chrome = ChromeTraceCollector()
        for _ in range(5):
            chrome.note_slot(0, 0, int(StallCat.IDLE), 1)
        chrome.note_slot(0, 0, int(StallCat.ISSUE), 1)
        chrome.flush()
        events = chrome.export()["traceEvents"]
        assert len(events) == 2
        assert events[0]["name"] == "idle"
        assert events[0]["dur"] == 5
        assert events[1]["name"] == "issue"
        assert events[1]["ts"] == 5

    def test_event_cap_counts_drops(self):
        chrome = ChromeTraceCollector(max_events=2)
        for cat in (0, 1, 2, 3, 4, 5):
            chrome.note_slot(0, 0, cat, 1)
        chrome.flush()
        exported = chrome.export()
        assert len(exported["traceEvents"]) == 2
        assert exported["metadata"]["dropped_events"] > 0

    def test_assist_events_use_their_own_row(self):
        chrome = ChromeTraceCollector()
        chrome.assist_event(3, "decompress", 17, 100, 140, completed=True)
        chrome.assist_event(3, "compress", 18, 150, 150, completed=False)
        events = chrome.export()["traceEvents"]
        assert all(e["tid"] == ASSIST_TID for e in events)
        assert events[0]["name"] == "decompress:17"
        assert "cancelled" in events[1]["name"]
        assert events[1]["dur"] >= 1


class TestPayloadWriters:
    def test_json_is_deterministic_and_newline_terminated(self):
        payload = _traced_payload()
        text = payload_json(payload)
        assert text == payload_json(json.loads(text))
        assert text.endswith("\n")

    def test_csv_covers_ledger_and_metrics(self):
        payload = _traced_payload()
        csv = payload_csv(payload)
        lines = csv.strip().splitlines()
        assert lines[0] == "kind,name,field,value"
        assert any(line.startswith("ledger,total,dram,") for line in lines)
        assert any(line.startswith("ledger,sm0,") for line in lines)

    def test_write_trace_files(self, tmp_path):
        payload = _traced_payload(chrome=True)
        written = write_trace_files(payload, tmp_path, "pvc-caba")
        names = sorted(p.name for p in written)
        assert names == ["pvc-caba.chrome.json", "pvc-caba.csv",
                         "pvc-caba.json"]
        for path in written:
            assert path.exists() and path.stat().st_size > 0
        chrome = json.loads((tmp_path / "pvc-caba.chrome.json").read_text())
        assert chrome["traceEvents"]
        assert chrome["metadata"]["clock"] == "simulated-cycles"

    def test_chrome_file_skipped_without_chrome_payload(self, tmp_path):
        payload = _traced_payload(chrome=False)
        assert "chrome" not in payload
        written = write_trace_files(payload, tmp_path, "plain")
        assert sorted(p.name for p in written) == ["plain.csv", "plain.json"]

    def test_render_ledger_table(self):
        payload = _traced_payload()
        table = render_ledger(payload)
        assert "DRAM Wait" in table
        assert "Assist-Warp Issue" in table
        assert "total" in table
        # Shares sum to ~100%; the total row always says 100.0%.
        assert "100.0%" in table


class TestRunnerObsPayload:
    def test_runresult_obs_counters_match_scalars(self):
        run = run_app("MM", designs.caba("bdi"), GPUConfig.small(),
                      scale=SCALE, use_cache=False, trace=True)
        total_slots = sum(run.obs["ledger"]["totals"].values())
        n_sched = GPUConfig.small().schedulers_per_sm
        n_sms = GPUConfig.small().n_sms
        assert total_slots == run.cycles * n_sched * n_sms

    def test_payload_is_the_ledger_plus_optional_chrome(self):
        assert set(_traced_payload()) == {"ledger"}
        assert set(_traced_payload(chrome=True)) == {"ledger", "chrome"}

    def test_chrome_trace_carries_assist_warp_events(self):
        """The CABA controller feeds assist-warp lifetimes straight to
        the chrome collector, on their own row of each SM."""
        events = _traced_payload(chrome=True)["chrome"]["traceEvents"]
        assist = [e for e in events if e["tid"] == ASSIST_TID]
        assert assist
        assert all(e["cat"] == "assist" for e in assist)
        assert any(e["name"].startswith("decompress:") for e in assist)

    def test_untraced_run_has_no_obs(self):
        run = run_app("MM", designs.base(), GPUConfig.small(),
                      scale=SCALE, use_cache=False, trace=False)
        assert run.obs is None
