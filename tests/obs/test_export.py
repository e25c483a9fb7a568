"""Exporters: Chrome trace shape, full-Flow-session trace, stats tree.

The tier-1 contract: a complete Flow session (build → optimize → codegen →
simulate) produces a Chrome-loadable trace with properly nested Flow-stage
and engine spans, and the written file reads back as the same trace.
"""

import json

import pytest

from repro.flow import Flow, FlowConfig
from repro.kernels import build_kernel
from repro.obs.export import stats_tree, to_chrome_trace, write_chrome_trace
from repro.obs.tracer import Tracer


@pytest.fixture
def recorded():
    tracer = Tracer()
    tracer.enable()
    with tracer.span("outer", cat="flow", fingerprint="abc"):
        with tracer.span("inner"):
            pass
    tracer.count("hits", 3)
    tracer.gauge("depth", 2.5)
    tracer.event("mark", cat="test", detail="x")
    return tracer


class TestChromeTrace:
    def test_top_level_shape(self, recorded):
        trace = to_chrome_trace(recorded)
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        assert isinstance(trace["traceEvents"], list)

    def test_spans_become_complete_events(self, recorded):
        trace = to_chrome_trace(recorded)
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert {s["name"] for s in spans} == {"outer", "inner"}
        for span in spans:
            assert span["pid"] == 1
            assert span["ts"] >= 0 and span["dur"] >= 0

    def test_nesting_is_preserved_by_timestamps(self, recorded):
        trace = to_chrome_trace(recorded)
        by_name = {e["name"]: e for e in trace["traceEvents"]
                   if e["ph"] == "X"}
        outer, inner = by_name["outer"], by_name["inner"]
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-3

    def test_counters_gauges_events_exported(self, recorded):
        trace = to_chrome_trace(recorded)
        phases = {e["ph"] for e in trace["traceEvents"]}
        assert {"X", "C", "i"} <= phases
        counters = {e["name"]: e["args"]["value"]
                    for e in trace["traceEvents"] if e["ph"] == "C"}
        assert counters == {"hits": 3, "depth": 2.5}

    def test_written_file_is_valid_json(self, recorded, tmp_path):
        path = write_chrome_trace(str(tmp_path / "trace.json"), recorded)
        with open(path) as handle:
            assert json.load(handle)["traceEvents"]


@pytest.mark.tier1
class TestFlowSessionTrace:
    """One full Flow session, exported as a Chrome trace."""

    @pytest.fixture
    def session_tracer(self, monkeypatch):
        # The subsystems record into the global TRACER; swap a private one
        # in so parallel test state never leaks.
        tracer = Tracer()
        for module in ("repro.flow", "repro.ir.pass_manager",
                       "repro.hls.dse", "repro.sim.testbench",
                       "repro.sim.engine.vector"):
            monkeypatch.setattr(f"{module}.TRACER", tracer)
        return tracer

    def test_flow_session_round_trips(self, session_tracer, tmp_path):
        flow = Flow(build_kernel("gemm", size=3),
                    config=FlowConfig(trace=True))
        with session_tracer.activated(True):
            flow.validate(seed=0)

        names = {span["name"] for span in session_tracer.spans}
        assert {"flow.hir", "flow.optimized", "flow.verilog",
                "flow.simulate", "sim.run", "pass"} <= names

        # Pass spans nest under the optimize stage; the engine's run span
        # nests under the simulate stage.
        paths = {span["name"]: span["path"] for span in session_tracer.spans}
        assert paths["pass"] == "flow.optimized/pass"
        assert paths["sim.run"] == "flow.simulate/sim.run"

        path = write_chrome_trace(str(tmp_path / "session.json"),
                                  session_tracer)
        with open(path) as handle:
            assert json.load(handle) == to_chrome_trace(session_tracer)

        tree = stats_tree(session_tracer)
        assert "flow.optimized" in tree and "counters:" in tree


class TestStatsTree:
    def test_empty_tracer(self):
        assert "no recordings" in stats_tree(Tracer())

    def test_aggregates_repeated_paths(self):
        tracer = Tracer()
        tracer.enable()
        for _ in range(4):
            with tracer.span("work"):
                pass
        assert "x4" in stats_tree(tracer)
