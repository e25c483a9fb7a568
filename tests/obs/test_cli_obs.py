"""CLI observability surface: --trace, --profile and ``repro stats``.

The acceptance contract of the PR: ``python -m repro simulate gemm --trace
out.json`` must leave a Chrome-loadable file with nested Flow-stage and
engine spans even on success or failure, and ``python -m repro stats``
must enumerate every registered cache with live hit rates plus the DSE
counters.
"""

import json

import pytest

from repro.__main__ import main
from repro.obs.tracer import TRACER


@pytest.fixture(autouse=True)
def clean_global_tracer():
    """--trace enables the process-wide tracer; never leak that state."""
    TRACER.clear()
    yield
    TRACER.disable()
    TRACER.clear()


@pytest.mark.tier1
class TestTraceFlag:
    def test_simulate_trace_writes_chrome_loadable_file(self, tmp_path,
                                                        capsys):
        trace = tmp_path / "out.json"
        code = main(["simulate", "gemm", "-p", "size=3",
                     "--trace", str(trace)])
        captured = capsys.readouterr()
        assert code == 0
        assert "wrote Chrome trace" in captured.err

        with open(trace) as handle:
            payload = json.load(handle)
        assert payload["traceEvents"]
        spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        names = {s["name"] for s in spans}
        # Flow stages and the engine's run span are both present...
        assert {"flow.hir", "flow.optimized", "flow.verilog",
                "flow.simulate", "sim.run"} <= names
        # ...and properly nested: sim.run sits inside flow.simulate.
        by_name = {s["name"]: s for s in spans}
        outer, inner = by_name["flow.simulate"], by_name["sim.run"]
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1.0

    def test_trace_written_even_when_command_fails(self, tmp_path, capsys):
        trace = tmp_path / "failed.json"
        code = main(["simulate", "gemm", "-p", "size=3",
                     "--engine", "warp-drive", "--trace", str(trace)])
        assert code != 0
        with open(trace) as handle:
            json.load(handle)  # still a valid (possibly sparse) trace

    def test_build_supports_trace(self, tmp_path, capsys):
        trace = tmp_path / "build.json"
        code = main(["build", "gemm", "-p", "size=3", "--trace", str(trace)])
        assert code == 0
        with open(trace) as handle:
            names = {e["name"] for e in json.load(handle)["traceEvents"]}
        assert "flow.verilog" in names


class TestProfileFlag:
    def test_simulate_profile_prints_histograms(self, capsys):
        code = main(["simulate", "gemm", "-p", "size=3", "--profile"])
        captured = capsys.readouterr()
        assert code == 0
        assert "profile [" in captured.err
        assert "cycles" in captured.err

    def test_compose_profile_reports_stream_edges(self, capsys):
        code = main(["compose", "gemm_pipeline", "-p", "size=3",
                     "--profile"])
        captured = capsys.readouterr()
        assert code == 0
        assert "edge " in captured.err  # per-edge stream buffer utilization


@pytest.mark.tier1
class TestStatsCommand:
    def test_stats_reports_every_cache_and_dse_counters(self, capsys):
        code = main(["stats", "gemm", "-p", "size=3", "--seeds", "2"])
        captured = capsys.readouterr()
        assert code == 0
        out = captured.out
        for cache in ("flow.stages", "sim.compile"):
            assert cache in out
        assert "hit rate" in out
        assert "dse." in out

    def test_stats_tree_view(self, capsys):
        code = main(["stats", "transpose", "-p", "size=4", "--seeds", "2",
                     "--tree"])
        captured = capsys.readouterr()
        assert code == 0
        assert "flow.verilog" in captured.out
