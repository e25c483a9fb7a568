"""The bench-regression gate (:mod:`repro.obs.benchgate`).

The committed ``benchmarks/baseline.json`` plus this gate is what turns the
benchmark harness from a dashboard into a CI check; these tests pin the
comparison rules (seconds grow, speedups shrink, vanished benchmarks fail)
and both CLI exit modes against synthetic payloads.
"""

import json
import os

from repro.obs.benchgate import (compare, load_records, main, new_records,
                                 slowdown)
from repro.obs.metrics import bench_payload

BASELINE = {
    "simulate/gemm/compiled": {"name": "simulate/gemm/compiled",
                               "seconds": 0.10, "cycles": 500},
    "engine-speedup/gemm-16": {"name": "engine-speedup/gemm-16",
                               "cold_seconds": 0.5, "cold_speedup": 4.0},
}


def write_payload(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(bench_payload(records), handle)
    return str(path)


class TestCompare:
    def test_identical_runs_pass(self):
        assert compare(BASELINE, BASELINE) == []

    def test_within_tolerance_passes(self):
        fresh = {"simulate/gemm/compiled":
                 {"name": "simulate/gemm/compiled", "seconds": 0.14},
                 "engine-speedup/gemm-16":
                 {"name": "engine-speedup/gemm-16", "cold_seconds": 0.5,
                  "cold_speedup": 2.8}}
        assert compare(BASELINE, fresh, tolerance=1.5) == []

    def test_slower_seconds_fail(self):
        fresh = {"simulate/gemm/compiled":
                 {"name": "simulate/gemm/compiled", "seconds": 0.16},
                 "engine-speedup/gemm-16":
                 BASELINE["engine-speedup/gemm-16"]}
        problems = compare(BASELINE, fresh, tolerance=1.5)
        assert len(problems) == 1
        assert "seconds regressed" in problems[0]

    def test_shrunk_speedup_fails(self):
        fresh = {"simulate/gemm/compiled":
                 BASELINE["simulate/gemm/compiled"],
                 "engine-speedup/gemm-16":
                 {"name": "engine-speedup/gemm-16", "cold_seconds": 0.5,
                  "cold_speedup": 2.0}}
        problems = compare(BASELINE, fresh, tolerance=1.5)
        assert len(problems) == 1
        assert "cold_speedup fell" in problems[0]

    def test_vanished_benchmark_fails(self):
        fresh = {"simulate/gemm/compiled":
                 BASELINE["simulate/gemm/compiled"]}
        problems = compare(BASELINE, fresh)
        assert any("missing from the fresh run" in p for p in problems)

    def test_non_perf_metrics_are_ignored(self):
        fresh = {"simulate/gemm/compiled":
                 {"name": "simulate/gemm/compiled", "seconds": 0.10,
                  "cycles": 99999},        # cycle drift is not perf
                 "engine-speedup/gemm-16":
                 BASELINE["engine-speedup/gemm-16"]}
        assert compare(BASELINE, fresh) == []

    def test_extra_fresh_benchmarks_are_fine(self):
        fresh = dict(BASELINE)
        fresh["brand-new/bench"] = {"name": "brand-new/bench",
                                    "seconds": 99.0}
        assert compare(BASELINE, fresh) == []

    def test_new_records_lists_baseline_less_names(self):
        fresh = dict(BASELINE)
        fresh["brand-new/bench"] = {"name": "brand-new/bench",
                                    "seconds": 99.0}
        assert new_records(BASELINE, fresh) == ["brand-new/bench"]
        assert new_records(BASELINE, BASELINE) == []

    def test_slowdown_synthesizes_a_regression(self):
        slowed = slowdown(BASELINE, factor=2.0)
        assert slowed["simulate/gemm/compiled"]["seconds"] == 0.20
        assert slowed["engine-speedup/gemm-16"]["cold_speedup"] == 2.0
        assert compare(BASELINE, slowed) != []


class TestCli:
    def test_passing_gate_exits_zero(self, tmp_path, capsys):
        base = write_payload(tmp_path / "base.json",
                             list(BASELINE.values()))
        fresh = write_payload(tmp_path / "fresh.json",
                              list(BASELINE.values()))
        assert main(["--baseline", base, fresh]) == 0
        assert "benchgate: ok" in capsys.readouterr().out

    def test_regression_exits_one(self, tmp_path, capsys):
        base = write_payload(tmp_path / "base.json",
                             list(BASELINE.values()))
        fresh = write_payload(tmp_path / "fresh.json",
                              list(slowdown(BASELINE).values()))
        assert main(["--baseline", base, fresh]) == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_new_benchmark_passes_with_a_note(self, tmp_path, capsys):
        base = write_payload(tmp_path / "base.json",
                             list(BASELINE.values()))
        extra = list(BASELINE.values()) + [
            {"name": "engine-speedup/gemm-16-vector", "warm_speedup": 3.5}]
        fresh = write_payload(tmp_path / "fresh.json", extra)
        assert main(["--baseline", base, fresh]) == 0
        out = capsys.readouterr().out
        assert ("benchgate: note — engine-speedup/gemm-16-vector: "
                "no baseline, recorded") in out
        assert "benchgate: ok" in out

    def test_self_test_passes_iff_gate_trips(self, tmp_path, capsys):
        base = write_payload(tmp_path / "base.json",
                             list(BASELINE.values()))
        fresh = write_payload(tmp_path / "fresh.json",
                              list(BASELINE.values()))
        assert main(["--baseline", base, "--self-test", fresh]) == 0
        out = capsys.readouterr().out
        assert "self-test ok" in out
        assert "brand-new record tripped none" in out

    def test_self_test_fails_on_a_toothless_gate(self, tmp_path, capsys):
        # A baseline with no perf metrics gives the gate nothing to check,
        # so the synthetic slowdown sails through — the self-test reports it.
        base = write_payload(tmp_path / "base.json",
                             [{"name": "counts-only", "cycles": 10}])
        fresh = write_payload(tmp_path / "fresh.json",
                              [{"name": "counts-only", "cycles": 10}])
        assert main(["--baseline", base, "--self-test", fresh]) == 1
        assert "SELF-TEST FAILED" in capsys.readouterr().err

    def test_invalid_payload_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": 99, "records": []}')
        good = write_payload(tmp_path / "good.json",
                             list(BASELINE.values()))
        assert main(["--baseline", str(bad), good]) == 2
        assert main(["--baseline", good, str(bad)]) == 2


class TestCommittedBaseline:
    def test_committed_baseline_parses_and_has_the_core_records(self):
        path = os.path.join(os.path.dirname(__file__), "..", "..",
                            "benchmarks", "baseline.json")
        records = load_records(os.path.abspath(path))
        assert "engine-speedup/gemm-16" in records
        assert "compile-sweep" in records
        assert any(name.startswith("simulate/") for name in records)
        # the committed baseline must gate itself cleanly
        assert compare(records, records) == []
        assert compare(records, slowdown(records)) != []
