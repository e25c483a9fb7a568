"""The cache registry: every toolchain cache enumerable with live stats."""

from repro.flow import Flow
from repro.kernels import build_kernel
from repro.obs.cachestats import (
    CacheStats,
    all_cache_stats,
    register_cache,
    registered_caches,
    render_cache_report,
)


class TestCacheStatsValue:
    def test_hit_rate(self):
        stats = CacheStats(name="x", capacity=8, size=2, hits=3, misses=1,
                           evictions=0)
        assert stats.accesses == 4
        assert stats.hit_rate == 0.75

    def test_hit_rate_before_first_access(self):
        stats = CacheStats(name="x", capacity=None, size=0, hits=0, misses=0,
                           evictions=0)
        assert stats.hit_rate == 0.0

    def test_as_dict_round_trips_fields(self):
        stats = CacheStats(name="x", capacity=None, size=1, hits=2, misses=2,
                           evictions=1)
        payload = stats.as_dict()
        assert payload["capacity"] is None
        assert payload["hit_rate"] == 0.5


class TestRegistry:
    def test_builtin_trio_is_registered(self):
        all_cache_stats()  # force-registers the builtins
        names = registered_caches()
        assert {"dse.memo", "flow.stages", "sim.compile"} <= set(names)

    def test_custom_provider_appears_and_is_replaceable(self):
        register_cache("test.custom", lambda: CacheStats(
            name="test.custom", capacity=1, size=1, hits=9, misses=1,
            evictions=0))
        try:
            stats = {s.name: s for s in all_cache_stats()}
            assert stats["test.custom"].hits == 9
        finally:
            from repro.obs import cachestats
            cachestats._PROVIDERS.pop("test.custom", None)

    def test_report_renders_every_cache_with_capacity(self):
        report = render_cache_report()
        assert "sim.compile" in report
        assert "dse.memo" in report
        assert "flow.stages" in report
        assert "hit rate" in report


class TestLiveCounters:
    def test_sim_compile_counts_hits_and_misses(self):
        from repro.sim.engine import cache as sim_cache

        flow = Flow(build_kernel("transpose", size=4))
        design = flow.design

        def snapshot():
            return {s.name: s for s in all_cache_stats()}["sim.compile"]

        before = snapshot()
        from repro.sim.engine import create_simulator
        create_simulator(design, engine="compiled")
        after_miss = snapshot()
        create_simulator(design, engine="compiled")
        after_hit = snapshot()
        assert after_miss.misses == before.misses + 1
        assert after_hit.hits == after_miss.hits + 1
        assert after_hit.size >= 1
        assert after_hit.capacity == sim_cache._cache_capacity()

    def test_flow_stage_cache_counts_and_sizes(self):
        def snapshot():
            return {s.name: s for s in all_cache_stats()}["flow.stages"]

        before = snapshot()
        flow = Flow(build_kernel("transpose", size=4))
        flow.verilog()          # misses hir, optimized, verilog
        mid = snapshot()
        flow.verilog()          # hits hir, optimized, verilog
        after = snapshot()
        assert mid.misses >= before.misses + 3
        assert after.hits >= mid.hits + 3
        assert after.size >= before.size + 3

    def test_flow_stage_size_drops_when_session_dies(self):
        def size():
            return {s.name: s for s in all_cache_stats()}["flow.stages"].size

        flow = Flow(build_kernel("transpose", size=4))
        flow.verilog()
        with_session = size()
        del flow
        assert size() <= with_session - 3

    def test_dse_memo_counts_through_a_compile(self):
        from repro.hls import compile_program
        from repro.hls.dse import clear_schedule_memo

        artifacts = build_kernel("gemm", size=3)
        clear_schedule_memo()   # other tests may have memoized this program

        def snapshot():
            return {s.name: s for s in all_cache_stats()}["dse.memo"]

        before = snapshot()
        compile_program(artifacts.hls_program, artifacts.hls_function)
        after_cold = snapshot()
        compile_program(artifacts.hls_program, artifacts.hls_function)
        after_warm = snapshot()
        assert after_cold.misses > before.misses
        # The second compile re-schedules identical design points.
        assert after_warm.hits > after_cold.hits


class TestConfiguredCapacity:
    def test_setter_override_is_visible_in_stats(self):
        from repro.hls.dse import set_memo_capacity
        from repro.sim.engine.cache import set_cache_capacity
        previous_sim = set_cache_capacity(3)
        previous_memo = set_memo_capacity(7)
        try:
            stats = {s.name: s for s in all_cache_stats()}
            assert stats["sim.compile"].capacity == 3
            assert stats["dse.memo"].capacity == 7
        finally:
            set_cache_capacity(previous_sim)
            set_memo_capacity(previous_memo)

    def test_env_capacity_is_visible_in_stats(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_CACHE_SIZE", "5")
        monkeypatch.setenv("REPRO_DSE_MEMO_SIZE", "11")
        stats = {s.name: s for s in all_cache_stats()}
        assert stats["sim.compile"].capacity == 5
        assert stats["dse.memo"].capacity == 11
