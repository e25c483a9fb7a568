"""Tests for the simulation engine's bounded compile cache (LRU eviction)."""

import numpy as np
import pytest

from repro.kernels import build_kernel
from repro.sim.engine import clear_compile_cache, compile_cache_size
from repro.sim.engine.cache import compiled_artifacts
from repro.verilog import generate_verilog_impl


def _design(size):
    artifacts = build_kernel("transpose", size=size)
    return generate_verilog_impl(artifacts.module, top=artifacts.top).design


class TestCompileCacheEviction:
    def test_cache_hit_reuses_artifacts(self):
        clear_compile_cache()
        design = _design(4)
        first = compiled_artifacts(design, None, {}, vector=False)
        second = compiled_artifacts(design, None, {}, vector=False)
        assert first is second
        assert compile_cache_size() == 1

    def test_cache_is_bounded_lru(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_CACHE_SIZE", "2")
        clear_compile_cache()
        designs = [_design(size) for size in (2, 3, 4)]
        for design in designs:
            compiled_artifacts(design, None, {}, vector=False)
        assert compile_cache_size() == 2
        # The oldest design was evicted; recompiling it is a fresh entry
        # (and evicts the next-oldest in turn).
        oldest = compiled_artifacts(designs[0], None, {}, vector=False)
        assert oldest is not None
        assert compile_cache_size() == 2
        clear_compile_cache()

    def test_recently_used_entry_survives_eviction(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_CACHE_SIZE", "2")
        clear_compile_cache()
        a, b, c = (_design(size) for size in (2, 3, 4))
        first_a = compiled_artifacts(a, None, {}, vector=False)
        compiled_artifacts(b, None, {}, vector=False)
        # Touch ``a`` so ``b`` is the least recently used when ``c`` lands.
        compiled_artifacts(a, None, {}, vector=False)
        compiled_artifacts(c, None, {}, vector=False)
        assert compiled_artifacts(a, None, {}, vector=False) is first_a
        clear_compile_cache()

    def test_zero_capacity_disables_caching(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_CACHE_SIZE", "0")
        clear_compile_cache()
        design = _design(4)
        first = compiled_artifacts(design, None, {}, vector=False)
        second = compiled_artifacts(design, None, {}, vector=False)
        assert first is not second
        assert compile_cache_size() == 0

    def test_simulation_still_correct_after_eviction(self, monkeypatch):
        import numpy as np

        monkeypatch.setenv("REPRO_SIM_CACHE_SIZE", "1")
        clear_compile_cache()
        artifacts = build_kernel("transpose", size=4)
        run, inputs = artifacts.simulate(seed=0, engine="compiled")
        # A second, different design evicts the first's artifacts...
        other = build_kernel("stencil_1d", size=8)
        other.simulate(seed=0, engine="compiled")
        # ...and the first still recompiles and simulates correctly.
        run2, inputs2 = artifacts.simulate(seed=1, engine="compiled")
        expected = artifacts.reference(inputs2)
        for name, reference in expected.items():
            assert np.array_equal(run2.memory_array(name),
                                  np.asarray(reference))
        clear_compile_cache()


class TestFailedCompileLeavesNoHalfEntry:
    """A compile that raises leaves its slot empty, so the next run on the
    same design recompiles it instead of calling a missing function."""

    @staticmethod
    def _fail_once(monkeypatch):
        import repro.sim.engine.cache as cache
        from repro.ir.errors import SimulationError
        original = cache.clock_source
        calls = []

        def clock_source(lowered, vector=False):
            calls.append(vector)
            if len(calls) == 1:
                raise SimulationError("injected clock codegen failure")
            return original(lowered, vector=vector)

        monkeypatch.setattr(cache, "clock_source", clock_source)
        return calls

    @staticmethod
    def _flow():
        from repro.flow import Flow, FlowConfig
        return Flow(build_kernel("transpose", size=4),
                    config=FlowConfig(store_dir=""))

    def test_scalar_clock_failure_recompiles(self, monkeypatch):
        from repro.ir.errors import SimulationError
        clear_compile_cache()
        clean = self._flow().simulate(seed=2, engine="compiled").value
        clear_compile_cache()
        flow = self._flow()
        calls = self._fail_once(monkeypatch)
        with pytest.raises(SimulationError, match="injected"):
            flow.simulate(seed=2, engine="compiled")
        again = flow.simulate(seed=2, engine="compiled").value
        assert calls == [False, False]
        assert again.run.cycles == clean.run.cycles
        assert np.array_equal(again.memory_array("Co"),
                              clean.memory_array("Co"))

    def test_lane_clock_failure_recompiles(self, monkeypatch):
        from repro.ir.errors import SimulationError
        clear_compile_cache()
        clean = self._flow().simulate_batch([2, 5]).value
        clear_compile_cache()
        flow = self._flow()
        calls = self._fail_once(monkeypatch)
        with pytest.raises(SimulationError, match="injected"):
            flow.simulate_batch([2, 5])
        again = flow.simulate_batch([2, 5]).value
        assert calls == [True, True]
        assert np.array_equal(again.run.cycles, clean.run.cycles)
        assert np.array_equal(again.memory_array("Co"),
                              clean.memory_array("Co"))
