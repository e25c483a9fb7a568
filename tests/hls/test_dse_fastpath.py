"""Golden tests for the DSE fast path: memoization, pruning, parallelism.

Every combination of :class:`HLSOptions` must pick the same schedules and
emit byte-identical Verilog as the seed-equivalent (serial, unpruned,
unmemoized) sweep — that is the fast path's contract.
"""

import pytest

from repro.hls import (
    HLSOptions,
    clear_schedule_memo,
    compile_program,
    explore_loop,
    graph_signature,
    schedule_memo_size,
)
from repro.hls.dse import collect_innermost_loops
from repro.hls.scheduling import DFGBuilder
from repro.kernels import build_kernel
from repro.verilog.emitter import emit_design

KERNEL_PARAMS = {
    "transpose": {"size": 8},
    "stencil_1d": {"size": 32},
    "histogram": {"pixels": 64, "bins": 64},
    "gemm": {"size": 4},
    "convolution": {"size": 8},
}


def _compile(kernel, options):
    clear_schedule_memo()
    artifacts = build_kernel(kernel, **KERNEL_PARAMS[kernel])
    result = compile_program(artifacts.hls_program, artifacts.hls_function,
                             options=options)
    return emit_design(result.design), result.report


@pytest.mark.parametrize("kernel", sorted(KERNEL_PARAMS))
def test_fast_path_matches_seed_bit_for_bit(kernel):
    seed_text, _ = _compile(kernel, HLSOptions.seed_equivalent())
    fast_text, fast_report = _compile(kernel, HLSOptions())
    assert fast_text == seed_text
    # The fast path really did less work.
    assert fast_report.dse_scheduled < fast_report.dse_evaluations


@pytest.mark.parametrize("kernel", sorted(KERNEL_PARAMS))
def test_parallel_dse_is_deterministic_and_identical(kernel):
    serial_text, serial_report = _compile(kernel, HLSOptions(jobs=1))
    thread_text, thread_report = _compile(kernel, HLSOptions(jobs=4))
    assert thread_text == serial_text
    # The same loops end up with the same chosen IIs.
    assert ([loop.initiation_interval for loop in thread_report.loops]
            == [loop.initiation_interval for loop in serial_report.loops])


def test_parallel_process_pool_identical_on_gemm():
    serial_text, _ = _compile("gemm", HLSOptions(jobs=1))
    process_text, _ = _compile("gemm", HLSOptions(jobs=2,
                                                  executor="process"))
    assert process_text == serial_text


class TestPruning:
    def test_pruning_skips_points_but_keeps_the_choice(self):
        artifacts = build_kernel("transpose", **KERNEL_PARAMS["transpose"])
        program = artifacts.hls_program
        loop, _ = collect_innermost_loops(
            program.function(artifacts.hls_function).body)[0]
        clear_schedule_memo()
        full = explore_loop(loop, options=HLSOptions.seed_equivalent())
        clear_schedule_memo()
        pruned = explore_loop(loop, options=HLSOptions(jobs=1))
        assert pruned.pruned > 0
        assert pruned.evaluations == full.evaluations  # points examined
        assert len(pruned.candidates) < len(full.candidates)
        chosen_full, chosen_fast = full.chosen, pruned.chosen
        assert (chosen_full.initiation_interval, chosen_full.unroll_factor,
                chosen_full.cost) == (chosen_fast.initiation_interval,
                                      chosen_fast.unroll_factor,
                                      chosen_fast.cost)

    def test_directive_loops_prune_safely(self):
        artifacts = build_kernel("histogram", **KERNEL_PARAMS["histogram"])
        program = artifacts.hls_program
        for loop, _ in collect_innermost_loops(
                program.function(artifacts.hls_function).body):
            clear_schedule_memo()
            full = explore_loop(loop, options=HLSOptions.seed_equivalent())
            clear_schedule_memo()
            fast = explore_loop(loop, options=HLSOptions(jobs=1))
            assert (full.chosen.initiation_interval
                    == fast.chosen.initiation_interval)
            assert full.chosen.cost == fast.chosen.cost


class TestMemoization:
    def test_identical_loops_hit_the_memo(self):
        artifacts = build_kernel("gemm", **KERNEL_PARAMS["gemm"])
        program = artifacts.hls_program
        loops = collect_innermost_loops(
            program.function(artifacts.hls_function).body)
        clear_schedule_memo()
        first = explore_loop(loops[0][0], options=HLSOptions(jobs=1))
        # Without port pragmas the three port scalings are identical design
        # points, so even the first sweep hits its own memo entries.
        assert first.scheduled > 0 and schedule_memo_size() > 0
        # Re-exploring the same loop answers everything from the cache.
        again = explore_loop(loops[0][0], options=HLSOptions(jobs=1))
        assert again.scheduled == 0
        assert again.memo_hits == len(again.candidates)
        assert (again.chosen.initiation_interval
                == first.chosen.initiation_interval)

    def test_memo_capacity_is_bounded(self, monkeypatch):
        monkeypatch.setenv("REPRO_DSE_MEMO_SIZE", "2")
        clear_schedule_memo()
        artifacts = build_kernel("gemm", **KERNEL_PARAMS["gemm"])
        program = artifacts.hls_program
        for loop, _ in collect_innermost_loops(
                program.function(artifacts.hls_function).body):
            explore_loop(loop, options=HLSOptions(jobs=1))
        assert schedule_memo_size() <= 2
        clear_schedule_memo()

    def test_memo_can_be_disabled(self):
        clear_schedule_memo()
        artifacts = build_kernel("transpose", **KERNEL_PARAMS["transpose"])
        program = artifacts.hls_program
        loop, _ = collect_innermost_loops(
            program.function(artifacts.hls_function).body)[0]
        explore_loop(loop, options=HLSOptions(jobs=1, memoize=False))
        assert schedule_memo_size() == 0


class TestGraphSignature:
    def test_equal_bodies_share_a_signature(self):
        artifacts = build_kernel("transpose", **KERNEL_PARAMS["transpose"])
        loop, _ = collect_innermost_loops(
            artifacts.hls_program.function(artifacts.hls_function).body)[0]
        a = DFGBuilder().build(loop.body)
        b = DFGBuilder().build(loop.body)
        assert a is not b
        assert graph_signature(a) == graph_signature(b)

    def test_different_bodies_differ(self):
        t = build_kernel("transpose", **KERNEL_PARAMS["transpose"])
        s = build_kernel("stencil_1d", **KERNEL_PARAMS["stencil_1d"])
        t_loop, _ = collect_innermost_loops(
            t.hls_program.function(t.hls_function).body)[0]
        s_loop, _ = collect_innermost_loops(
            s.hls_program.function(s.hls_function).body)[0]
        assert (graph_signature(DFGBuilder().build(t_loop.body))
                != graph_signature(DFGBuilder().build(s_loop.body)))


class TestOptions:
    def test_env_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_DSE_JOBS", "3")
        monkeypatch.setenv("REPRO_DSE_EXECUTOR", "process")
        options = HLSOptions()
        assert options.jobs == 3 and options.executor == "process"

    def test_garbage_env_jobs_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_DSE_JOBS", "lots")
        assert HLSOptions().jobs == 1

    def test_explicit_jobs_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DSE_JOBS", "8")
        assert HLSOptions(jobs=2).jobs == 2

    def test_invalid_options_rejected(self):
        with pytest.raises(ValueError):
            HLSOptions(jobs=0)
        with pytest.raises(ValueError):
            HLSOptions(executor="rayon")
