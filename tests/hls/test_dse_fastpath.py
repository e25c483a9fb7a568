"""Golden tests for the DSE fast path: memoization and pruning.

Every combination of :class:`HLSOptions` must pick the same schedules and
emit byte-identical Verilog as the seed-equivalent (unpruned, unmemoized)
sweep — that is the fast path's contract.
"""

import os
import subprocess
import sys

import pytest

import repro.hls.dse as dse

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


def test_import_chain_loads_no_pool_modules():
    """The sweep is serial, so the Flow / kernels / vector-engine import
    chain (the import floor of every simulate) loads no thread- or
    process-pool machinery."""
    code = ("import sys\n"
            "import repro.flow, repro.kernels, repro.sim.engine.vector\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith(('concurrent', 'multiprocessing'))))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(os.path.dirname(__file__), "..", "..",
                                   "src"),
                      env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


class TestPruning:
    def test_pruning_skips_points_but_keeps_the_choice(self):
        artifacts = build_kernel("transpose", **KERNEL_PARAMS["transpose"])
        program = artifacts.hls_program
        loop, _ = collect_innermost_loops(
            program.function(artifacts.hls_function).body)[0]
        clear_schedule_memo()
        full = explore_loop(loop, options=HLSOptions.seed_equivalent())
        clear_schedule_memo()
        pruned = explore_loop(loop, options=HLSOptions())
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
            fast = explore_loop(loop, options=HLSOptions())
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
        first = explore_loop(loops[0][0], options=HLSOptions())
        # Without port pragmas the three port scalings are identical design
        # points, so even the first sweep hits its own memo entries.
        assert first.scheduled > 0 and schedule_memo_size() > 0
        # Re-exploring the same loop answers everything from the cache.
        again = explore_loop(loops[0][0], options=HLSOptions())
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
            explore_loop(loop, options=HLSOptions())
        assert schedule_memo_size() <= 2
        clear_schedule_memo()

    def test_memo_can_be_disabled(self):
        clear_schedule_memo()
        artifacts = build_kernel("transpose", **KERNEL_PARAMS["transpose"])
        program = artifacts.hls_program
        loop, _ = collect_innermost_loops(
            program.function(artifacts.hls_function).body)[0]
        explore_loop(loop, options=HLSOptions(memoize=False))
        assert schedule_memo_size() == 0

    def test_interrupted_sweep_keeps_the_memo_sound(self, monkeypatch):
        # A sweep interrupted mid-way has memoized only the points it
        # finished, so a rerun over that memo emits what a clean compile does.
        clean_text, clean_report = _compile("gemm", HLSOptions())
        evaluate = dse._evaluate_point
        calls = []

        def interrupt_third(*args, **kwargs):
            calls.append(args)
            if len(calls) == 3:
                raise KeyboardInterrupt()
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(dse, "_evaluate_point", interrupt_third)
        with pytest.raises(KeyboardInterrupt):
            _compile("gemm", HLSOptions())
        assert schedule_memo_size() == 2
        monkeypatch.undo()

        artifacts = build_kernel("gemm", **KERNEL_PARAMS["gemm"])
        rerun = compile_program(artifacts.hls_program, artifacts.hls_function,
                                options=HLSOptions())
        assert emit_design(rerun.design) == clean_text
        # The two finished points were answered from the memo.
        assert rerun.report.dse_scheduled == clean_report.dse_scheduled - 2


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
