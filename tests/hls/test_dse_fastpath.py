"""Golden tests for the DSE fast path: pruning on shared graphs.

The default compile must pick the same schedules and emit byte-identical
Verilog as the seed-equivalent (unpruned, graph-rebuilding) sweep — that is
the fast path's contract.
"""

import os
import subprocess
import sys

import pytest

from repro.hls import compile_program, explore_loop
from repro.hls.dse import collect_innermost_loops
from repro.kernels import build_kernel, kernel_names
from repro.verilog.emitter import emit_design

#: Every kernel with an HLS program, at small sizes.
KERNEL_PARAMS = {
    "transpose": {"size": 8},
    "stencil_1d": {"size": 32},
    "histogram": {"pixels": 64, "bins": 64},
    "gemm": {"size": 4},
    "convolution": {"size": 8},
    "matvec": {"size": 6},
    "prefix_sum": {"size": 16},
    "spmv": {"rows": 6, "nnz": 3},
}

#: ``benchmarks/bench_compile_time.py``'s smoke sweep, in its order.
SMOKE_SWEEP = {
    "transpose": {"size": 8},
    "stencil_1d": {"size": 32},
    "histogram": {"pixels": 64, "bins": 64},
    "gemm": {"size": 8},
    "convolution": {"size": 8},
}


def _compile(kernel, seed_equivalent=False):
    artifacts = build_kernel(kernel, **KERNEL_PARAMS[kernel])
    result = compile_program(artifacts.hls_program, artifacts.hls_function,
                             seed_equivalent=seed_equivalent)
    return emit_design(result.design), result.report


def test_every_hls_kernel_is_covered():
    assert set(KERNEL_PARAMS) == {
        name for name in kernel_names()
        if build_kernel(name).hls_builder is not None}


@pytest.mark.parametrize("kernel", sorted(KERNEL_PARAMS))
def test_fast_path_matches_seed_bit_for_bit(kernel):
    seed_text, seed_report = _compile(kernel, seed_equivalent=True)
    fast_text, fast_report = _compile(kernel)
    assert fast_text == seed_text
    assert fast_report.estimated_resources == seed_report.estimated_resources
    # The fast path really did less work.
    assert fast_report.dse_scheduled < fast_report.dse_evaluations
    assert seed_report.dse_scheduled == seed_report.dse_evaluations


def test_only_a_seed_equivalent_compile_runs_the_seed_scans(monkeypatch):
    """The seed-equivalent compiler switches the O(E) dependence scans on
    for its own duration; a default compile never sees them."""
    from repro.hls import scheduling
    seen = set()
    list_schedule = scheduling.list_schedule

    def spy(*args, **kwargs):
        seen.add(scheduling.LEGACY_SCANS)
        return list_schedule(*args, **kwargs)

    monkeypatch.setattr(scheduling, "list_schedule", spy)
    _compile("transpose", seed_equivalent=True)
    assert seen == {True}
    assert scheduling.LEGACY_SCANS is False
    seen.clear()
    _compile("transpose")
    assert seen == {False}


def test_a_second_compile_in_one_process_schedules_again():
    """Compiling one program twice repeats the sweep: nothing carries
    schedules from one compile to the next, so both compiles schedule the
    same design points and emit the same Verilog."""
    first_text, first = _compile("gemm")
    second_text, second = _compile("gemm")
    assert second_text == first_text
    assert second.dse_scheduled == first.dse_scheduled > 0


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
        full = explore_loop(loop, seed_equivalent=True)
        pruned = explore_loop(loop)
        assert pruned.pruned > 0
        assert pruned.evaluations == full.evaluations  # points examined
        assert len(pruned.candidates) < len(full.candidates)
        chosen_full, chosen_fast = full.chosen, pruned.chosen
        assert (chosen_full.initiation_interval, chosen_full.unroll_factor,
                chosen_full.cost) == (chosen_fast.initiation_interval,
                                      chosen_fast.unroll_factor,
                                      chosen_fast.cost)

    def test_the_best_bound_seeds_the_incumbent(self):
        """The Table 6 smoke sweep (the benchmark's sizes) examines 240
        design points and schedules only 57: the spec with the lowest lower
        bound is evaluated first, so the incumbent prunes 183 (seeded in
        enumeration order, it scheduled 70).  The Verilog is the unpruned
        sweep's."""
        def sweep(seed_equivalent):
            texts, counts = [], [0, 0, 0]
            for kernel, params in SMOKE_SWEEP.items():
                artifacts = build_kernel(kernel, **params)
                result = compile_program(artifacts.hls_program,
                                         artifacts.hls_function,
                                         seed_equivalent=seed_equivalent)
                texts.append(emit_design(result.design))
                report = result.report
                counts[0] += report.dse_evaluations
                counts[1] += report.dse_pruned
                counts[2] += report.dse_scheduled
            return texts, counts

        fast, counts = sweep(seed_equivalent=False)
        assert counts == [240, 183, 57]
        assert fast == sweep(seed_equivalent=True)[0]

    def test_directive_loops_prune_safely(self):
        artifacts = build_kernel("histogram", **KERNEL_PARAMS["histogram"])
        program = artifacts.hls_program
        for loop, _ in collect_innermost_loops(
                program.function(artifacts.hls_function).body):
            full = explore_loop(loop, seed_equivalent=True)
            fast = explore_loop(loop)
            assert (full.chosen.initiation_interval
                    == fast.chosen.initiation_interval)
            assert full.chosen.cost == fast.chosen.cost
