"""Ablation benchmarks for the compiler's main design choices:

* precision optimization on/off (register/LUT impact beyond Table 4),
* delay elimination / shift-register sharing on/off,
* memory-port optimization on/off,
* the baseline's design-space exploration on/off (compile-time impact),
* HIR code-generation cost as the PE array grows.
"""

import pytest

from repro.hls import compile_program
from repro.ir import PassManager
from repro.kernels import build_kernel, stencil1d, transpose
from repro.passes import (
    CanonicalizePass,
    DelayEliminationPass,
    MemPortOptimizationPass,
    PrecisionOptimizationPass,
)
from repro.resources import estimate_resources
from repro.verilog import generate_verilog_impl


def _resources(module, top):
    return estimate_resources(generate_verilog_impl(module, top=top).design)


@pytest.mark.table("ablation")
@pytest.mark.parametrize("enabled", [False, True], ids=["off", "on"])
def test_precision_optimization_ablation(benchmark, enabled):
    def run():
        design = transpose.build_hir(16)
        if enabled:
            PassManager().add(PrecisionOptimizationPass()).run(design.module)
        return _resources(design.module, "transpose")

    report = benchmark(run)
    assert report.ff > 0


def test_precision_optimization_saves_registers():
    baseline = _resources(transpose.build_hir(16).module, "transpose")
    optimized_design = transpose.build_hir(16)
    PassManager().add(PrecisionOptimizationPass()).run(optimized_design.module)
    optimized = _resources(optimized_design.module, "transpose")
    assert optimized.ff < baseline.ff
    assert optimized.lut < baseline.lut


@pytest.mark.table("ablation")
@pytest.mark.parametrize("enabled", [False, True], ids=["off", "on"])
def test_delay_elimination_ablation(benchmark, enabled):
    def run():
        design = stencil1d.build_hir(64)
        if enabled:
            PassManager().add(DelayEliminationPass(), CanonicalizePass()).run(design.module)
        return _resources(design.module, "stencil_1d")

    report = benchmark(run)
    assert report.ff > 0


def test_memport_optimization_reduces_luts():
    baseline_design = build_kernel("fifo", depth=512)
    baseline = _resources(baseline_design.module, "fifo_stream")
    optimized_design = build_kernel("fifo", depth=512)
    PassManager().add(MemPortOptimizationPass()).run(optimized_design.module)
    optimized = _resources(optimized_design.module, "fifo_stream")
    # The producer and consumer never touch the buffer in the same cycle, so
    # the buffer can be single-ported.
    assert optimized.lut <= baseline.lut


@pytest.mark.table("ablation")
@pytest.mark.parametrize("dse", [False, True], ids=["dse-off", "dse-on"])
def test_hls_dse_cost(benchmark, dse):
    """The baseline's DSE dominates its compile time (Table 6's mechanism)."""
    artifacts = build_kernel("histogram", pixels=256, bins=256)

    def run():
        return compile_program(artifacts.hls_program, artifacts.hls_function,
                               dse_enabled=dse)

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    assert result.design.modules


@pytest.mark.table("ablation")
@pytest.mark.parametrize("size", [2, 4, 8], ids=["2x2", "4x4", "8x8"])
def test_hir_codegen_scales_with_pe_array(benchmark, size):
    """HIR code-generation time vs PE-array size (the paper's GEMM outlier)."""
    def run():
        artifacts = build_kernel("gemm", size=size)
        return generate_verilog_impl(artifacts.module, top=artifacts.top)

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    assert result.statistics["functions"] == 1
