"""Table 6 — compile time of the HIR code generator vs the HLS baseline.

Each benchmark measures one compiler on one kernel at the paper's problem
sizes.  ``test_table6_summary`` then prints the regenerated table (measured
speedups next to the published 333x–2166x figures) and asserts the shape:
HIR code generation is faster on every kernel.
"""

import pytest

from repro.evaluation import table6
from repro.hls import compile_program
from repro.kernels import build_kernel
from repro.passes import optimization_pipeline
from repro.verilog import generate_verilog_impl

HIR_KERNELS = ["transpose", "stencil_1d", "histogram", "convolution", "gemm"]


def _hir_compile(artifacts):
    optimization_pipeline(verify_each=False).run(artifacts.module)
    return generate_verilog_impl(artifacts.module, top=artifacts.top)


@pytest.mark.table("table6")
@pytest.mark.parametrize("kernel", HIR_KERNELS)
def test_hir_code_generation_time(benchmark, paper_params, kernel):
    """HIR column of Table 6: optimization pipeline + Verilog generation."""
    def run():
        artifacts = build_kernel(kernel, **paper_params[kernel])
        return _hir_compile(artifacts)

    result = benchmark.pedantic(run, rounds=3 if kernel != "gemm" else 1,
                                iterations=1)
    assert result.design.top == build_kernel(kernel, **paper_params[kernel]).top


@pytest.mark.table("table6")
@pytest.mark.parametrize("kernel", HIR_KERNELS)
def test_hls_baseline_compile_time(benchmark, paper_params, kernel):
    """Baseline column of Table 6: scheduling, DSE, binding, RTL generation."""
    artifacts = build_kernel(kernel, **paper_params[kernel])

    def run():
        return compile_program(artifacts.hls_program, artifacts.hls_function)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.report.loops


@pytest.mark.table("table6")
def test_table6_summary(paper_params):
    """Regenerate the whole table once and check the paper's shape."""
    rows = table6.generate({k: paper_params[k] for k in HIR_KERNELS})
    print()
    print(table6.render(rows))
    assert table6.check_shape(rows)
