"""Table 5 — FPGA resource usage of the six kernels, HIR vs the baseline.

The benchmark times the HIR flow (optimize + generate + estimate) per kernel;
the summary test regenerates the full table (both compilers) once, prints it
next to the published numbers and asserts the qualitative shape (DSP/BRAM
parity, LUT/FF directions).  ``test_resource_model_on_gemm16`` times the
resource model alone and records ``resources/gemm-16`` for the bench gate.
"""

import time

import pytest

from repro.evaluation import table5
from repro.kernels import build_kernel
from repro.passes import optimization_pipeline
from repro.resources import estimate_resources
from repro.verilog import generate_verilog_impl

KERNELS = ["transpose", "stencil_1d", "histogram", "convolution", "fifo", "gemm"]

#: Calls of the resource-model benchmark (the best one is recorded).
REPEATS = 5


@pytest.mark.table("table5")
@pytest.mark.parametrize("kernel", KERNELS)
def test_hir_resource_estimation(benchmark, paper_params, kernel):
    """Time the HIR compile + resource estimation used for the HIR column."""
    def run():
        artifacts = build_kernel(kernel, **paper_params[kernel])
        optimization_pipeline(verify_each=False).run(artifacts.module)
        design = generate_verilog_impl(artifacts.module, top=artifacts.top).design
        return estimate_resources(design)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.as_dict()["FF"] > 0


@pytest.mark.table("table5")
def test_table5_summary(paper_params):
    rows = table5.generate({name: paper_params[name] for name in KERNELS})
    print()
    print(table5.render(rows))
    checks = table5.check_shape(rows)
    assert all(checks.values()), checks
    # The paper's exact-match claims: DSP and BRAM counts are identical for
    # every kernel, including the 768 DSPs of the 16x16 GEMM.
    gemm = rows["gemm"]
    assert gemm.hir.as_dict()["DSP"] == gemm.baseline.as_dict()["DSP"] == 768


@pytest.mark.table("table5")
def test_resource_model_on_gemm16(bench_recorder):
    """The resource model alone (flowbench's ``resources`` layer): the best
    of ``REPEATS`` ``estimate_resources`` calls on the optimized gemm-16
    design, whose report must be exactly Table 5's HIR gemm row."""
    artifacts = build_kernel("gemm", size=16)
    optimization_pipeline(verify_each=False).run(artifacts.module)
    design = generate_verilog_impl(artifacts.module, top=artifacts.top).design
    seconds = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        report = estimate_resources(design)
        seconds.append(time.perf_counter() - start)
    values = report.as_dict()
    assert values == {"LUT": 46207, "FF": 20991, "DSP": 768, "BRAM": 0}
    bench_recorder("resources/gemm-16", seconds=min(seconds),
                   lut=values["LUT"], ff=values["FF"], dsp=values["DSP"],
                   bram=values["BRAM"])
    print(f"\ngemm-16 resource estimate, best of {REPEATS}: "
          f"{min(seconds) * 1e3:.1f} ms ({report})")
