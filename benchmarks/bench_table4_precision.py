"""Table 4 — effect of precision optimization on the matrix transpose."""

import pytest

from repro.evaluation import table4
from repro.hls import compile_program
from repro.kernels import transpose
from repro.passes import optimization_pipeline
from repro.resources import estimate_resources
from repro.verilog import generate_verilog_impl

SIZE = 16


@pytest.mark.table("table4")
@pytest.mark.parametrize("optimize", [False, True],
                         ids=["HIR-no-opt", "HIR-auto-opt"])
def test_hir_design_point(benchmark, optimize):
    def run():
        design = transpose.build_hir(SIZE)
        if optimize:
            optimization_pipeline(verify_each=False).run(design.module)
        return estimate_resources(
            generate_verilog_impl(design.module, top="transpose").design)

    report = benchmark(run)
    assert report.as_dict()["LUT"] > 0


@pytest.mark.table("table4")
@pytest.mark.parametrize("manual", [False, True],
                         ids=["HLS", "HLS-manual-opt"])
def test_hls_design_point(benchmark, manual):
    def run():
        program = transpose.build_hls(SIZE, manual_precision=manual)
        return estimate_resources(compile_program(program, "transpose").design)

    report = benchmark.pedantic(run, rounds=2, iterations=1)
    assert report.as_dict()["FF"] > 0


@pytest.mark.table("table4")
def test_table4_summary():
    rows = table4.generate(size=SIZE)
    print()
    print(table4.render(rows))
    assert table4.check_shape(rows)
    auto = rows["HIR (auto opt)"].measured.as_dict()
    noopt = rows["HIR (no opt)"].measured.as_dict()
    # Precision optimization removes a large fraction of the registers, as in
    # the paper (72 -> 18 FFs).
    assert auto["FF"] <= noopt["FF"] // 2
