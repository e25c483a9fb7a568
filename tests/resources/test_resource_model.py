"""Tests for the FPGA resource model."""

import hashlib
import json

import pytest

from repro.flow import Flow, FlowConfig
from repro.fuzz.generator import generate_spec
from repro.fuzz.spec import materialize
from repro.hls.compiler import compile_program
from repro.kernels import KERNEL_BUILDERS, build_kernel, transpose
from repro.kernels.fifo import build_verilog_fifo
from repro.resources import (
    BRAM_THRESHOLD_BITS,
    ResourceReport,
    estimate_resources,
)
from repro.verilog import (
    BinOp,
    Const,
    Design,
    INPUT,
    Module,
    NonBlockingAssign,
    Ref,
    generate_verilog_impl,
)


def design_with(module: Module) -> Design:
    module.add_port("clk", INPUT, 1)
    design = Design(top=module.name)
    design.add(module)
    return design


class TestReport:
    def test_addition_and_rounding(self):
        total = ResourceReport(1.4, 2.6, 0, 0) + ResourceReport(0.2, 0.2, 1, 2)
        rounded = total.rounded()
        assert rounded.lut == 2 and rounded.ff == 3
        assert rounded.as_dict() == {"LUT": 2, "FF": 3, "DSP": 1, "BRAM": 2}

    def test_str_contains_all_fields(self):
        text = str(ResourceReport(1, 2, 3, 4))
        assert "LUT=1" in text and "BRAM=4" in text


class TestFlipFlops:
    def test_register_bits_counted(self):
        module = Module("m")
        module.add_reg("a", 8)
        module.add_reg("b", 3)
        assert estimate_resources(design_with(module)).ff == 11

    def test_register_kind_memory_counts_as_ff(self):
        module = Module("m")
        module.add_memory("regs", 32, 4, kind="registers")
        assert estimate_resources(design_with(module)).ff == 128


class TestLUTs:
    def test_adder_costs_about_one_lut_per_bit(self):
        module = Module("m")
        module.add_wire("a", 32)
        module.add_wire("b", 32)
        module.add_wire("s", 32)
        module.add_assign("s", BinOp("+", Ref("a"), Ref("b")))
        assert estimate_resources(design_with(module)).lut == 32

    def test_constant_shift_is_free(self):
        module = Module("m")
        module.add_wire("a", 32)
        module.add_wire("s", 32)
        module.add_assign("s", BinOp("<<", Ref("a"), Const(3, 6)))
        assert estimate_resources(design_with(module)).lut == 0


class TestDSPs:
    def test_32x32_multiply_uses_three_dsps(self):
        module = Module("m")
        module.add_wire("a", 32)
        module.add_wire("b", 32)
        module.add_wire("p", 32)
        module.add_assign("p", BinOp("*", Ref("a"), Ref("b")))
        assert estimate_resources(design_with(module)).dsp == 3

    def test_16x16_multiply_uses_one_dsp(self):
        module = Module("m")
        module.add_wire("a", 16)
        module.add_wire("b", 16)
        module.add_wire("p", 16)
        module.add_assign("p", BinOp("*", Ref("a"), Ref("b")))
        assert estimate_resources(design_with(module)).dsp == 1

    def test_constant_multiply_uses_no_dsp(self):
        module = Module("m")
        module.add_wire("a", 32)
        module.add_wire("p", 32)
        module.add_assign("p", BinOp("*", Ref("a"), Const(10, 32)))
        report = estimate_resources(design_with(module))
        assert report.dsp == 0
        assert report.lut > 0

    def test_constant_times_constant_is_free(self):
        module = Module("m")
        module.add_wire("p", 32)
        module.add_assign("p", BinOp("*", Const(3, 32), Const(4, 32)))
        report = estimate_resources(design_with(module))
        assert report.dsp == 0 and report.lut == 0


class TestMemories:
    def test_small_memory_is_distributed_ram(self):
        module = Module("m")
        module.add_memory("buf", 32, 16)  # 512 bits <= threshold
        report = estimate_resources(design_with(module))
        assert report.bram == 0
        assert report.lut > 0

    def test_large_memory_is_bram(self):
        module = Module("m")
        module.add_memory("buf", 32, 256)  # 8192 bits > threshold
        report = estimate_resources(design_with(module))
        assert report.bram == 1

    def test_explicit_bram_request_honoured(self):
        module = Module("m")
        module.add_memory("buf", 32, 16, kind="bram")
        assert estimate_resources(design_with(module)).bram == 1

    def test_threshold_constant_is_sane(self):
        assert BRAM_THRESHOLD_BITS < 18 * 1024

    def test_single_port_memory_is_cheaper(self):
        dual = Module("m1")
        dual.add_memory("buf", 32, 16, single_port=False)
        single = Module("m2")
        single.add_memory("buf", 32, 16, single_port=True)
        assert (estimate_resources(design_with(single)).lut
                < estimate_resources(design_with(dual)).lut)


class TestHierarchy:
    def test_instances_are_included_per_instantiation(self):
        child = Module("child")
        child.add_port("clk", INPUT, 1)
        child.add_reg("r", 8)
        top = Module("top")
        top.add_port("clk", INPUT, 1)
        top.add_instance("child", "u0", {"clk": Ref("clk")})
        top.add_instance("child", "u1", {"clk": Ref("clk")})
        design = Design(top="top")
        design.add(top)
        design.add(child)
        assert estimate_resources(design).ff == 16

    def test_external_blackbox_costs_nothing(self):
        top = Module("top")
        top.add_port("clk", INPUT, 1)
        top.add_instance("vendor_ip", "u0", {"clk": Ref("clk")})
        design = Design(top="top")
        design.add(top)
        design.add(Module("vendor_ip", external=True))
        assert estimate_resources(design).ff == 0

    def test_clocked_statement_costs_counted(self):
        module = Module("m")
        module.add_wire("a", 16)
        module.add_reg("r", 16)
        always = module.add_always()
        always.body.append(NonBlockingAssign("r", BinOp("+", Ref("a"), Ref("r"))))
        report = estimate_resources(design_with(module))
        assert report.lut >= 16 and report.ff == 16


#: (LUT, FF, DSP, BRAM) of every registered kernel at its default (paper)
#: parameters: the HIR design under three pass pipelines, plus the HLS
#: baseline where the kernel has one.  Recorded from the two-walk model the
#: one-pass walk replaced, so every cost, width and rounding rule is pinned.
GOLDEN_KERNELS = {
    "convolution": {"optimize": (942, 1222, 0, 0), "none": (1386, 1519, 0, 0),
                    "legacy": (942, 1222, 0, 0), "hls": (1508, 1668, 0, 0)},
    "fifo": {"optimize": (90, 87, 0, 1), "none": (242, 171, 0, 1),
             "legacy": (90, 87, 0, 1)},
    "gemm": {"optimize": (46207, 20991, 768, 0), "none": (78783, 29311, 768, 0),
             "legacy": (46207, 20991, 768, 0), "hls": (24410, 50656, 768, 0)},
    "histogram": {"optimize": (204, 120, 0, 1), "none": (438, 208, 0, 1),
                  "legacy": (204, 120, 0, 1), "hls": (288, 624, 0, 1)},
    "matvec": {"optimize": (187, 74, 3, 1), "none": (477, 204, 3, 1),
               "legacy": (187, 74, 3, 1), "hls": (532, 716, 3, 0)},
    "prefix_sum": {"optimize": (96, 52, 0, 0), "none": (180, 100, 0, 0),
                   "legacy": (96, 52, 0, 0), "hls": (116, 248, 0, 0)},
    "sorting_network": {"optimize": (3544, 282, 0, 0),
                        "none": (3544, 282, 0, 0),
                        "legacy": (3544, 282, 0, 0)},
    "spmv": {"optimize": (212, 107, 3, 1), "none": (509, 269, 3, 1),
             "legacy": (212, 107, 3, 1), "hls": (580, 819, 3, 0)},
    "stencil_1d": {"optimize": (150, 160, 6, 0), "none": (234, 232, 6, 0),
                   "legacy": (150, 160, 6, 0), "hls": (180, 476, 6, 0)},
    "transpose": {"optimize": (112, 25, 0, 0), "none": (294, 103, 0, 0),
                  "legacy": (112, 25, 0, 0), "hls": (148, 220, 0, 0)},
}

#: The three composed scenarios at default parameters ("optimize" pipeline).
GOLDEN_SCENARIOS = {
    "gemm_pipeline": (3336, 1870, 54, 2),
    "histogram_cdf": (266, 422, 0, 2),
    "sorted_scan": (3638, 392, 0, 1),
}

#: sha256 over the JSON reports of fuzz programs 0-49 (no pass pipeline).
GOLDEN_FUZZ_DIGEST = (
    "e3a045d035aeff08249d79997bea70b78f0ef41bfd2ef76d4ec3c497a6546e77")


def report_tuple(report: ResourceReport):
    values = report.as_dict()
    return values["LUT"], values["FF"], values["DSP"], values["BRAM"]


def hir_report(flow: Flow):
    return report_tuple(flow.resources().value)


class TestGoldenReports:
    """Exact reports on real designs: the regression net for the walk."""

    @pytest.mark.parametrize("kernel", sorted(KERNEL_BUILDERS))
    def test_kernel_at_default_parameters(self, kernel):
        expected = GOLDEN_KERNELS[kernel]
        artifacts = build_kernel(kernel)
        for pipeline in ("optimize", "none", "legacy"):
            config = FlowConfig(pipeline=pipeline, store_dir="")
            assert hir_report(Flow(artifacts, config=config)) == \
                expected[pipeline], pipeline
        if artifacts.hls_program is None:
            assert "hls" not in expected
        else:
            result = compile_program(artifacts.hls_program,
                                     artifacts.hls_function)
            assert report_tuple(estimate_resources(result.design)) == \
                expected["hls"]

    @pytest.mark.parametrize("manual,expected", [
        (False, (148, 220, 0, 0)), (True, (109, 194, 0, 0))])
    def test_table4_hls_points(self, manual, expected):
        program = transpose.build_hls(16, manual_precision=manual)
        design = compile_program(program, "transpose").design
        assert report_tuple(estimate_resources(design)) == expected

    def test_fifo_verilog_baseline(self):
        assert report_tuple(estimate_resources(build_verilog_fifo(512))) == \
            (64, 60, 0, 1)

    @pytest.mark.parametrize("scenario", sorted(GOLDEN_SCENARIOS))
    def test_composed_scenario(self, scenario):
        flow = Flow.from_scenario(scenario, config=FlowConfig(store_dir=""))
        assert hir_report(flow) == GOLDEN_SCENARIOS[scenario]

    def test_gemm_16_at_paper_size(self):
        """Table 5's gemm row, both sides."""
        artifacts = build_kernel("gemm", size=16)
        flow = Flow(artifacts, config=FlowConfig(store_dir=""))
        assert hir_report(flow) == (46207, 20991, 768, 0)
        result = compile_program(artifacts.hls_program, artifacts.hls_function)
        assert report_tuple(estimate_resources(result.design)) == \
            (24410, 50656, 768, 0)

    def test_fuzz_programs_digest(self):
        digest = hashlib.sha256()
        for seed in range(50):
            program = materialize(generate_spec(seed))
            design = generate_verilog_impl(program.module,
                                           top=program.top).design
            digest.update(json.dumps(estimate_resources(design).as_dict(),
                                     sort_keys=True).encode())
        assert digest.hexdigest() == GOLDEN_FUZZ_DIGEST
