"""Tests for the baseline HLS compiler driver, DSE and RTL generation."""


from repro.hls import SwBuilder, Param, Var, compile_program
from repro.hls.dse import collect_innermost_loops, explore_loop
from repro.kernels import transpose, histogram, stencil1d
from repro.resources import estimate_resources
from repro.verilog.ast import MemoryDecl, RegDecl


class TestDSE:
    def test_explores_multiple_candidates(self):
        program = transpose.build_hls(8)
        loop, _ = collect_innermost_loops(program.function("transpose").body)[0]
        exploration = explore_loop(loop, array_ports={"Ai": 1, "Co": 1})
        assert exploration.evaluations >= 8
        assert exploration.chosen is not None

    def test_honours_requested_ii(self):
        program = transpose.build_hls(8)
        loop, _ = collect_innermost_loops(program.function("transpose").body)[0]
        exploration = explore_loop(loop)
        assert exploration.chosen.initiation_interval >= 1

    def test_collect_innermost_loops_nested(self):
        program = transpose.build_hls(8)
        loops = collect_innermost_loops(program.function("transpose").body)
        assert len(loops) == 1
        assert loops[0][0].var == "j"
        assert loops[0][1] == 1  # nesting depth


class TestCompilerDriver:
    def test_report_contains_loops_and_phases(self):
        result = compile_program(transpose.build_hls(8), "transpose")
        assert result.report.function == "transpose"
        assert len(result.report.loops) == 1
        assert result.report.loops[0].initiation_interval == 1
        assert set(result.report.phase_seconds) >= {
            "frontend", "dependence-analysis", "design-space-exploration",
            "scheduling-and-binding", "rtl-generation", "rtl-elaboration"}
        assert result.seconds > 0

    def test_histogram_update_loop_ii_reflects_recurrence(self):
        result = compile_program(histogram.build_hls(32, 32), "histogram")
        update = [loop for loop in result.report.loops if loop.name == "p"][0]
        assert update.initiation_interval >= 2

    def test_loop_report_total_latency(self):
        result = compile_program(transpose.build_hls(8), "transpose")
        loop = result.report.loops[0]
        assert loop.total_latency >= loop.trip_count

    def test_dse_can_be_disabled(self):
        result = compile_program(transpose.build_hls(8), "transpose",
                                 dse_enabled=False)
        assert result.report.dse_evaluations <= 2

    def test_elaboration_reports_rtl_and_area(self):
        result = compile_program(transpose.build_hls(8), "transpose")
        assert result.report.rtl_lines > 10
        assert result.report.estimated_resources["FF"] > 0

    def test_straight_line_function_compiles(self):
        sw = SwBuilder("p")
        function = sw.function("copy3", [
            Param("A", shape=(8,), direction="in"),
            Param("B", shape=(8,), direction="out"),
        ])
        function.body = [sw.load("x", "A", 0), sw.store("B", Var("x"), 0)]
        result = compile_program(sw.program, "copy3")
        assert "copy3" in result.design.modules


class TestGeneratedRTLStructure:
    def test_handshake_and_interfaces_present(self):
        result = compile_program(transpose.build_hls(8), "transpose")
        module = result.design.module("transpose")
        ports = {p.name for p in module.ports}
        assert {"ap_start", "ap_done", "ap_idle", "ap_ready"} <= ports
        assert {"Ai_addr", "Ai_rd_data", "Co_wr_data"} <= ports

    def test_local_arrays_become_memories(self):
        result = compile_program(histogram.build_hls(32, 32), "histogram")
        module = result.design.module("histogram")
        assert module.items_of_type(MemoryDecl)

    def test_loop_counters_are_32_bit_by_default(self):
        result = compile_program(transpose.build_hls(8), "transpose")
        module = result.design.module("transpose")
        counters = [item for item in module.items
                    if isinstance(item, RegDecl) and item.name.endswith("_i")]
        assert counters and all(reg.width == 32 for reg in counters)

    def test_manual_precision_narrows_counters(self):
        result = compile_program(transpose.build_hls(8, manual_precision=True),
                                 "transpose")
        module = result.design.module("transpose")
        counters = [item for item in module.items
                    if isinstance(item, RegDecl) and item.name.endswith("_i")]
        assert counters and all(reg.width < 32 for reg in counters)

    def test_manual_precision_reduces_resources(self):
        base = compile_program(transpose.build_hls(16), "transpose")
        manual = compile_program(transpose.build_hls(16, manual_precision=True),
                                 "transpose")
        assert estimate_resources(manual.design).ff <= estimate_resources(base.design).ff

    def test_stencil_dsp_parity_with_hir(self):
        """Both compilers instantiate the same number of multipliers (Table 5)."""
        from repro.passes import optimization_pipeline
        from repro.verilog import generate_verilog_impl
        hls_result = compile_program(stencil1d.build_hls(32), "stencil_1d")
        artifacts = stencil1d.build(32)
        optimization_pipeline(verify_each=False).run(artifacts.module)
        hir_design = generate_verilog_impl(artifacts.module, top="stencil_1d").design
        assert (estimate_resources(hls_result.design).as_dict()["DSP"]
                == estimate_resources(hir_design).as_dict()["DSP"] == 6)
