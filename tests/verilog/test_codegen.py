"""Tests for the HIR-to-Verilog code generator (Table 3 construct mapping)."""

import pytest

from repro.ir import LoweringError
from repro.ir.types import I32
from repro.hir import DesignBuilder
from repro.kernels import transpose, stencil1d, histogram
from repro.verilog import (
    Comment,
    Instance,
    MemoryDecl,
    RegDecl,
    emit_design,
    generate_verilog_impl,
)
from repro.verilog.ast import AlwaysFF, Assign


class TestTable3Mapping:
    """Table 3: each HIR construct maps to the documented hardware."""

    def test_functions_become_modules(self):
        result = generate_verilog_impl(transpose.build_hir(4).module)
        assert "transpose" in result.design.modules
        module = result.design.module("transpose")
        port_names = {port.name for port in module.ports}
        assert {"clk", "rst", "start", "done"} <= port_names

    def test_memref_arguments_become_memory_interfaces(self):
        result = generate_verilog_impl(transpose.build_hir(4).module)
        ports = {p.name for p in result.design.module("transpose").ports}
        assert {"Ai_addr", "Ai_rd_en", "Ai_rd_data",
                "Co_addr", "Co_wr_en", "Co_wr_data"} <= ports

    def test_for_loops_become_state_machines(self):
        result = generate_verilog_impl(transpose.build_hir(4).module)
        text = emit_design(result.design)
        assert "state machine for loop" in text
        # Two loops -> two iteration pulses.
        assert "loop_i_iter" in text and "loop_j_iter" in text

    def test_delay_becomes_shift_register(self):
        result = generate_verilog_impl(transpose.build_hir(4).module)
        module = result.design.module("transpose")
        shift_regs = [item for item in module.items
                      if isinstance(item, RegDecl) and "_sr" in item.name]
        assert shift_regs

    def test_local_alloc_becomes_ram(self):
        result = generate_verilog_impl(histogram.build_hir(16, 16).module)
        module = result.design.module("histogram")
        memories = module.items_of_type(MemoryDecl)
        assert memories and memories[0].depth == 16
        assert memories[0].kind == "bram"

    def test_register_memref_becomes_registers(self):
        result = generate_verilog_impl(stencil1d.build_hir(16).module)
        module = result.design.module("stencil_1d")
        window_regs = [item for item in module.items
                       if isinstance(item, RegDecl) and item.name.startswith("W1")]
        assert len(window_regs) >= 2
        assert not [m for m in module.items_of_type(MemoryDecl)
                    if m.name.startswith("W1")]

    def test_schedules_become_pulse_registers(self):
        result = generate_verilog_impl(transpose.build_hir(4).module)
        module = result.design.module("transpose")
        pulse_regs = [item for item in module.items
                      if isinstance(item, RegDecl) and "_d1" in item.name]
        assert pulse_regs

    def test_primitive_args_become_input_ports(self):
        result = generate_verilog_impl(stencil1d.build_hir(16).module)
        ports = {p.name: p for p in result.design.module("stencil_1d").ports}
        assert ports["w0"].direction == "input"
        assert ports["w0"].width == 32


class TestCallsAndExternals:
    def build_mac_design(self):
        from repro.evaluation.figures import build_mac
        return build_mac(multiplier_stages=2)

    def test_call_becomes_instance(self):
        result = generate_verilog_impl(self.build_mac_design(), top="mac")
        module = result.design.module("mac")
        instances = module.items_of_type(Instance)
        assert len(instances) == 1
        assert instances[0].module_name == "mult_2stage"

    def test_external_function_becomes_blackbox_shell(self):
        result = generate_verilog_impl(self.build_mac_design(), top="mac")
        shell = result.design.module("mult_2stage")
        assert shell.external
        port_names = {p.name for p in shell.ports}
        assert {"a", "b", "result0", "start"} <= port_names

    def test_function_results_become_output_ports(self):
        result = generate_verilog_impl(self.build_mac_design(), top="mac")
        module = result.design.module("mac")
        assert module.port("result0") is not None
        assert module.port("result0").width == 32

    def test_default_top_prefers_uncalled_function(self):
        result = generate_verilog_impl(self.build_mac_design())
        assert result.design.top == "mac"

    def test_all_external_module_needs_an_explicit_top(self):
        design = DesignBuilder("ext")
        design.extern_func("mult", [I32, I32], [I32])
        with pytest.raises(LoweringError, match="pass top="):
            generate_verilog_impl(design.module)
        result = generate_verilog_impl(design.module, top="mult")
        assert result.design.module("mult").external


class TestCodegenOptions:
    def test_location_comments_emitted(self):
        result = generate_verilog_impl(transpose.build_hir(4).module)
        comments = [item.text for item in
                    result.design.module("transpose").items_of_type(Comment)]
        assert any("hir.mem_read" in text for text in comments)

    def test_codegen_does_not_mutate_input(self):
        module = transpose.build_hir(4).module
        before = len(list(module.walk()))
        generate_verilog_impl(module)
        assert len(list(module.walk())) == before

    def test_statistics(self):
        result = generate_verilog_impl(self.build_two_function_module())
        assert result.statistics["functions"] == 2

    @staticmethod
    def build_two_function_module():
        design = DesignBuilder("two")
        with design.func("leaf", [("x", I32)], result_types=[I32]) as f:
            f.return_([f.arg("x")])
        with design.func("root", [("x", I32)], result_types=[I32]) as f:
            f.return_([f.call("leaf", [f.arg("x")], time=f.time)[0]])
        return design.module

    def test_empty_module_rejected(self):
        from repro.ir import ModuleOp
        with pytest.raises(LoweringError):
            generate_verilog_impl(ModuleOp("empty"))

    def test_every_signal_reference_is_declared(self):
        """No dangling references in generated designs (besides ports)."""
        result = generate_verilog_impl(transpose.build_hir(4).module)
        module = result.design.module("transpose")
        declared = {p.name for p in module.ports}
        for item in module.items:
            if hasattr(item, "name"):
                declared.add(item.name)
        referenced = set()
        for item in module.items:
            if isinstance(item, Assign):
                referenced.update(item.expr.refs())
            elif isinstance(item, AlwaysFF):
                for stmt in item.body:
                    referenced.update(_statement_refs(stmt))
        undeclared = {name for name in referenced if name not in declared}
        assert not undeclared, f"undeclared signals referenced: {undeclared}"


def _statement_refs(stmt):
    from repro.verilog.ast import If, MemWrite, NonBlockingAssign
    refs = set()
    if isinstance(stmt, NonBlockingAssign):
        refs.update(stmt.expr.refs())
    elif isinstance(stmt, MemWrite):
        refs.update(stmt.address.refs())
        refs.update(stmt.data.refs())
    elif isinstance(stmt, If):
        refs.update(stmt.condition.refs())
        for inner in stmt.then_body + stmt.else_body:
            refs.update(_statement_refs(inner))
    return refs
