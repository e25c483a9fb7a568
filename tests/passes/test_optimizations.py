"""Tests for the optimization passes (Sections 6.2–6.4)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ir import verify
from repro.ir.types import I32, IntegerType
from repro.hir import DesignBuilder, MemrefType
from repro.hir.ops import AddOp, ConstantOp, DelayOp, ForOp, MultOp, ShlOp
from repro.passes import (
    CanonicalizePass,
    ConstantPropagationPass,
    CSEPass,
    DelayEliminationPass,
    MemPortOptimizationPass,
    PrecisionOptimizationPass,
    StrengthReductionPass,
    optimization_pipeline,
    verification_pipeline,
    verify_schedule,
)
from repro.passes.common import signed_range_width


def ops_of(module, op_class):
    return [op for op in module.walk() if isinstance(op, op_class)]


class TestConstantPropagation:
    def _module_with_constant_expr(self):
        design = DesignBuilder("d")
        out = MemrefType((8,), I32, port="w")
        with design.func("f", [("C", out)]) as f:
            value = f.add(f.mult(f.constant(3, I32), f.constant(4, I32)),
                          f.constant(5, I32))
            f.mem_write(value, f.arg("C"), [0], time=f.time)
            f.return_()
        return design.module

    def test_folds_to_single_constant(self):
        module = self._module_with_constant_expr()
        ConstantPropagationPass().run(module)
        CanonicalizePass().run(module)
        assert not ops_of(module, MultOp)
        assert not ops_of(module, AddOp)
        values = {op.value for op in ops_of(module, ConstantOp)}
        assert 17 in values

    def test_records_statistics(self):
        module = self._module_with_constant_expr()
        pass_ = ConstantPropagationPass()
        pass_.run(module)
        assert pass_.statistics.get("ops-folded", 0) >= 2

    def test_wraps_to_result_width(self):
        design = DesignBuilder("d")
        out = MemrefType((8,), IntegerType(8), port="w")
        with design.func("f", [("C", out)]) as f:
            big = f.add(f.constant(200, IntegerType(8)), f.constant(100, IntegerType(8)))
            f.mem_write(big, f.arg("C"), [0], time=f.time)
            f.return_()
        ConstantPropagationPass().run(design.module)
        folded = [op for op in ops_of(design.module, ConstantOp)
                  if op.results[0].type == IntegerType(8) and op.results[0].has_uses]
        assert folded and folded[0].value == IntegerType(8).wrap(300)


class TestCanonicalizeAndCSE:
    def test_add_zero_removed(self):
        design = DesignBuilder("d")
        out = MemrefType((8,), I32, port="w")
        with design.func("f", [("x", I32), ("C", out)]) as f:
            f.mem_write(f.add(f.arg("x"), f.constant(0, I32)), f.arg("C"), [0],
                        time=f.time)
            f.return_()
        CanonicalizePass().run(design.module)
        assert not ops_of(design.module, AddOp)

    def test_dce_removes_unused_pure_ops(self):
        design = DesignBuilder("d")
        with design.func("f", [("x", I32)]) as f:
            f.add(f.arg("x"), f.arg("x"))   # dead
            f.mult(f.arg("x"), f.arg("x"))  # dead
            f.return_()
        CanonicalizePass().run(design.module)
        assert not ops_of(design.module, AddOp)
        assert not ops_of(design.module, MultOp)

    def test_cse_merges_duplicate_adds(self):
        design = DesignBuilder("d")
        out = MemrefType((8,), I32, port="w")
        with design.func("f", [("x", I32), ("C", out)]) as f:
            first = f.add(f.arg("x"), f.constant(1, I32))
            second = f.add(f.arg("x"), f.constant(1, I32))
            f.mem_write(first, f.arg("C"), [0], time=f.time)
            f.mem_write(second, f.arg("C"), [1], time=f.time, offset=1)
            f.return_()
        CSEPass().run(design.module)
        assert len(ops_of(design.module, AddOp)) == 1

    def test_cse_keys_on_current_result_types(self):
        """An add whose result was narrowed stays apart from an identical
        one; once their types are equal again, a second run merges them."""
        design = DesignBuilder("d")
        out = MemrefType((8,), I32, port="w")
        with design.func("f", [("x", I32), ("C", out)]) as f:
            first = f.add(f.arg("x"), f.arg("x"))
            second = f.add(f.arg("x"), f.arg("x"))
            f.mem_write(first, f.arg("C"), [0], time=f.time)
            f.mem_write(second, f.arg("C"), [1], time=f.time, offset=1)
            f.return_()
        second.type = IntegerType(8)
        CSEPass().run(design.module)
        assert len(ops_of(design.module, AddOp)) == 2
        first.type = IntegerType(8)
        CSEPass().run(design.module)
        assert len(ops_of(design.module, AddOp)) == 1

    def test_cse_respects_commutativity(self):
        design = DesignBuilder("d")
        out = MemrefType((8,), I32, port="w")
        with design.func("f", [("x", I32), ("y", I32), ("C", out)]) as f:
            first = f.add(f.arg("x"), f.arg("y"))
            second = f.add(f.arg("y"), f.arg("x"))
            f.mem_write(first, f.arg("C"), [0], time=f.time)
            f.mem_write(second, f.arg("C"), [1], time=f.time, offset=1)
            f.return_()
        CSEPass().run(design.module)
        assert len(ops_of(design.module, AddOp)) == 1

    def test_cse_outer_value_reused_in_nested_region(self):
        design = DesignBuilder("d")
        out = MemrefType((8,), I32, port="w")
        with design.func("f", [("x", I32), ("C", out)]) as f:
            outer = f.add(f.arg("x"), f.constant(2, I32))
            with f.for_loop(0, 4, 1, time=f.time, iter_offset=1) as loop:
                inner = f.add(f.arg("x"), f.constant(2, I32))
                f.mem_write(inner, f.arg("C"), [f.delay(loop.iv, 0, loop.time)],
                            time=loop.time)
                f.yield_(loop.time, offset=1)
            f.mem_write(outer, f.arg("C"), [0], time=f.time)
            f.return_()
        CSEPass().run(design.module)
        assert len(ops_of(design.module, AddOp)) == 1
        verify(design.module)


class TestStrengthReduction:
    def _design_with_mult_by(self, constant):
        design = DesignBuilder("d")
        out = MemrefType((8,), I32, port="w")
        with design.func("f", [("x", I32), ("C", out)]) as f:
            f.mem_write(f.mult(f.arg("x"), f.constant(constant, I32)),
                        f.arg("C"), [0], time=f.time)
            f.return_()
        return design.module

    def test_power_of_two_becomes_shift(self):
        module = self._design_with_mult_by(8)
        StrengthReductionPass().run(module)
        assert not ops_of(module, MultOp)
        assert len(ops_of(module, ShlOp)) == 1

    def test_two_set_bits_become_shift_add(self):
        module = self._design_with_mult_by(10)  # 8 + 2
        StrengthReductionPass().run(module)
        assert not ops_of(module, MultOp)
        assert len(ops_of(module, ShlOp)) == 2
        assert len(ops_of(module, AddOp)) == 1

    def test_mult_by_one_removed(self):
        module = self._design_with_mult_by(1)
        StrengthReductionPass().run(module)
        assert not ops_of(module, MultOp)

    def test_dense_constant_left_alone(self):
        module = self._design_with_mult_by(7)  # three set bits > max_terms
        StrengthReductionPass().run(module)
        assert len(ops_of(module, MultOp)) == 1

    def test_variable_times_variable_left_alone(self):
        design = DesignBuilder("d")
        out = MemrefType((8,), I32, port="w")
        with design.func("f", [("x", I32), ("y", I32), ("C", out)]) as f:
            f.mem_write(f.mult(f.arg("x"), f.arg("y")), f.arg("C"), [0], time=f.time)
            f.return_()
        StrengthReductionPass().run(design.module)
        assert len(ops_of(design.module, MultOp)) == 1

    @settings(max_examples=30, deadline=None)
    @given(x=st.integers(min_value=-(2 ** 20), max_value=2 ** 20),
           constant=st.sampled_from([0, 1, 2, 4, 6, 8, 16, 24, 1024]))
    def test_rewrite_preserves_value(self, x, constant):
        """Property: the shift/add decomposition equals the multiplication."""
        bits = [i for i in range(constant.bit_length()) if constant >> i & 1]
        rewritten = sum(x << b for b in bits)
        assert rewritten == x * constant


class TestPrecisionOptimization:
    def test_loop_counters_are_narrowed(self):
        from repro.kernels import transpose
        module = transpose.build_hir(16).module
        PrecisionOptimizationPass().run(module)
        widths = {op.iv_type.width for op in ops_of(module, ForOp)}
        assert widths == {6}  # 0..16 in signed 6 bits

    def test_stats_report_bits_saved(self):
        from repro.kernels import transpose
        module = transpose.build_hir(16).module
        pass_ = PrecisionOptimizationPass()
        pass_.run(module)
        assert pass_.statistics.get("bits-saved", 0) >= 2 * (32 - 6)

    def test_delay_result_type_follows_narrowed_input(self):
        from repro.kernels import transpose
        module = transpose.build_hir(16).module
        PrecisionOptimizationPass().run(module)
        delays = ops_of(module, DelayOp)
        assert delays and all(d.results[0].type == d.value.type for d in delays)
        verify(module)

    def test_signed_range_width(self):
        assert signed_range_width(0, 15) == 5
        assert signed_range_width(0, 16) == 6
        assert signed_range_width(-8, 7) == 4
        assert signed_range_width(0, 0) == 1

    @given(low=st.integers(min_value=-1000, max_value=1000),
           span=st.integers(min_value=0, max_value=1000))
    def test_signed_range_width_bounds(self, low, span):
        high = low + span
        width = signed_range_width(low, high)
        assert -(1 << (width - 1)) <= low and high <= (1 << (width - 1)) - 1
        if width > 1:
            smaller = width - 1
            assert not (-(1 << (smaller - 1)) <= low and high <= (1 << (smaller - 1)) - 1)


class TestDelayEliminationAndMemPort:
    def test_duplicate_delays_merged(self):
        design = DesignBuilder("d")
        out = MemrefType((8,), I32, port="w")
        with design.func("f", [("x", I32), ("C", out)]) as f:
            first = f.delay(f.arg("x"), 2, time=f.time)
            second = f.delay(f.arg("x"), 2, time=f.time)
            f.mem_write(first, f.arg("C"), [0], time=f.time, offset=2)
            f.mem_write(second, f.arg("C"), [1], time=f.time, offset=3)
            f.return_()
        pass_ = DelayEliminationPass()
        pass_.run(design.module)
        assert len(ops_of(design.module, DelayOp)) == 1
        assert pass_.statistics.get("duplicate-delays-removed") == 1

    def test_constant_delay_removed(self):
        design = DesignBuilder("d")
        out = MemrefType((8,), I32, port="w")
        with design.func("f", [("C", out)]) as f:
            value = f.delay(f.constant(5, I32), 3, time=f.time)
            f.mem_write(value, f.arg("C"), [0], time=f.time, offset=3)
            f.return_()
        DelayEliminationPass().run(design.module)
        assert not ops_of(design.module, DelayOp)

    def test_share_group_annotation(self):
        design = DesignBuilder("d")
        out = MemrefType((8,), I32, port="w")
        with design.func("f", [("x", I32), ("C", out)]) as f:
            short = f.delay(f.arg("x"), 1, time=f.time)
            long = f.delay(f.arg("x"), 3, time=f.time)
            f.mem_write(short, f.arg("C"), [0], time=f.time, offset=1)
            f.mem_write(long, f.arg("C"), [1], time=f.time, offset=3)
            f.return_()
        pass_ = DelayEliminationPass()
        pass_.run(design.module)
        delays = ops_of(design.module, DelayOp)
        assert all(d.has_attr("share_group") for d in delays)
        assert pass_.statistics.get("registers-shared") == 1

    def test_non_overlapping_ports_marked_single_port(self):
        design = DesignBuilder("d")
        with design.func("f", []) as f:
            reader, writer = f.alloc((16,), I32, ports=("r", "w"))
            f.mem_write(1, writer, [0], time=f.time, offset=0)
            f.mem_read(reader, [0], time=f.time, offset=2)
            f.return_()
        pass_ = MemPortOptimizationPass()
        pass_.run(design.module)
        alloc = next(op for op in design.module.walk() if op.name == "hir.alloc")
        assert alloc.get_attr("single_port") is not None

    def test_overlapping_ports_not_marked(self):
        design = DesignBuilder("d")
        with design.func("f", []) as f:
            reader, writer = f.alloc((16,), I32, ports=("r", "w"))
            f.mem_write(1, writer, [0], time=f.time, offset=1)
            f.mem_read(reader, [1], time=f.time, offset=1)
            f.return_()
        MemPortOptimizationPass().run(design.module)
        alloc = next(op for op in design.module.walk() if op.name == "hir.alloc")
        assert alloc.get_attr("single_port") is None


class TestPipelines:
    def test_optimization_pipeline_preserves_validity(self):
        from repro.kernels import build_kernel
        for name, params in {"transpose": {"size": 8},
                             "stencil_1d": {"size": 16},
                             "histogram": {"pixels": 16, "bins": 16}}.items():
            module = build_kernel(name, **params).module
            optimization_pipeline().run(module)
            verify(module)
            assert verify_schedule(module).ok

    def test_optimized_transpose_still_computes_transpose(self):
        from repro.kernels import transpose
        from repro.verilog import generate_verilog_impl
        from repro.sim import run_design_impl
        artifacts = transpose.build(8)
        optimization_pipeline(verify_each=False).run(artifacts.module)
        design = generate_verilog_impl(artifacts.module, top="transpose").design
        inputs = artifacts.make_inputs(5)
        run = run_design_impl(design, memories={
            name: (t, inputs[name]) for name, t in artifacts.interfaces.items()},
            engine="interpreted")
        assert np.array_equal(run.memory_array("Co"), np.asarray(inputs["Ai"]).T)

    def test_verification_pipeline_raises_on_bad_schedule(self):
        from repro.evaluation.figures import build_array_add
        from repro.ir import ScheduleError
        with pytest.raises(ScheduleError):
            verification_pipeline().run(build_array_add(correct=False))
