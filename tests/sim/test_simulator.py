"""Tests for the cycle-accurate Verilog-AST simulator."""

import pytest

from repro.ir import SimulationError
from repro.sim import PipelinedMultiplierModel, Simulator, run_design_impl
from repro.verilog import (
    BinOp,
    Const,
    Design,
    If,
    INPUT,
    MemIndex,
    MemWrite,
    Module,
    NonBlockingAssign,
    OUTPUT,
    Ref,
)


def counter_design(width=8):
    module = Module("counter")
    module.add_port("clk", INPUT, 1)
    module.add_port("rst", INPUT, 1)
    module.add_port("enable", INPUT, 1)
    module.add_port("value", OUTPUT, width)
    module.add_reg("count", width)
    module.add_assign("value", Ref("count"))
    always = module.add_always()
    always.body.append(
        If(Ref("enable"),
           [NonBlockingAssign("count", BinOp("+", Ref("count"), Const(1, width)))])
    )
    design = Design(top="counter")
    design.add(module)
    return design


def loop_design():
    """Two wires driving each other: a combinational loop."""
    module = Module("loop")
    module.add_port("clk", INPUT, 1)
    module.add_wire("a", 1)
    module.add_wire("b", 1)
    module.add_assign("a", Ref("b"))
    module.add_assign("b", Ref("a"))
    design = Design(top="loop")
    design.add(module)
    return design


def multiple_driver_design():
    """One wire with two continuous drivers."""
    module = Module("dd")
    module.add_port("clk", INPUT, 1)
    module.add_wire("a", 1)
    module.add_assign("a", Const(0, 1))
    module.add_assign("a", Const(1, 1))
    design = Design(top="dd")
    design.add(module)
    return design


class TestBasicSimulation:
    def test_counter_counts_when_enabled(self):
        sim = Simulator(counter_design())
        sim.set("enable", 1)
        sim.step(5)
        assert sim.get("value") == 5

    def test_counter_holds_when_disabled(self):
        sim = Simulator(counter_design())
        sim.set("enable", 1)
        sim.step(3)
        sim.set("enable", 0)
        sim.step(4)
        assert sim.get("value") == 3

    def test_counter_wraps_at_width(self):
        sim = Simulator(counter_design(width=4))
        sim.set("enable", 1)
        sim.step(20)
        assert sim.get("value") == 4  # 20 mod 16

    def test_reset_restores_initial_state(self):
        sim = Simulator(counter_design())
        sim.set("enable", 1)
        sim.step(3)
        sim.reset()
        assert sim.get("count") == 0
        assert sim.cycle == 0

    def test_unknown_signal_and_input_errors(self):
        sim = Simulator(counter_design())
        with pytest.raises(SimulationError):
            sim.get("missing")
        with pytest.raises(SimulationError):
            sim.set("value", 1)   # an output, not an input

    def test_nonblocking_semantics_two_phase(self):
        """A swap register pair must exchange values, not duplicate one."""
        module = Module("swap")
        module.add_port("clk", INPUT, 1)
        module.add_reg("a", 8, init=1)
        module.add_reg("b", 8, init=2)
        always = module.add_always()
        always.body.append(NonBlockingAssign("a", Ref("b")))
        always.body.append(NonBlockingAssign("b", Ref("a")))
        design = Design(top="swap")
        design.add(module)
        sim = Simulator(design)
        sim.step()
        assert (sim.get("a"), sim.get("b")) == (2, 1)


class TestMemoriesAndHierarchy:
    def test_memory_write_then_read(self):
        module = Module("mem")
        module.add_port("clk", INPUT, 1)
        module.add_port("wr", INPUT, 1)
        module.add_port("addr", INPUT, 4)
        module.add_port("data", INPUT, 8)
        module.add_port("q", OUTPUT, 8)
        module.add_memory("storage", 8, 16)
        module.add_reg("q_reg", 8)
        module.add_assign("q", Ref("q_reg"))
        always = module.add_always()
        always.body.append(If(Ref("wr"), [MemWrite("storage", Ref("addr"), Ref("data"))]))
        always.body.append(NonBlockingAssign("q_reg", MemIndex("storage", Ref("addr"))))
        design = Design(top="mem")
        design.add(module)
        sim = Simulator(design)
        sim.set("wr", 1); sim.set("addr", 3); sim.set("data", 99)
        sim.step()
        sim.set("wr", 0)
        sim.step()
        assert sim.get("q") == 99
        assert sim.memory("storage")[3] == 99

    def test_hierarchical_design_is_flattened(self):
        child = Module("adder")
        child.add_port("clk", INPUT, 1)
        child.add_port("a", INPUT, 8)
        child.add_port("b", INPUT, 8)
        child.add_port("s", OUTPUT, 8)
        child.add_assign("s", BinOp("+", Ref("a"), Ref("b")))
        top = Module("top")
        top.add_port("clk", INPUT, 1)
        top.add_port("x", INPUT, 8)
        top.add_port("y", OUTPUT, 8)
        top.add_wire("sum_wire", 8)
        top.add_instance("adder", "u0", {"clk": Ref("clk"), "a": Ref("x"),
                                         "b": Const(5, 8), "s": Ref("sum_wire")})
        top.add_assign("y", Ref("sum_wire"))
        design = Design(top="top")
        design.add(top)
        design.add(child)
        sim = Simulator(design)
        sim.set("x", 7)
        sim.eval_comb()
        assert sim.get("y") == 12

    def test_external_model_is_used(self):
        top = Module("top")
        top.add_port("clk", INPUT, 1)
        top.add_port("a", INPUT, 32)
        top.add_port("b", INPUT, 32)
        top.add_port("p", OUTPUT, 32)
        top.add_wire("product", 32)
        top.add_instance("mult_3stage", "u0",
                         {"clk": Ref("clk"), "a": Ref("a"), "b": Ref("b"),
                          "result0": Ref("product")})
        top.add_assign("p", Ref("product"))
        design = Design(top="top")
        design.add(top)
        sim = Simulator(design, external_models={
            "mult_3stage": lambda: PipelinedMultiplierModel(3)})
        sim.set("a", 6); sim.set("b", 7)
        sim.step(3)
        sim.eval_comb()
        assert sim.get("p") == 42

    def test_missing_external_model_raises(self):
        top = Module("top")
        top.add_port("clk", INPUT, 1)
        top.add_instance("unknown_ip", "u0", {"clk": Ref("clk")})
        design = Design(top="top")
        design.add(top)
        with pytest.raises(SimulationError, match="behavioural model"):
            Simulator(design)

    def test_combinational_loop_detected(self):
        with pytest.raises(SimulationError, match="combinational loop"):
            Simulator(loop_design())

    def test_multiple_drivers_detected(self):
        with pytest.raises(SimulationError, match="multiple continuous drivers"):
            Simulator(multiple_driver_design())


@pytest.mark.parametrize("engine",
                         ["interpreted", "compiled", "differential", "vector"])
@pytest.mark.parametrize("make, message", [
    (loop_design, "^combinational loop: a -> b -> a$"),
    (multiple_driver_design, "^signal 'a' has multiple continuous drivers$"),
], ids=["loop", "multiple-drivers"])
def test_structural_errors_on_every_engine(make, message, engine):
    """Every engine refuses a malformed netlist with the same message."""
    with pytest.raises(SimulationError, match=message):
        run_design_impl(make(), engine=engine)


class TestHandwrittenFifo:
    def test_fifo_push_pop_order(self):
        from repro.kernels.fifo import build_verilog_fifo
        design = build_verilog_fifo(depth=8)
        sim = Simulator(design)
        for value in (10, 20, 30):
            sim.set("wr_en", 1); sim.set("wr_data", value); sim.set("rd_en", 0)
            sim.step()
        sim.set("wr_en", 0)
        popped = []
        for _ in range(3):
            sim.set("rd_en", 1)
            sim.step()
            sim.eval_comb()
            popped.append(sim.get("rd_data"))
        assert popped == [10, 20, 30]

    def test_fifo_empty_flag(self):
        from repro.kernels.fifo import build_verilog_fifo
        sim = Simulator(build_verilog_fifo(depth=4))
        sim.eval_comb()
        assert sim.get("empty") == 1
        sim.set("wr_en", 1); sim.set("wr_data", 5)
        sim.step()
        sim.eval_comb()
        assert sim.get("empty") == 0
