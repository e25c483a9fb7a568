"""Differential tests: compiled and batched engines vs the interpreter.

The compiled engine must be a bit-exact, cycle-exact drop-in for the
interpreted reference on every kernel; the ``differential`` engine enforces
that trace-by-trace while the full testbench protocol runs.  The batched
engine must reproduce each lane's single-run result exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ir import SimulationError
from repro.kernels import build_kernel
from repro.sim import (
    CompiledSimulator,
    DivergenceError,
    Simulator,
    available_engines,
    create_simulator,
    run_design_impl,
)
from repro.verilog import (
    BinOp,
    Const,
    Design,
    If,
    INPUT,
    Module,
    NonBlockingAssign,
    OUTPUT,
    Ref,
)


def counter_design(width=8):
    """Enable-gated counter (same design as in test_simulator.py)."""
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

SMALL_PARAMS = {
    "transpose": {"size": 8},
    "stencil_1d": {"size": 32},
    "histogram": {"pixels": 64, "bins": 32},
    "gemm": {"size": 4},
    "convolution": {"size": 8},
    "fifo": {"depth": 64},
}


def differential_run(name, params, seed=1):
    artifacts = build_kernel(name, **params)
    run, inputs = artifacts.simulate(seed=seed, engine="differential")
    return artifacts, run, inputs


class TestEngineSelection:
    def test_available_engines(self):
        assert {"interpreted", "compiled", "differential"} <= \
            set(available_engines())

    def test_create_simulator_types(self):
        design = counter_design()
        assert isinstance(create_simulator(design, engine="interpreted"),
                          Simulator)
        assert isinstance(create_simulator(design, engine="compiled"),
                          CompiledSimulator)

    def test_unknown_engine_rejected(self):
        with pytest.raises(SimulationError, match="unknown simulation engine"):
            create_simulator(counter_design(), engine="verilator")

    def test_engine_is_required(self):
        """Only FlowConfig.resolve_engine supplies an unnamed engine."""
        with pytest.raises(TypeError, match="engine"):
            create_simulator(counter_design())
        with pytest.raises(TypeError, match="engine"):
            run_design_impl(counter_design())


class TestCompiledUnit:
    """The compiled engine on hand-built designs (mirrors the interpreter
    tests in test_simulator.py)."""

    def test_counter_counts_and_wraps(self):
        sim = CompiledSimulator(counter_design(width=4))
        sim.set("enable", 1)
        sim.step(20)
        assert sim.get("value") == 4  # 20 mod 16

    def test_reset_restores_initial_state(self):
        sim = CompiledSimulator(counter_design())
        sim.set("enable", 1)
        sim.step(3)
        sim.reset()
        assert sim.get("count") == 0
        assert sim.cycle == 0

    def test_unknown_signal_and_input_errors(self):
        sim = CompiledSimulator(counter_design())
        with pytest.raises(SimulationError):
            sim.get("missing")
        with pytest.raises(SimulationError):
            sim.set("value", 1)

    def test_structural_errors_detected_at_compile(self):
        module = Module("loop")
        module.add_port("clk", INPUT, 1)
        module.add_wire("a", 1)
        module.add_wire("b", 1)
        module.add_assign("a", Ref("b"))
        module.add_assign("b", Ref("a"))
        design = Design(top="loop")
        design.add(module)
        with pytest.raises(SimulationError, match="combinational loop"):
            CompiledSimulator(design)

    def test_event_scheduler_skips_quiet_logic(self):
        """With inputs held constant, settled logic must not re-evaluate."""
        sim = CompiledSimulator(counter_design())
        sim.set("enable", 0)
        sim.step(50)
        total = (sim.stats["event_assign_evals"]
                 + sim.stats["full_assign_evals"])
        # The interpreter would evaluate every assignment every eval_comb
        # call (~2 assigns x 51 calls); the scheduler does far less.
        assert total < 2 * 51

    def test_idle_design_costs_nothing_per_cycle(self):
        sim = CompiledSimulator(counter_design())
        sim.set("enable", 0)
        sim.step(5)
        calls_before = sim.stats["comb_calls"]
        sim.step(10)
        assert sim.stats["comb_calls"] == calls_before  # nothing was dirty


class TestDifferentialKernels:
    @pytest.mark.parametrize("name", sorted(SMALL_PARAMS))
    def test_kernel_traces_agree(self, name):
        """Compiled and interpreted traces are identical on every kernel,
        every cycle, and the result matches the numpy reference."""
        artifacts, run, inputs = differential_run(name, SMALL_PARAMS[name])
        assert run.done
        expected = artifacts.reference(inputs)
        for output_name, reference in expected.items():
            produced = run.memory_array(output_name)
            reference = np.asarray(reference)
            if name == "stencil_1d":
                produced, reference = produced[1:], reference[1:]
            assert np.array_equal(produced, reference)

    @pytest.mark.parametrize("name", sorted(SMALL_PARAMS))
    def test_cycle_counts_identical(self, name):
        artifacts = build_kernel(name, **SMALL_PARAMS[name])
        interpreted, _ = artifacts.simulate(seed=2, engine="interpreted")
        compiled, _ = artifacts.simulate(seed=2, engine="compiled")
        assert interpreted.cycles == compiled.cycles
        assert interpreted.results == compiled.results

    def test_divergence_is_detected(self):
        """A deliberately broken compiled state must raise DivergenceError."""
        from repro.sim import DifferentialSimulator
        sim = DifferentialSimulator(counter_design())
        sim.set("enable", 1)
        sim.step(2)
        # Corrupt the compiled engine's copy of the counter register.
        slot = sim.compiled._slot_of["count"]
        sim.compiled._values[slot] ^= 1
        with pytest.raises(DivergenceError, match="count"):
            sim.step(1)

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_stimulus_transpose(self, seed):
        artifacts, run, inputs = differential_run("transpose", {"size": 4},
                                                  seed=seed)
        assert np.array_equal(run.memory_array("Co"),
                              artifacts.reference(inputs)["Co"])

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_stimulus_gemm(self, seed):
        artifacts, run, inputs = differential_run("gemm", {"size": 3},
                                                  seed=seed)
        assert np.array_equal(run.memory_array("C"),
                              artifacts.reference(inputs)["C"])


class TestBatchedEngine:
    @pytest.mark.parametrize("name", sorted(SMALL_PARAMS))
    def test_batched_matches_single_runs(self, name):
        """Every lane of a batched run reproduces its single-run result:
        same memory contents, same cycle count."""
        artifacts = build_kernel(name, **SMALL_PARAMS[name])
        seeds = [3, 4, 5]
        batch, inputs_per_lane = artifacts.simulate_batch(seeds)
        assert bool(batch.done.all())
        for lane, seed in enumerate(seeds):
            single, inputs = artifacts.simulate(seed=seed, engine="compiled")
            assert single.cycles == int(batch.cycles[lane])
            for output_name in artifacts.reference(inputs):
                assert np.array_equal(single.memory_array(output_name),
                                      batch.memory_array(output_name, lane))

    def test_batched_randomized_sweep(self):
        """A wider randomized stimulus sweep on gemm, checked vs numpy."""
        artifacts = build_kernel("gemm", size=3)
        seeds = list(range(10, 26))
        batch, inputs_per_lane = artifacts.simulate_batch(seeds)
        for lane, inputs in enumerate(inputs_per_lane):
            expected = artifacts.reference(inputs)["C"]
            assert np.array_equal(batch.memory_array("C", lane), expected)

    def test_batched_lane_validation(self):
        from repro.sim import BatchedSimulator
        with pytest.raises(SimulationError, match="at least one lane"):
            BatchedSimulator(counter_design(), lanes=0)

    def test_batched_counter_per_lane_inputs(self):
        from repro.sim import BatchedSimulator
        sim = BatchedSimulator(counter_design(), lanes=3)
        sim.set("enable", np.array([1, 0, 1]))
        sim.step(5)
        assert list(sim.get("value")) == [5, 0, 5]


class TestRunDesignEngineParity:
    def test_run_design_engine_kwarg(self):
        """run_design_impl(engine=...) is accepted and produces equal runs."""
        artifacts = build_kernel("fifo", depth=64)
        design = artifacts.flow().design
        inputs = artifacts.make_inputs(0)
        memories = {name: (memref_type, inputs[name])
                    for name, memref_type in artifacts.interfaces.items()}
        runs = {engine: run_design_impl(design, memories=memories,
                                        scalar_inputs=artifacts.scalar_args,
                                        drain_cycles=16, engine=engine)
                for engine in ("interpreted", "compiled")}
        assert runs["interpreted"].cycles == runs["compiled"].cycles
        out = runs["interpreted"].memories["dout"].data
        assert out == runs["compiled"].memories["dout"].data
