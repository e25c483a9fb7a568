"""Golden equivalence: the Flow API vs the ``*_impl`` cores it is built on.

The acceptance bar of the Flow redesign: for every registered kernel, a
``Flow`` with ``pipeline="none"`` produces byte-identical Verilog text and
trace-identical simulations to calling ``generate_verilog_impl`` +
``run_design_impl`` directly.  A second sweep proves the optimizing
pipelines are clone-faithful: optimizing a Flow-internal clone emits the
same bytes as optimizing the module in place.
"""

import numpy as np
import pytest

from repro.flow import Flow, FlowConfig
from repro.kernels import build_kernel, kernel_names

SMALL = {
    "transpose": {"size": 8},
    "stencil_1d": {"size": 16},
    "histogram": {"pixels": 16, "bins": 16},
    "gemm": {"size": 2},
    "convolution": {"size": 6},
    "fifo": {"depth": 16},
    "matvec": {"size": 4},
    "prefix_sum": {"size": 8},
    "spmv": {"rows": 4, "nnz": 2},
    "sorting_network": {"size": 4},
}


def core_verilog_text(module, top):
    from repro.verilog import generate_verilog_impl
    from repro.verilog.emitter import emit_design
    return emit_design(generate_verilog_impl(module, top=top).design)


def core_run(artifacts, seed, engine):
    from repro.sim import run_design_impl
    from repro.verilog import generate_verilog_impl
    inputs = artifacts.make_inputs(seed)
    design = generate_verilog_impl(artifacts.module, top=artifacts.top).design
    run = run_design_impl(
        design,
        memories={name: (memref_type, inputs[name])
                  for name, memref_type in artifacts.interfaces.items()},
        scalar_inputs=artifacts.scalar_args,
        external_models=artifacts.external_models or None,
        drain_cycles=16,
        engine=engine,
    )
    return run, inputs


def assert_trace_identical(core, flow_run):
    assert core.done == flow_run.done
    assert core.cycles == flow_run.cycles
    assert core.results == flow_run.results
    assert set(core.memories) == set(flow_run.memories)
    for name in core.memories:
        assert np.array_equal(core.memory_array(name),
                              flow_run.memory_array(name)), name


@pytest.mark.parametrize("name", sorted(SMALL))
class TestGoldenEquivalence:
    def test_verilog_bytes_identical(self, name):
        artifacts = build_kernel(name, **SMALL[name])
        flow = Flow(artifacts, config=FlowConfig(pipeline="none"))
        assert flow.verilog_text == core_verilog_text(artifacts.module,
                                                      artifacts.top)

    def test_simulation_trace_identical(self, name):
        artifacts = build_kernel(name, **SMALL[name])
        core, core_inputs = core_run(artifacts, seed=5, engine="interpreted")
        flow = Flow(artifacts, config=FlowConfig(pipeline="none"))
        outcome = flow.simulate(seed=5, engine="interpreted").value
        for key in core_inputs:
            assert np.array_equal(core_inputs[key], outcome.inputs[key])
        assert_trace_identical(core, outcome.run)

    def test_optimizing_pipeline_is_clone_faithful(self, name):
        """Flow optimizes a clone; the bytes must match optimize-in-place."""
        from repro.passes import optimization_pipeline
        artifacts = build_kernel(name, **SMALL[name])
        flow = Flow(build_kernel(name, **SMALL[name]),
                    config=FlowConfig(pipeline="optimize"))
        flow_text = flow.verilog_text
        optimization_pipeline().run(artifacts.module)
        assert flow_text == core_verilog_text(artifacts.module,
                                              artifacts.top)

    def test_artifact_helpers_match_flow(self, name):
        """KernelArtifacts.simulate (Flow-backed, default engine) returns the
        interpreted reference trace."""
        artifacts = build_kernel(name, **SMALL[name])
        core, _ = core_run(artifacts, seed=2, engine="interpreted")
        run, _ = artifacts.simulate(seed=2)
        assert_trace_identical(core, run)


class TestGoldenCompiledEngine:
    def test_compiled_engine_trace_identical(self):
        artifacts = build_kernel("gemm", size=2)
        core, _ = core_run(artifacts, seed=3, engine="compiled")
        flow = Flow(artifacts, config=FlowConfig(pipeline="none"))
        outcome = flow.simulate(seed=3, engine="compiled").value
        assert_trace_identical(core, outcome.run)

    def test_batched_lanes_match_legacy_batch(self):
        from repro.sim import run_design_batch_impl
        from repro.verilog import generate_verilog_impl
        artifacts = build_kernel("transpose", size=8)
        seeds = [0, 1, 2]
        inputs_per_lane = [artifacts.make_inputs(seed) for seed in seeds]
        design = generate_verilog_impl(artifacts.module,
                                       top=artifacts.top).design
        core = run_design_batch_impl(
            design,
            memories={name: (t, [inputs[name] for inputs in inputs_per_lane])
                      for name, t in artifacts.interfaces.items()},
            drain_cycles=16,
        )
        flow = Flow(artifacts, config=FlowConfig(pipeline="none"))
        batch = flow.simulate_batch(seeds).value
        assert np.array_equal(core.cycles, batch.run.cycles)
        for lane in range(len(seeds)):
            assert np.array_equal(core.memory_array("Co", lane),
                                  batch.memory_array("Co", lane))


def test_every_registered_kernel_is_covered():
    """The golden sweep must not silently skip a newly registered kernel."""
    assert set(kernel_names()) == set(SMALL)
