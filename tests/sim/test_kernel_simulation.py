"""End-to-end functional validation: generated designs vs numpy references.

These are the reproduction's equivalent of RTL simulation of the synthesized
accelerators: every kernel is compiled by the HIR compiler and executed
cycle-by-cycle; the memory contents at completion must match the numpy
reference model.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels import build_kernel
from repro.passes import optimization_pipeline
from repro.sim import run_design_impl
from repro.verilog import generate_verilog_impl

SMALL_PARAMS = {
    "transpose": {"size": 8},
    "stencil_1d": {"size": 32},
    "histogram": {"pixels": 64, "bins": 32},
    "gemm": {"size": 4},
    "convolution": {"size": 8},
    "fifo": {"depth": 64},
}


def compile_and_run(name, params, seed=1, optimize=False, drain_cycles=16):
    artifacts = build_kernel(name, **params)
    if optimize:
        optimization_pipeline(verify_each=False).run(artifacts.module)
    design = generate_verilog_impl(artifacts.module, top=artifacts.top).design
    inputs = artifacts.make_inputs(seed)
    run = run_design_impl(
        design,
        memories={arg: (memref_type, inputs[arg])
                  for arg, memref_type in artifacts.interfaces.items()},
        scalar_inputs=artifacts.scalar_args,
        drain_cycles=drain_cycles,
        max_cycles=50000,
        engine="interpreted",
    )
    expected = artifacts.reference(inputs)
    return run, expected


def compare(name, run, expected):
    assert run.done, f"{name}: design never asserted done"
    for output_name, reference in expected.items():
        produced = run.memory_array(output_name)
        reference = np.asarray(reference)
        if name == "stencil_1d":
            produced, reference = produced[1:], reference[1:]  # warm-up element
        assert np.array_equal(produced, reference), (
            f"{name}: output {output_name} mismatch\n{produced}\n!=\n{reference}"
        )


@pytest.mark.parametrize("name", sorted(SMALL_PARAMS))
def test_kernel_matches_reference(name):
    run, expected = compile_and_run(name, SMALL_PARAMS[name])
    compare(name, run, expected)


@pytest.mark.parametrize("name", ["transpose", "stencil_1d", "histogram", "gemm"])
def test_optimized_kernel_matches_reference(name):
    """The optimization pipeline must not change behaviour."""
    run, expected = compile_and_run(name, SMALL_PARAMS[name], seed=2, optimize=True)
    compare(name, run, expected)


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_gemm_multiple_seeds(seed):
    run, expected = compile_and_run("gemm", {"size": 3}, seed=seed)
    compare("gemm", run, expected)


def test_transpose_latency_is_close_to_ideal():
    """The pipelined transpose should take roughly size*(size+2) cycles."""
    run, _ = compile_and_run("transpose", {"size": 8})
    assert run.cycles <= 8 * (8 + 4) + 10


def test_fifo_streams_all_data_with_overlap():
    run, expected = compile_and_run("fifo", {"depth": 64})
    compare("fifo", run, expected)
    # Producer and consumer overlap: total latency is far below 2 * depth.
    assert run.cycles < 2 * 64


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_transpose_is_correct_for_random_matrices(seed):
    """Property: the generated transpose hardware transposes any matrix."""
    run, expected = compile_and_run("transpose", {"size": 4}, seed=seed)
    compare("transpose", run, expected)


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_histogram_counts_every_pixel(seed):
    run, expected = compile_and_run("histogram", {"pixels": 32, "bins": 16},
                                    seed=seed)
    compare("histogram", run, expected)
    assert int(run.memory_array("hist").sum()) == 32
