"""Benchmarks of the simulation substrate (the RTL-simulation substitute).

Not a paper table, but a substrate ablation: how fast each simulation engine
executes the generated designs — the interpreted reference, the compiled
event-driven engine (cold: includes levelization + code generation; warm:
compilation amortized), the batched engine (N stimulus lanes per run), and
the fused whole-run vector engine — and that end-to-end correctness holds
at benchmark sizes.
"""

import os
import time

import numpy as np
import pytest

from repro.kernels import build_kernel
from repro.sim import run_design_impl
from repro.sim.engine import clear_compile_cache
from repro.verilog import generate_verilog_impl

#: Single-run speedup the compiled engine must deliver on GEMM (cold compile
#: included); measured ~4x on the development machine, so 3x leaves margin.
#: Shared CI runners can lower the bar via REPRO_GEMM_MIN_SPEEDUP.
GEMM_MIN_SPEEDUP = float(os.environ.get("REPRO_GEMM_MIN_SPEEDUP", "3.0"))

#: Warm-vs-warm speedup the vector engine must deliver over the compiled
#: engine on GEMM steady state; measured ~3.9x on the development machine,
#: the ISSUE floor is 2x.  CI can lower the bar via REPRO_VECTOR_MIN_SPEEDUP.
VECTOR_MIN_SPEEDUP = float(os.environ.get("REPRO_VECTOR_MIN_SPEEDUP", "2.0"))

#: Runs per side of the warm-store benchmark (the best one is recorded).
REPEATS = 3

#: Cold rounds of each ``simulate/<kernel>/<engine>`` record (the best one is
#: recorded): a single 2-10 ms round is mostly host noise at the gate's 1.5x.
ROUNDS = 5


@pytest.mark.table("simulation")
@pytest.mark.parametrize("engine", ["interpreted", "compiled", "vector"])
@pytest.mark.parametrize("kernel,params", [
    ("transpose", {"size": 8}),
    ("stencil_1d", {"size": 32}),
    ("histogram", {"pixels": 64, "bins": 32}),
    ("fifo", {"depth": 64}),
], ids=["transpose-8", "stencil-32", "histogram-64", "fifo-64"])
def test_simulate_generated_design(bench_recorder, kernel, params, engine):
    """One cold single run per round (the compile cache is cleared first);
    the record is the best of ``ROUNDS``."""
    artifacts = build_kernel(kernel, **params)
    design = generate_verilog_impl(artifacts.module, top=artifacts.top).design
    inputs = artifacts.make_inputs(0)
    seconds = []
    for _ in range(ROUNDS):
        clear_compile_cache()
        start = time.perf_counter()
        result = run_design_impl(
            design,
            memories={name: (memref_type, inputs[name])
                      for name, memref_type in artifacts.interfaces.items()},
            scalar_inputs=artifacts.scalar_args,
            drain_cycles=16,
            engine=engine,
        )
        seconds.append(time.perf_counter() - start)
    bench_recorder(f"simulate/{kernel}/{engine}", seconds=min(seconds),
                   cycles=int(result.cycles))
    assert result.done
    expected = artifacts.reference(inputs)
    for name, reference in expected.items():
        produced = result.memory_array(name)
        reference = np.asarray(reference)
        if kernel == "stencil_1d":
            produced, reference = produced[1:], reference[1:]
        assert np.array_equal(produced, reference)


@pytest.mark.table("simulation")
def test_compiled_engine_speedup_on_gemm(bench_recorder):
    """The compiled engine is >= 3x faster than the interpreter on the
    paper-scale GEMM, even paying elaboration + compilation in-run; a warm
    second run amortizes compilation entirely."""
    artifacts = build_kernel("gemm", size=16)
    clear_compile_cache()

    start = time.perf_counter()
    interpreted, inputs = artifacts.simulate(seed=0, engine="interpreted")
    interpreted_seconds = time.perf_counter() - start

    start = time.perf_counter()
    cold, _ = artifacts.simulate(seed=0, engine="compiled")
    cold_seconds = time.perf_counter() - start

    start = time.perf_counter()
    warm, _ = artifacts.simulate(seed=0, engine="compiled")
    warm_seconds = time.perf_counter() - start

    assert interpreted.done and cold.done and warm.done
    assert interpreted.cycles == cold.cycles == warm.cycles
    expected = artifacts.reference(inputs)["C"]
    assert np.array_equal(cold.memory_array("C"), expected)

    cold_speedup = interpreted_seconds / cold_seconds
    warm_speedup = interpreted_seconds / warm_seconds
    bench_recorder("engine-speedup/gemm-16",
                   interpreted_seconds=interpreted_seconds,
                   cold_seconds=cold_seconds, warm_seconds=warm_seconds,
                   cold_speedup=cold_speedup, warm_speedup=warm_speedup,
                   cycles=int(interpreted.cycles))
    print(f"\nGEMM 16x16 ({interpreted.cycles} cycles): "
          f"interpreted {interpreted_seconds:.3f}s, "
          f"compiled cold {cold_seconds:.3f}s ({cold_speedup:.1f}x), "
          f"warm {warm_seconds:.3f}s ({warm_speedup:.1f}x)")
    assert cold_speedup >= GEMM_MIN_SPEEDUP, (
        f"compiled engine only {cold_speedup:.2f}x faster than interpreter "
        f"(required {GEMM_MIN_SPEEDUP}x)"
    )
    assert warm_speedup >= GEMM_MIN_SPEEDUP


@pytest.mark.table("simulation")
def test_vector_engine_speedup_on_gemm(bench_recorder):
    """The fused vector run beats the compiled engine's per-cycle dispatch on
    the paper-scale GEMM steady state — warm-vs-warm, so both sides pay
    neither levelization nor codegen and the comparison isolates the
    per-cycle interpreter-reentry cost the vector engine removes."""
    artifacts = build_kernel("gemm", size=16)
    clear_compile_cache()

    start = time.perf_counter()
    compiled_cold, inputs = artifacts.simulate(seed=0, engine="compiled")
    compiled_cold_seconds = time.perf_counter() - start

    start = time.perf_counter()
    compiled_warm, _ = artifacts.simulate(seed=0, engine="compiled")
    compiled_warm_seconds = time.perf_counter() - start

    start = time.perf_counter()
    vector_cold, _ = artifacts.simulate(seed=0, engine="vector")
    vector_cold_seconds = time.perf_counter() - start

    start = time.perf_counter()
    vector_warm, _ = artifacts.simulate(seed=0, engine="vector")
    vector_warm_seconds = time.perf_counter() - start

    assert compiled_cold.done and vector_cold.done
    assert vector_warm.cycles == compiled_warm.cycles
    expected = artifacts.reference(inputs)["C"]
    assert np.array_equal(vector_warm.memory_array("C"), expected)

    cold_speedup = compiled_cold_seconds / vector_cold_seconds
    warm_speedup = compiled_warm_seconds / vector_warm_seconds
    bench_recorder("engine-speedup/gemm-16-vector",
                   compiled_warm_seconds=compiled_warm_seconds,
                   vector_cold_seconds=vector_cold_seconds,
                   vector_warm_seconds=vector_warm_seconds,
                   cold_speedup=cold_speedup, warm_speedup=warm_speedup,
                   cycles=int(vector_warm.cycles))
    print(f"\nGEMM 16x16 ({vector_warm.cycles} cycles): "
          f"compiled warm {compiled_warm_seconds:.3f}s, "
          f"vector cold {vector_cold_seconds:.3f}s ({cold_speedup:.1f}x), "
          f"warm {vector_warm_seconds:.3f}s ({warm_speedup:.1f}x)")
    assert warm_speedup >= VECTOR_MIN_SPEEDUP, (
        f"vector engine only {warm_speedup:.2f}x faster than the warm "
        f"compiled engine (required {VECTOR_MIN_SPEEDUP}x)"
    )


@pytest.mark.table("simulation")
def test_batched_engine_amortizes_stimulus_sweep(bench_recorder):
    """Batched lanes beat one interpreted run per stimulus set; every lane
    still matches the numpy reference exactly."""
    artifacts = build_kernel("gemm", size=8)
    seeds = list(range(16))

    start = time.perf_counter()
    single, inputs = artifacts.simulate(seed=seeds[0], engine="interpreted")
    interpreted_per_run = time.perf_counter() - start
    assert np.array_equal(single.memory_array("C"),
                          artifacts.reference(inputs)["C"])

    start = time.perf_counter()
    batch, inputs_per_lane = artifacts.simulate_batch(seeds)
    batched_seconds = time.perf_counter() - start
    batched_per_run = batched_seconds / len(seeds)

    for lane, lane_inputs in enumerate(inputs_per_lane):
        expected = artifacts.reference(lane_inputs)["C"]
        assert np.array_equal(batch.memory_array("C", lane), expected)

    bench_recorder("batched-sweep/gemm-8",
                   lanes=len(seeds),
                   interpreted_seconds_per_run=interpreted_per_run,
                   batched_seconds_per_run=batched_per_run,
                   per_scenario_speedup=interpreted_per_run / batched_per_run)
    print(f"\nGEMM 8x8 x{len(seeds)} stimuli: interpreted "
          f"{interpreted_per_run:.3f}s/run, batched {batched_per_run:.3f}s/run "
          f"({interpreted_per_run / batched_per_run:.1f}x per scenario)")
    assert batched_per_run < interpreted_per_run


@pytest.mark.table("simulation")
def test_warm_store_vector_simulate_on_gemm(bench_recorder, tmp_path):
    """A cold process on a warm store.  A vector simulate into an empty
    store is the cold side; then the in-memory compile cache is dropped and
    a fresh Flow over the filled store simulates again.  The warm side's
    simulator code and simulator image come from the store's ``simcode``
    tier (marshal'd code objects plus the fused run's tables), so it neither
    generates nor ``compile()``-s Python, and it never lowers, elaborates
    or levelizes the design.  Each side is the best of ``REPEATS`` runs, so
    host-speed noise stays below the gate's tolerance."""
    from repro.flow import Flow, FlowConfig

    def simulate(config):
        clear_compile_cache()
        flow = Flow(build_kernel("gemm", size=16), config=config)
        start = time.perf_counter()
        outcome = flow.simulate(seed=0, engine="vector")
        seconds = time.perf_counter() - start
        assert dict(outcome.provenance)["engine"] == "vector"
        expected = flow.reference(outcome.value.inputs)["C"]
        assert np.array_equal(outcome.value.memory_array("C"), expected)
        return seconds, outcome.value.run.cycles

    cold = [simulate(FlowConfig(store_dir=str(tmp_path / f"store{index}")))
            for index in range(REPEATS)]
    warm = [simulate(FlowConfig(store_dir=str(tmp_path / "store0")))
            for _ in range(REPEATS)]
    assert {cycles for _, cycles in cold + warm} == {cold[0][1]}
    cold_seconds = min(seconds for seconds, _ in cold)
    warm_seconds = min(seconds for seconds, _ in warm)
    bench_recorder("store-warm/gemm-16-vector",
                   cold_seconds=cold_seconds,
                   warm_store_seconds=warm_seconds,
                   warm_store_speedup=cold_seconds / warm_seconds,
                   cycles=int(cold[0][1]))
    print(f"\nGEMM 16x16 vector simulate, best of {REPEATS}: empty store "
          f"{cold_seconds:.3f}s, warm store (fresh Flow, empty compile "
          f"cache) {warm_seconds:.3f}s ({cold_seconds / warm_seconds:.1f}x)")
