"""The fused whole-run ``vector`` engine (:mod:`repro.sim.engine.vector`).

Bit-exactness versus the interpreted reference — cycle counts, result
ports, memory contents and interface access counters — over every
registered kernel, plus the engine's API surface: the run-level-only
contract (no per-cycle simulator), the typed :class:`VectorUnsupported`
refusal (which Flow turns into a compiled run) and the compile cache shared
with the compiled engine.  The static-timing check of the observed done
cycle is pinned by ``tests/flow/test_engine_choice.py::TestFindingsPropagate``.
"""

import pytest

from repro.ir.errors import SimulationError
from repro.kernels import build_kernel, kernel_names
from repro.sim import (
    SimulationTimeout,
    VectorUnsupported,
    available_engines,
    create_simulator,
    run_design_vector,
)
from repro.sim.testbench import run_design_impl

#: Tier-1 problem sizes (kernels not listed use their defaults).
SMALL_PARAMS = {
    "transpose": {"size": 8},
    "stencil_1d": {"size": 32},
    "histogram": {"pixels": 64, "bins": 32},
    "gemm": {"size": 4},
    "convolution": {"size": 8},
    "fifo": {"depth": 64},
    "matvec": {"size": 4},
    "prefix_sum": {"size": 8},
    "spmv": {"rows": 4, "nnz": 2},
    "sorting_network": {"size": 4},
}


def run_kernel(artifacts, engine, seed=7):
    inputs = artifacts.make_inputs(seed)
    design = artifacts.flow().design
    return run_design_impl(
        design,
        memories={name: (memref_type, inputs.get(name))
                  for name, memref_type in artifacts.interfaces.items()},
        scalar_inputs=artifacts.scalar_args,
        max_cycles=50000, drain_cycles=16, engine=engine)


def assert_identical(reference, vector, label):
    assert vector.engine == "vector", label
    assert vector.cycles == reference.cycles, label
    assert vector.results == reference.results, label
    for name, memory in reference.memories.items():
        other = vector.memories[name]
        assert other.data == memory.data, (label, name)
        assert (other.reads, other.writes) == (memory.reads, memory.writes), \
            (label, name)


@pytest.mark.parametrize("kernel", kernel_names())
def test_vector_matches_interpreted(kernel):
    artifacts = build_kernel(kernel, **SMALL_PARAMS.get(kernel, {}))
    reference = run_kernel(artifacts, "interpreted")
    vector = run_kernel(artifacts, "vector")
    assert_identical(reference, vector, kernel)


def test_vector_is_listed_and_settable():
    assert "vector" in available_engines()
    artifacts = build_kernel("transpose", size=4)
    assert run_kernel(artifacts, engine="vector").engine == "vector"


def test_vector_has_no_per_cycle_simulator():
    design = build_kernel("transpose", size=4).flow().design
    with pytest.raises(SimulationError, match="whole runs"):
        create_simulator(design, engine="vector")


def test_profiler_falls_back_to_compiled_with_typed_reason():
    """Per-cycle profiling is unobservable from a fused run: the sim layer
    refuses it with a typed error, and Flow runs it on the compiled engine
    with the reason in provenance."""
    from repro.obs.simprofile import SimProfiler
    artifacts = build_kernel("transpose", size=4)
    inputs = artifacts.make_inputs(1)
    design = artifacts.flow().design
    memories = {name: (memref_type, inputs.get(name))
                for name, memref_type in artifacts.interfaces.items()}
    with pytest.raises(VectorUnsupported, match="profil"):
        run_design_vector(design, memories=memories, profiler=SimProfiler())
    with pytest.raises(VectorUnsupported, match="profil"):
        run_design_impl(design, memories=memories, engine="vector",
                        profiler=SimProfiler())
    outcome = artifacts.flow().simulate(seed=1, engine="vector", profile=True)
    provenance = dict(outcome.provenance)
    assert provenance["engine"] == outcome.value.run.engine == "compiled"
    assert provenance["fallback_reason"] == "profiling"
    assert outcome.value.profile is not None


def test_differential_engine_grows_a_vector_leg():
    """engine="differential" now cross-checks the fused run too; a clean
    kernel must still pass the three-way comparison."""
    artifacts = build_kernel("matvec", size=4)
    run = run_kernel(artifacts, "differential")
    assert run.done


def test_vector_timeout_is_typed():
    artifacts = build_kernel("gemm", size=4)
    inputs = artifacts.make_inputs(1)
    design = artifacts.flow().design
    memories = {name: (memref_type, inputs.get(name))
                for name, memref_type in artifacts.interfaces.items()}
    with pytest.raises(SimulationTimeout) as excinfo:
        run_design_vector(design, memories=memories, max_cycles=5)
    assert excinfo.value.undone_lanes == (0,)
    assert excinfo.value.max_cycles == 5


def test_fused_program_is_cached_per_interface_signature():
    from repro.sim.engine.cache import compiled_artifacts
    from repro.sim.engine.vector import _cached_run
    artifacts = build_kernel("transpose", size=4)
    inputs = artifacts.make_inputs(1)
    design = artifacts.flow().design
    memories = {name: (memref_type, inputs.get(name))
                for name, memref_type in artifacts.interfaces.items()}
    first = _cached_run(design, None, memories).run
    second = _cached_run(design, None, memories).run
    assert first is second
    # ...and the scalar step functions are the compiled engine's.
    shared = compiled_artifacts(design, None, None, vector=False)
    cached = _cached_run(design, None, memories)
    assert cached.steps is shared.step_fns


class TestImageValidation:
    """:func:`compile_vector_run` refuses a simulator image that is not the
    program's with a ValueError, which the store reads as a corrupt blob."""

    @pytest.fixture(scope="class")
    def program(self):
        from repro.sim.engine.cache import base_artifacts
        from repro.sim.engine.vector import (
            _interface_specs,
            compile_vector_run,
            vector_run_source,
        )
        artifacts = build_kernel("histogram", pixels=64, bins=32)
        lowered = base_artifacts(artifacts.flow().design, None, None).lowered
        specs = _interface_specs({name: (memref_type, None) for name, memref_type
                                  in artifacts.interfaces.items()})
        (code, image), _ = compile_vector_run(
            lowered, vector_run_source(lowered, specs))
        assert image["memories"] and image["processes"]
        return code, image

    @pytest.mark.parametrize("damage", [
        lambda image: image.pop("names"),
        lambda image: image.update(inputs=list(image["inputs"])),
        lambda image: image.update(assigns=True),
        lambda image: image.update(_TARGETS=image["_TARGETS"][:-1]),
        lambda image: image.update(reset=image["reset"] + [0]),
        lambda image: image.update(mem_names=image["mem_names"][1:]),
        lambda image: image.update(names=image["names"] + ["extra"]
                                   * (image["slots"] + 1)),
        lambda image: image.update(processes=image["processes"] + 1),
        lambda image: image.pop("done"),
        lambda image: image.update(done="12"),
        lambda image: image.update(done=True),
    ], ids=["missing-field", "wrong-type", "bool-count", "assign-table",
            "slot-table", "memory-table", "names", "process-count",
            "missing-done", "done-not-int", "done-bool"])
    def test_a_malformed_image_is_a_value_error(self, program, damage):
        from repro.sim.engine.vector import compile_vector_run
        code, image = program
        damaged = dict(image)
        damage(damaged)
        with pytest.raises(ValueError):
            compile_vector_run(damaged, code)

    def test_the_real_image_loads(self, program):
        from repro.sim.engine.vector import compile_vector_run
        code, image = program
        assert image["done"] is None        # built from a bare Design
        assert compile_vector_run(dict(image), code)[1][0] == image
        predicted = dict(image, done=12)
        assert compile_vector_run(dict(predicted), code)[1][0] == predicted
