"""Differential sweep pinning the vector engine against the interpreted
reference over randomly generated programs.

The ``engines`` oracle has a vector leg (bit-exact cycles, outputs and
interface counters) and runs each program's runtime-bound twin (outermost
loop bounded by a runtime argument, so no static steady state) through the
differential and vector engines; this suite drives it across fixed seeds —
25 programs on tier-1, 250 on the ``slow`` tier.  The tier-1 twins also run
through :meth:`Flow.simulate`, which must execute them on ``vector``, as
must the composed scenarios from :func:`Flow.from_scenario` and an explicit
data-dependent design.

Failures name the seed; replay with
``python -m repro fuzz --seed <N> --count 1``.
"""

import pytest

from repro.flow import Flow, FlowConfig
from repro.fuzz import check_program, generate_spec
from repro.fuzz.oracles import make_lane_inputs
from repro.fuzz.spec import materialize
from repro.sim.engine.vector import steady_state_of

#: Tier-1 sweep: 25 programs through the engines oracle (incl. vector leg).
TIER1_SEEDS = 25
#: Slow tier: 10 chunks x 25 seeds = 250 programs.
CHUNKS = 10
SEEDS_PER_CHUNK = 25


def sweep(seeds, max_ops=25):
    for seed in seeds:
        failure = check_program(generate_spec(seed, max_ops=max_ops),
                                oracles=("engines",))
        assert failure is None, (
            f"seed {seed} diverged — replay with "
            f"`python -m repro fuzz --seed {seed} --count 1`:\n"
            f"{failure.render()}")


@pytest.mark.tier1
def test_vector_differential_canary():
    sweep(range(TIER1_SEEDS))


@pytest.mark.slow
@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_vector_differential_sweep(chunk):
    sweep(range(chunk * SEEDS_PER_CHUNK, (chunk + 1) * SEEDS_PER_CHUNK),
          max_ops=40)


def _engine_keys(artifact):
    provenance = dict(artifact.provenance)
    return {key: provenance[key] for key in
            ("engine", "requested", "fallback_reason") if key in provenance}


def _assert_same_run(run, reference, label):
    assert run.engine == "vector", label
    assert run.cycles == reference.cycles, label
    assert run.results == reference.results, label
    for name, memory in reference.memories.items():
        other = run.memories[name]
        assert other.data == memory.data, (label, name)
        assert (other.reads, other.writes) == (memory.reads, memory.writes), \
            (label, name)


@pytest.mark.tier1
def test_runtime_bound_twins_run_on_vector():
    """Each tier-1 seed's runtime-bound twin has no static steady state, and
    Flow runs it on ``vector``, substituting nothing, bit-exact against
    ``interpreted``."""
    for seed in range(TIER1_SEEDS):
        spec = generate_spec(seed, max_ops=25)
        program = materialize(spec, runtime_bound=True)
        flow = Flow(program.module, top=program.top,
                    scalar_args={"n": spec.sizes[0]},
                    config=FlowConfig(store_dir=""))
        assert steady_state_of(flow.optimized().value, flow.top) is None, seed
        inputs = make_lane_inputs(spec, program.interfaces,
                                  program.input_names, program.output_names,
                                  lane=0)
        outcome = flow.simulate(inputs=inputs, engine="vector")
        assert _engine_keys(outcome) == {"engine": "vector"}, seed
        reference = flow.simulate(inputs=inputs, engine="interpreted")
        _assert_same_run(outcome.value.run, reference.value.run, seed)


#: Composed scenarios: multi-kernel graphs lowered through Flow.from_scenario.
SCENARIOS = [
    ("gemm_pipeline", {"size": 3}),
    ("histogram_cdf", {"pixels": 32, "bins": 8}),
    ("sorted_scan", {"size": 4}),
]


@pytest.mark.parametrize("scenario,parameters",
                         SCENARIOS, ids=[name for name, _ in SCENARIOS])
def test_composed_scenarios_are_bit_exact(scenario, parameters):
    flow = Flow.from_scenario(scenario, **parameters)
    reference = flow.simulate(seed=3, engine="interpreted")
    vector = flow.simulate(seed=3, engine="vector")
    assert "fallback_reason" not in dict(vector.provenance), scenario
    assert vector.value.engine == vector.value.run.engine == "vector", scenario
    assert vector.value.run.cycles == reference.value.run.cycles
    assert vector.value.run.results == reference.value.run.results
    for name, memory in reference.value.run.memories.items():
        other = vector.value.run.memories[name]
        assert other.data == memory.data, (scenario, name)
        assert (other.reads, other.writes) == (memory.reads, memory.writes)


class TestNoStaticSteadyState:
    """A data-dependent schedule has no static steady state.  That is no
    capability gap: asking for the vector engine runs it on the vector
    engine, bit-exact against the interpreted reference."""

    def build_flow(self):
        from repro.hir.build import DesignBuilder
        from repro.hir.types import MemrefType
        from repro.ir.types import I32

        design = DesignBuilder("dyn_design")
        out_type = MemrefType((8,), I32, port="w")
        with design.func("dyn", [("n", I32), ("out", out_type)],
                         stable_args=("n",)) as f:
            # Loop bound is the runtime argument %n — unknowable statically.
            with f.for_loop(0, f.arg("n"), 1, time=f.time,
                            iter_offset=1) as loop:
                delayed = f.delay(loop.iv, 1, time=loop.time)
                f.mem_write(delayed, f.arg("out"), [delayed],
                            time=loop.time, offset=1)
                f.yield_(loop.time, offset=1)
            f.return_()
        return Flow(design, scalar_args={"n": 8})

    def test_flow_runs_it_on_vector_bit_exact(self):
        flow = self.build_flow()
        outcome = flow.simulate(inputs={}, engine="vector")
        assert _engine_keys(outcome) == {"engine": "vector"}
        assert outcome.value.run.memories["out"].data == list(range(8))
        reference = flow.simulate(inputs={}, engine="interpreted")
        _assert_same_run(outcome.value.run, reference.value.run, "dyn")

    def test_steady_state_of_returns_none(self):
        flow = self.build_flow()
        assert steady_state_of(flow.optimized().value, flow.top) is None
