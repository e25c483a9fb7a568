"""Differential sweep pinning the vector engine against the interpreted
reference over randomly generated programs.

The ``engines`` oracle grew a vector leg (bit-exact cycles, outputs and
interface counters, with a typed skip when no static steady state exists);
this suite drives it across fixed seeds — 25 programs on tier-1, 250 on the
``slow`` tier — plus the composed scenarios from :func:`Flow.from_scenario`
and an explicit data-dependent design that Flow runs on the compiled engine
instead of the fused run, with typed provenance.

Failures name the seed; replay with
``python -m repro fuzz --seed <N> --count 1``.
"""

import pytest

from repro.flow import Flow
from repro.fuzz import check_program, generate_spec

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


class TestNoSteadyStateFallback:
    """A data-dependent schedule has no static steady state: asking for the
    vector engine must run on the compiled engine, with provenance saying
    so — never a crash, never wrong data."""

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

    def test_flow_falls_back_with_typed_provenance(self):
        outcome = self.build_flow().simulate(inputs={}, engine="vector")
        provenance = dict(outcome.provenance)
        assert provenance["engine"] == "compiled"
        assert provenance["requested"] == "vector"
        assert provenance["fallback_reason"] == "no-static-steady-state"
        assert outcome.value.run.engine == "compiled"
        assert outcome.value.run.memories["out"].data == list(range(8))

    def test_steady_state_of_raises_typed_error(self):
        from repro.sim.engine.vector import (VectorUnsupported,
                                             steady_state_of)
        flow = self.build_flow()
        design = flow.optimized().value
        with pytest.raises(VectorUnsupported):
            steady_state_of(design, flow.top)
