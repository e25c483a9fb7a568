"""Flow decides the executing simulation engine once, before the run.

With no engine named, ``vector`` runs (``TestDefaultEngine``: every
registered kernel and scenario, and a design whose loop bound is a runtime
argument).  Only the fused ``vector`` engine has capability gaps (external
models, profiling); those run on ``compiled`` with a typed
``fallback_reason``.  A design with no static steady state is not a gap:
``vector`` runs it bit-exactly with or without a store (``TestRuntimeBound``),
and the engine choice loads nothing, so the run's own load of the fused
program is the only one (``TestOneLoad``).  Nothing re-runs after a
failure: an injected engine-compile fault is a typed error
(``TestCompileFault``), and every finding propagates: a static-timing
mismatch, a timeout, an unknown engine name.
"""

import dataclasses

import numpy as np
import pytest

import repro.sim.engine.vector as vector_engine
from repro.evaluation.runner import (
    QUICK_NEW_WORKLOAD_PARAMS,
    QUICK_SCENARIO_PARAMS,
    QUICK_TABLE5_PARAMS,
)
from repro.flow import FALLBACK_REASONS, Flow, FlowConfig
from repro.graph import scenario_names
from repro.ir.errors import SimulationError
from repro.kernels import kernel_names
from repro.obs.tracer import TRACER
from repro.resilience import (
    FaultPlan,
    InjectedError,
    install_plan,
    resilience_counters,
    set_plan,
)
from repro.sim import PipelinedMultiplierModel
from repro.sim.engine import clear_compile_cache
from repro.sim.engine.window import SimulationTimeout


@pytest.fixture(autouse=True)
def no_ambient_plan():
    previous = set_plan(None)
    try:
        yield
    finally:
        set_plan(previous)


def _matvec(store_dir="", **config):
    return Flow.from_kernel("matvec", size=4,
                            config=FlowConfig(store_dir=store_dir, **config))


def _fallbacks():
    return resilience_counters().get("flow.engine_fallback", 0)


def _engine_keys(artifact):
    provenance = dict(artifact.provenance)
    return {key: provenance[key] for key in
            ("engine", "requested", "fallback_reason") if key in provenance}


def _off_by_one_mismatch(monkeypatch, root, warm):
    """Validate matvec on ``vector`` with a static-timing prediction one
    cycle late: the run must raise, naming both cycles, substituting
    nothing.  ``warm``: a first session fills the store ``root`` under the
    bad prediction, and a second one must take it from the stored image
    without analyzing the module again."""
    real = vector_engine.steady_state_of

    def off_by_one(module, top):
        timing = real(module, top)
        return dataclasses.replace(timing, done=timing.done + 1)

    flow = _matvec(root)
    predicted = real(flow.optimized().value, flow.top).done + 1
    monkeypatch.setattr(vector_engine, "steady_state_of", off_by_one)
    clear_compile_cache()
    if warm:
        with pytest.raises(SimulationError):
            flow.validate(seed=0, engine="vector")
        clear_compile_cache()
        flow = _matvec(root)
        monkeypatch.setattr(vector_engine, "steady_state_of", None)
    before = resilience_counters()
    with pytest.raises(SimulationError) as excinfo:
        flow.validate(seed=0, engine="vector")
    message = str(excinfo.value)
    assert f"predicted done at cycle {predicted}" in message
    assert f"observed cycle {predicted - 1}" in message
    assert resilience_counters() == before


class TestFindingsPropagate:
    def test_steady_state_mismatch_raises(self, monkeypatch):
        """An off-by-one static-timing prediction is a finding: the vector
        run raises, naming both cycles, and nothing is substituted."""
        _off_by_one_mismatch(monkeypatch, "", warm=False)

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_steady_state_mismatch_raises_through_a_store(self, monkeypatch,
                                                          tmp_path, warm):
        """The same finding when the prediction is stored with the fused
        run: built into the image on a cold store, read from it on a warm
        one."""
        _off_by_one_mismatch(monkeypatch, str(tmp_path / "store"), warm)

    def test_unknown_engine_name_raises(self):
        before = resilience_counters()
        with pytest.raises(SimulationError, match="vectr") as excinfo:
            _matvec().simulate(seed=0, engine="vectr")
        for name in ("compiled", "differential", "interpreted", "vector"):
            assert name in str(excinfo.value)
        assert resilience_counters() == before

    @pytest.mark.parametrize("engine", ["compiled", "vector"])
    def test_timeout_raises(self, engine):
        before = resilience_counters()
        with pytest.raises(SimulationTimeout):
            _matvec().simulate(seed=0, engine=engine, max_cycles=5)
        assert resilience_counters() == before


class TestCompileFault:
    @pytest.mark.parametrize("engine", ["compiled", "vector"])
    def test_injected_compile_fault_is_an_error(self, engine, tmp_path):
        """The fault propagates as a typed error and substitutes nothing;
        a fault-free session over the same store then runs as if it never
        happened."""
        store = str(tmp_path / "store")
        baseline = _matvec().simulate(seed=0, engine=engine).value
        clear_compile_cache()
        before = _fallbacks()
        with install_plan(FaultPlan.parse("engine.compile:error")):
            with pytest.raises(InjectedError,
                               match="fault point 'engine.compile'"):
                _matvec(store).simulate(seed=0, engine=engine)
        assert _fallbacks() == before
        clear_compile_cache()
        outcome = _matvec(store).simulate(seed=0, engine=engine)
        assert _engine_keys(outcome) == {"engine": engine}
        assert outcome.value.run.cycles == baseline.run.cycles
        for name, memory in baseline.run.memories.items():
            assert outcome.value.run.memories[name].data == memory.data


class _DoneMultiplier(PipelinedMultiplierModel):
    """The two-stage multiplier of Figure 2, raising its ``done`` port."""

    def __init__(self):
        super().__init__(stages=2)

    def clock(self, inputs):
        return {**super().clock(inputs), "done": 1}


def _external_model_flow():
    from repro.evaluation.figures import build_mac
    return Flow(build_mac(multiplier_stages=2), top="mac",
                scalar_args={"a": 6, "b": 7, "c": 1},
                external_models={"mult_2stage": _DoneMultiplier})


def _dyn_bound_flow(store_dir=""):
    """A loop bounded by a runtime argument: no static steady state."""
    from repro.hir.build import DesignBuilder
    from repro.hir.types import MemrefType
    from repro.ir.types import I32

    design = DesignBuilder("dyn_design")
    with design.func("dyn", [("n", I32), ("out", MemrefType((8,), I32,
                                                           port="w"))],
                     stable_args=("n",)) as f:
        with f.for_loop(0, f.arg("n"), 1, time=f.time,
                        iter_offset=1) as loop:
            delayed = f.delay(loop.iv, 1, time=loop.time)
            f.mem_write(delayed, f.arg("out"), [delayed],
                        time=loop.time, offset=1)
            f.yield_(loop.time, offset=1)
        f.return_()
    return Flow(design, scalar_args={"n": 8},
                config=FlowConfig(store_dir=store_dir))


class TestCapabilityGaps:
    @pytest.mark.parametrize("build,kwargs,reason", [
        (_matvec, {"profile": True}, "profiling"),
        (_external_model_flow, {}, "external-models"),
    ], ids=["profiling", "external-models"])
    def test_vector_gap_runs_compiled(self, build, kwargs, reason):
        flow = build()
        # Flows without a stimulus generator have no readable interfaces.
        inputs = None if flow.make_inputs else {}
        reference = flow.simulate(inputs=inputs, engine="interpreted").value.run
        before = _fallbacks()
        with TRACER.activated():
            TRACER.clear()
            outcome = flow.simulate(inputs=inputs, engine="vector", **kwargs)
            events = [event["args"] for event in TRACER.events
                      if event["name"] == "flow.engine_fallback"]
        assert _engine_keys(outcome) == {"engine": "compiled",
                                         "requested": "vector",
                                         "fallback_reason": reason}
        assert reason in FALLBACK_REASONS
        assert outcome.value.run.engine == "compiled"
        assert _fallbacks() == before + 1
        assert events == [{"flow": flow.name, "requested": "vector",
                           "engine": "compiled", "reason": reason}]
        assert outcome.value.run.cycles == reference.cycles
        assert outcome.value.run.results == reference.results
        for name, memory in reference.memories.items():
            assert np.array_equal(outcome.value.memory_array(name),
                                  memory.as_array())

    def test_the_two_gaps_are_the_only_reasons(self):
        assert FALLBACK_REASONS == ("external-models", "profiling")

    @pytest.mark.parametrize("engine", ["interpreted", "compiled", "vector",
                                        "differential"])
    def test_requested_engine_carries_no_fallback_keys(self, engine):
        before = resilience_counters()
        outcome = _matvec().validate(seed=1, engine=engine)
        assert outcome.value.ok
        assert _engine_keys(outcome) == {"engine": engine}
        assert outcome.value.run.engine == engine
        assert resilience_counters() == before


def _assert_same_run(run, reference):
    assert run.cycles == reference.cycles
    assert run.results == reference.results
    for name, memory in reference.memories.items():
        other = run.memories[name]
        assert other.data == memory.data, name
        assert (other.reads, other.writes) == (memory.reads, memory.writes)


class TestRuntimeBound:
    """A loop bounded by a runtime argument has no static steady state, and
    ``vector`` runs it bit-exactly against ``interpreted``, substituting
    nothing, with no store, into a cold store and from a warm one."""

    @pytest.mark.parametrize("store", ["no-store", "cold", "warm"])
    @pytest.mark.parametrize("n", [0, 1, 3, 5, 8])
    def test_runs_on_vector(self, monkeypatch, tmp_path, n, store):
        root = "" if store == "no-store" else str(tmp_path / "store")
        reference = _dyn_bound_flow().simulate(
            inputs={}, engine="interpreted", scalar_args={"n": n}).value.run
        clear_compile_cache()
        if store == "warm":
            _dyn_bound_flow(root).simulate(inputs={}, engine="vector",
                                           scalar_args={"n": n})
            clear_compile_cache()
            # The warm session takes everything from the stored image.
            monkeypatch.setattr(vector_engine, "steady_state_of", None)
        before = _fallbacks()
        outcome = _dyn_bound_flow(root).simulate(inputs={}, engine="vector",
                                                 scalar_args={"n": n})
        assert _engine_keys(outcome) == {"engine": "vector"}
        assert outcome.value.run.engine == "vector"
        assert _fallbacks() == before
        _assert_same_run(outcome.value.run, reference)


class TestOneLoad:
    def test_a_vector_simulate_builds_the_fused_run_once(self, monkeypatch):
        """With the compile cache and the store off, nothing memoizes the
        fused run, so each load generates it: the engine choice loads
        nothing, and the run's own load is the only one."""
        monkeypatch.setenv("REPRO_SIM_CACHE_SIZE", "0")
        real = vector_engine.vector_run_source
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(vector_engine, "vector_run_source", counting)
        outcome = _matvec().simulate(seed=0, engine="vector")
        assert _engine_keys(outcome) == {"engine": "vector"}
        assert len(calls) == 1


class TestPredictionFollowsTheDesign:
    """The static done cycle in the fused run's simulator image depends on
    the design alone: a run built by the differential engine's vector leg
    records the same prediction a ``vector`` run would."""

    def test_a_differential_fill_serves_a_warm_vector_run(self, tmp_path):
        root = str(tmp_path / "store")
        clear_compile_cache()
        _matvec(root).simulate(seed=0, engine="differential")
        clear_compile_cache()
        before = resilience_counters()
        outcome = _matvec(root).simulate(seed=0, engine="vector")
        assert _engine_keys(outcome) == {"engine": "vector"}
        assert outcome.value.run.engine == "vector"
        assert resilience_counters() == before

    def test_a_differential_run_serves_a_vector_run_in_process(self):
        flow = _matvec()
        clear_compile_cache()
        flow.simulate(seed=0, engine="differential")
        outcome = flow.simulate(seed=0, engine="vector")
        assert _engine_keys(outcome) == {"engine": "vector"}
        assert outcome.value.run.engine == "vector"


QUICK_KERNELS = {**QUICK_TABLE5_PARAMS, **QUICK_NEW_WORKLOAD_PARAMS}


class TestDefaultEngine:
    """With no engine named anywhere, every registered kernel and scenario
    executes the fused ``vector`` engine: no capability gap, no substitution."""

    @pytest.fixture(autouse=True)
    def no_engine_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)

    @staticmethod
    def _check(flow):
        validated = flow.validate(seed=1)
        assert validated.value.ok
        assert validated.value.run.engine == "vector"
        assert _engine_keys(validated) == {"engine": "vector"}

    def test_every_kernel_and_scenario_is_covered(self):
        assert set(QUICK_KERNELS) == set(kernel_names())
        assert set(QUICK_SCENARIO_PARAMS) == set(scenario_names())

    @pytest.mark.parametrize("kernel", sorted(QUICK_KERNELS))
    def test_kernel_validates_on_vector(self, kernel):
        self._check(Flow.from_kernel(kernel, config=FlowConfig(store_dir=""),
                                     **QUICK_KERNELS[kernel]))

    @pytest.mark.parametrize("scenario", sorted(QUICK_SCENARIO_PARAMS))
    def test_scenario_validates_on_vector(self, scenario):
        self._check(Flow.from_scenario(scenario,
                                       config=FlowConfig(store_dir=""),
                                       **QUICK_SCENARIO_PARAMS[scenario]))

    def test_runtime_bound_design_runs_on_vector(self):
        flow = _dyn_bound_flow()
        reference = flow.simulate(inputs={}, engine="interpreted").value.run
        outcome = flow.simulate(inputs={})
        assert _engine_keys(outcome) == {"engine": "vector"}
        assert outcome.value.run.engine == "vector"
        _assert_same_run(outcome.value.run, reference)
