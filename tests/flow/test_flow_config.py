"""FlowConfig: env round-trips and the documented precedence chain.

Precedence (highest wins): per-call kwarg > FlowConfig field > environment
(``REPRO_SIM_ENGINE`` / ``REPRO_STORE_DIR``, read at call time) > built-in
(the ``vector`` engine).  The baseline HLS compiler's DSE is not config:
it reads no environment variable.
"""

from dataclasses import fields

import pytest

from repro.flow import ENV_VARS, Flow, FlowConfig, FlowError
from repro.hls import compile_program
from repro.kernels import build_kernel


@pytest.fixture()
def transpose_flow():
    return Flow(build_kernel("transpose", size=4),
                config=FlowConfig(pipeline="none"))


class TestFromEnv:
    def test_every_env_var_round_trips(self):
        env = {
            "REPRO_SIM_ENGINE": "compiled",
            "REPRO_STORE_DIR": "/tmp/repro-store-roundtrip",
        }
        assert set(env) == set(ENV_VARS)
        config = FlowConfig.from_env(env)
        assert config.engine == "compiled"
        assert config.store_dir == "/tmp/repro-store-roundtrip"

    def test_unset_variables_inherit(self):
        config = FlowConfig.from_env({})
        assert config.engine is None
        assert config.store_dir is None

    def test_real_environment_round_trip(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "interpreted")
        monkeypatch.setenv("REPRO_STORE_DIR", "")
        config = FlowConfig.from_env()
        assert (config.engine, config.store_dir) == ("interpreted", "")

    def test_overrides_beat_env(self):
        config = FlowConfig.from_env({"REPRO_SIM_ENGINE": "interpreted"},
                                     engine="compiled")
        assert config.engine == "compiled"


class TestValidation:
    def test_unknown_pipeline_rejected(self):
        with pytest.raises(FlowError, match="pipeline"):
            FlowConfig(pipeline="hyperoptimize")

    def test_unknown_engine_rejected(self):
        with pytest.raises(FlowError, match="engine"):
            FlowConfig(engine="verilator")

    def test_only_the_seven_caller_set_fields(self):
        assert [field.name for field in fields(FlowConfig)] == [
            "engine", "pipeline", "verify_structure", "verify_each",
            "store_dir", "trace", "profile"]

    def test_bad_jobs_rejected(self):
        # The DSE is serial: a caller still passing a job count, to the
        # config or to the HLS compiler, fails loudly instead of being ignored.
        with pytest.raises(TypeError, match="dse_jobs"):
            FlowConfig(dse_jobs=2)
        artifacts = build_kernel("transpose", size=4)
        with pytest.raises(TypeError, match="jobs"):
            compile_program(artifacts.hls_program, artifacts.hls_function,
                            jobs=2)

    def test_with_returns_modified_copy(self):
        base = FlowConfig()
        derived = base.with_(engine="compiled", pipeline="none")
        assert base.engine is None and derived.engine == "compiled"
        assert derived.pipeline == "none"


class TestEnginePrecedence:
    def test_per_call_beats_config(self, transpose_flow):
        flow = Flow(transpose_flow.source,
                    config=FlowConfig(pipeline="none", engine="interpreted"))
        outcome = flow.simulate(seed=0, engine="compiled").value
        assert outcome.engine == "compiled"

    def test_config_beats_env(self, transpose_flow, monkeypatch):
        # Set after import: the environment is read when the flow simulates.
        monkeypatch.setenv("REPRO_SIM_ENGINE", "interpreted")
        flow = Flow(transpose_flow.source,
                    config=FlowConfig(pipeline="none", engine="compiled"))
        assert flow.simulate(seed=0).value.engine == "compiled"

    def test_env_used_when_config_inherits(self, transpose_flow, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "compiled")
        assert transpose_flow.simulate(seed=0).value.engine == "compiled"

    def test_resolve_engine_chain(self, monkeypatch):
        from repro.sim.engine import DEFAULT_ENGINE
        monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)
        config = FlowConfig()
        assert config.resolve_engine() == DEFAULT_ENGINE == "vector"
        monkeypatch.setenv("REPRO_SIM_ENGINE", "interpreted")
        assert config.resolve_engine() == "interpreted"
        assert FlowConfig(engine="compiled").resolve_engine() == "compiled"
        assert FlowConfig(engine="compiled").resolve_engine(
            "differential") == "differential"


class TestCacheBounds:
    def test_sim_cache_size_zero_disables_compile_cache(self, monkeypatch):
        from repro.sim.engine import clear_compile_cache, compile_cache_size
        monkeypatch.setenv("REPRO_SIM_CACHE_SIZE", "0")
        clear_compile_cache()
        flow = Flow(build_kernel("transpose", size=4),
                    config=FlowConfig(pipeline="none"))
        flow.simulate(seed=0, engine="compiled")
        assert compile_cache_size() == 0

    def test_sim_cache_inherits_env_when_unset(self):
        from repro.sim.engine import clear_compile_cache, compile_cache_size
        clear_compile_cache()
        flow = Flow(build_kernel("transpose", size=4),
                    config=FlowConfig(pipeline="none"))
        flow.simulate(seed=0, engine="compiled")
        assert compile_cache_size() == 1
        clear_compile_cache()
