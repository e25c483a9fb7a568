"""FlowConfig: env round-trips and the documented precedence chain.

Precedence (highest wins): per-call kwarg > FlowConfig field > process
default (``set_default_engine``) > environment (``REPRO_*``) > built-in.
"""

import pytest

from repro.flow import ENV_VARS, Flow, FlowConfig, FlowError
from repro.kernels import build_kernel


@pytest.fixture()
def transpose_flow():
    return Flow(build_kernel("transpose", size=4),
                config=FlowConfig(pipeline="none"))


class TestFromEnv:
    def test_every_env_var_round_trips(self):
        env = {
            "REPRO_SIM_ENGINE": "compiled",
            "REPRO_DSE_JOBS": "3",
            "REPRO_DSE_EXECUTOR": "process",
            "REPRO_STORE_DIR": "/tmp/repro-store-roundtrip",
        }
        assert set(env) == set(ENV_VARS)
        config = FlowConfig.from_env(env)
        assert config.engine == "compiled"
        assert config.dse_jobs == 3
        assert config.dse_executor == "process"
        assert config.store_dir == "/tmp/repro-store-roundtrip"

    def test_unset_variables_inherit(self):
        config = FlowConfig.from_env({})
        assert config.engine is None
        assert config.dse_jobs is None
        assert config.dse_executor is None
        assert config.store_dir is None

    def test_real_environment_round_trip(self, monkeypatch):
        for var, value in (("REPRO_SIM_ENGINE", "interpreted"),
                           ("REPRO_DSE_JOBS", "2"),
                           ("REPRO_DSE_EXECUTOR", "thread")):
            monkeypatch.setenv(var, value)
        config = FlowConfig.from_env()
        assert (config.engine, config.dse_jobs, config.dse_executor) == (
            "interpreted", 2, "thread")

    def test_garbage_integers_are_ignored(self):
        config = FlowConfig.from_env({"REPRO_DSE_JOBS": "lots"})
        assert config.dse_jobs is None

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

    def test_bad_jobs_rejected(self):
        with pytest.raises(FlowError, match="dse_jobs"):
            FlowConfig(dse_jobs=0)

    def test_bad_executor_rejected(self):
        with pytest.raises(FlowError, match="dse_executor"):
            FlowConfig(dse_executor="gpu")

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

    def test_config_beats_process_default(self, transpose_flow):
        from repro.sim import set_default_engine
        previous = set_default_engine("interpreted")
        try:
            flow = Flow(transpose_flow.source,
                        config=FlowConfig(pipeline="none", engine="compiled"))
            assert flow.simulate(seed=0).value.engine == "compiled"
        finally:
            set_default_engine(previous)

    def test_process_default_used_when_config_inherits(self, transpose_flow):
        from repro.sim import set_default_engine
        previous = set_default_engine("compiled")
        try:
            assert transpose_flow.simulate(seed=0).value.engine == "compiled"
        finally:
            set_default_engine(previous)

    def test_resolve_engine_chain(self):
        from repro.sim import get_default_engine
        config = FlowConfig()
        assert config.resolve_engine() == get_default_engine()
        assert config.resolve_engine("compiled") == "compiled"
        assert FlowConfig(engine="compiled").resolve_engine() == "compiled"


class TestDsePrecedence:
    def test_per_call_jobs_beat_config(self):
        options = FlowConfig(dse_jobs=2).hls_options(jobs=4)
        assert options.jobs == 4

    def test_config_jobs_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DSE_JOBS", "8")
        assert FlowConfig(dse_jobs=2).hls_options().jobs == 2

    def test_env_jobs_used_when_config_inherits(self, monkeypatch):
        monkeypatch.setenv("REPRO_DSE_JOBS", "8")
        assert FlowConfig().hls_options().jobs == 8

    def test_executor_passthrough(self):
        assert FlowConfig(dse_executor="process").hls_options().executor == \
            "process"


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
