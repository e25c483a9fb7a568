"""Flow stages: lazy caching, content-based invalidation, registry, CLI."""

import numpy as np
import pytest

from repro.flow import Flow, FlowConfig, FlowError
from repro.kernels import (
    KERNEL_BUILDERS,
    UnknownKernelError,
    build_kernel,
    register_kernel,
    unregister_kernel,
)
from repro.kernels import transpose as transpose_kernel


class TestStageCaching:
    def test_second_access_is_cached(self):
        flow = Flow(build_kernel("transpose", size=4))
        first = flow.verilog()
        second = flow.verilog()
        assert not first.cached
        assert second.cached
        assert second.fingerprint == first.fingerprint
        assert second.value is first.value

    def test_all_stages_report_timings(self):
        flow = Flow(build_kernel("transpose", size=4))
        flow.resources()
        timings = flow.timings()
        assert set(timings) >= {"hir", "optimized", "verilog", "resources"}
        assert all(seconds >= 0 for seconds in timings.values())

    def test_artifacts_carry_provenance(self):
        flow = Flow(build_kernel("transpose", size=4))
        artifact = flow.verilog()
        provenance = dict(artifact.provenance)
        assert provenance["pipeline"] == "optimize"
        assert provenance["top"] == "transpose"
        assert provenance["verify_each"] == "True"
        assert len(artifact.fingerprint) == 16

    def test_clear_drops_stages(self):
        flow = Flow(build_kernel("transpose", size=4))
        flow.verilog()
        flow.clear()
        assert flow.timings() == {}
        assert not flow.verilog().cached

    def test_config_change_needs_new_flow_not_stale_cache(self):
        artifacts = build_kernel("transpose", size=4)
        noopt = Flow(artifacts, config=FlowConfig(pipeline="none"))
        opt = Flow(artifacts, config=FlowConfig(pipeline="optimize"))
        assert noopt.verilog_text != opt.verilog_text


class TestInvalidationOnMutation:
    """The fix for the old `getattr(self, "_design")` stale-cache hack."""

    def _mutate(self, module):
        from repro.passes import optimization_pipeline
        optimization_pipeline(verify_each=False).run(module)

    def test_verilog_rebuilds_after_module_mutation(self):
        flow = Flow(build_kernel("transpose", size=4),
                    config=FlowConfig(pipeline="none"))
        before = flow.verilog()
        self._mutate(flow.module)
        after = flow.verilog()
        assert not after.cached
        assert after.fingerprint != before.fingerprint
        assert after.value is not before.value

    def test_kernel_artifacts_no_longer_serve_stale_designs(self):
        artifacts = build_kernel("transpose", size=4)
        first_design = artifacts.flow().design
        self._mutate(artifacts.module)
        second_design = artifacts.flow().design
        assert second_design is not first_design
        # ... and the fresh design still simulates correctly.
        run, inputs = artifacts.simulate(seed=1)
        assert artifacts.check_outputs(run, inputs)

    def test_unchanged_module_shares_the_design(self):
        artifacts = build_kernel("transpose", size=4)
        run_a, _ = artifacts.simulate(seed=0)
        run_b, _ = artifacts.simulate(seed=1)
        assert artifacts.flow().verilog().cached


class TestBareModuleFlows:
    def test_top_and_interfaces_are_derived(self):
        flow = Flow(transpose_kernel.build_hir(4))
        assert flow.top == "transpose"
        assert set(flow.interfaces) == {"Ai", "Co"}

    def test_simulate_with_explicit_inputs_zero_fills_outputs(self):
        flow = Flow(transpose_kernel.build_hir(4))
        matrix = np.arange(16).reshape(4, 4)
        outcome = flow.simulate(inputs={"Ai": matrix}).value
        assert np.array_equal(outcome.memory_array("Co"), matrix.T)

    def test_unknown_input_interface_rejected(self):
        flow = Flow(transpose_kernel.build_hir(4))
        with pytest.raises(FlowError, match="unknown interface"):
            flow.simulate(inputs={"A": np.zeros((4, 4))})  # typo for "Ai"

    def test_missing_readable_interface_rejected(self):
        flow = Flow(transpose_kernel.build_hir(4))
        with pytest.raises(FlowError, match="readable interface 'Ai'"):
            flow.simulate(inputs={"Co": np.zeros((4, 4))})

    def test_validate_without_reference_raises(self):
        flow = Flow(transpose_kernel.build_hir(4))
        with pytest.raises(FlowError, match="reference"):
            flow.validate()

    def test_simulate_without_stimulus_raises(self):
        flow = Flow(transpose_kernel.build_hir(4))
        with pytest.raises(FlowError, match="stimulus"):
            flow.simulate(seed=0)

    def test_multi_function_module_needs_explicit_top(self):
        from repro.evaluation.figures import build_array_add
        module = build_array_add(correct=True)
        # single non-external function: inferred fine
        assert Flow(module).top

    def test_validate_with_supplied_reference(self):
        flow = Flow(
            transpose_kernel.build_hir(4),
            make_inputs=lambda seed: {
                "Ai": np.full((4, 4), seed, dtype=np.int64),
                "Co": np.zeros((4, 4), dtype=np.int64),
            },
            reference=lambda inputs: {"Co": np.asarray(inputs["Ai"]).T},
        )
        assert flow.validate(seed=9).value.ok


class TestKernelRegistry:
    def test_unknown_kernel_lists_the_registry(self):
        with pytest.raises(KeyError) as excinfo:
            build_kernel("typo")
        message = str(excinfo.value)
        assert "typo" in message
        assert "register_kernel" in message
        for name in ("gemm", "transpose", "fifo"):
            assert name in message

    def test_unknown_kernel_error_is_a_keyerror(self):
        with pytest.raises(UnknownKernelError):
            build_kernel("nope")

    def test_register_kernel_plugs_into_flow(self):
        def build_tiny(size=4):
            artifacts = transpose_kernel.build(size)
            artifacts.name = "tiny_transpose"
            return artifacts

        register_kernel("tiny_transpose", build_tiny)
        try:
            assert "tiny_transpose" in KERNEL_BUILDERS
            flow = Flow.from_kernel("tiny_transpose", size=4)
            assert flow.validate(seed=1).value.ok
        finally:
            unregister_kernel("tiny_transpose")
        assert "tiny_transpose" not in KERNEL_BUILDERS

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_kernel("gemm", lambda: None)

    def test_overwrite_requires_opt_in(self):
        original = KERNEL_BUILDERS["gemm"]
        register_kernel("gemm", original, overwrite=True)
        assert KERNEL_BUILDERS["gemm"] is original

    def test_non_callable_builder_rejected(self):
        with pytest.raises(TypeError, match="callable"):
            register_kernel("broken", None)


class TestTopLevelExports:
    def test_lazy_exports_resolve(self):
        import repro
        assert repro.Flow is Flow
        assert repro.FlowConfig is FlowConfig
        assert repro.build_kernel is build_kernel
        assert callable(repro.register_kernel)
        assert "Flow" in dir(repro)

    def test_unknown_attribute_still_raises(self):
        import repro
        with pytest.raises(AttributeError):
            repro.does_not_exist


class TestCommandLine:
    def test_list(self, capsys):
        from repro.__main__ import main
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gemm" in out and "compiled" in out

    def test_simulate_ok(self, capsys):
        from repro.__main__ import main
        assert main(["simulate", "transpose", "-p", "size=4",
                     "--engine", "compiled"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_build_writes_verilog(self, tmp_path, capsys):
        from repro.__main__ import main
        output = tmp_path / "transpose.v"
        assert main(["build", "transpose", "-p", "size=4", "--pipeline",
                     "none", "-o", str(output), "--resources"]) == 0
        text = output.read_text()
        assert "module transpose" in text
        # byte-identical to the library path
        flow = Flow(build_kernel("transpose", size=4),
                    config=FlowConfig(pipeline="none"))
        assert text == flow.verilog_text

    def test_sweep(self, capsys):
        from repro.__main__ import main
        assert main(["sweep", "transpose", "-p", "size=4",
                     "--seeds", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok") == 3

    def test_bad_param_rejected(self):
        from repro.__main__ import main
        with pytest.raises(SystemExit):
            main(["build", "transpose", "-p", "size=big"])
