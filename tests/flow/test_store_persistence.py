"""Flow × ArtifactStore: warm-store sessions reproduce artifacts exactly.

A cold process pointed at a warm ``REPRO_STORE_DIR`` must serve the same
bytes the original session produced — and any store damage (corruption,
torn publishes) may cost a rebuild but can never change an artifact or fail
a build.  The injected-compile-fault engine fallback rides the same
contract: the run re-executes on the interpreter with identical results.
"""

import numpy as np
import pytest

from repro.flow import Flow, FlowConfig
from repro.kernels import build_kernel
from repro.resilience import (
    FaultPlan,
    InjectedError,
    install_plan,
    resilience_counters,
    set_plan,
)
from repro.store import ArtifactStore, store_counters


@pytest.fixture(autouse=True)
def no_ambient_plan():
    previous = set_plan(None)
    try:
        yield
    finally:
        set_plan(previous)


def _flow(store_root, **overrides):
    config = FlowConfig(pipeline="optimize", verify_each=False,
                        store_dir=store_root, **overrides)
    return Flow(build_kernel("matvec", size=4), config=config)


def _artifacts(flow):
    """Everything a session produces: Verilog, resources, a simulation."""
    from repro.sim.engine import clear_compile_cache
    clear_compile_cache()               # read simulator sources via the store
    report = flow.resources().value
    run = flow.simulate(seed=3, engine="compiled").value.run
    return (flow.verilog().value.text,
            (report.lut, report.ff, report.dsp, report.bram),
            run.cycles, run.memory_array("y").tolist())


class TestWarmStoreReproduction:
    def test_fresh_session_serves_identical_bytes(self, tmp_path):
        root = str(tmp_path / "store")
        first = _flow(root)
        verilog = first.verilog().value.text
        resources = first.resources().value
        assert ArtifactStore(root).blob_count() >= 3   # ir, verilog, resources

        hits_before = store_counters()["hits"]
        second = _flow(root)                # a brand-new session, warm store
        assert second.verilog().value.text == verilog
        report = second.resources().value
        assert (report.lut, report.ff, report.dsp, report.bram) == \
            (resources.lut, resources.ff, resources.dsp, resources.bram)
        assert store_counters()["hits"] > hits_before

    def test_simulation_identical_from_warm_store(self, tmp_path):
        root = str(tmp_path / "store")
        cold = _flow(root, engine="compiled").simulate(seed=3).value
        warm = _flow(root, engine="compiled").simulate(seed=3).value
        assert warm.run.cycles == cold.run.cycles
        for name in ("y",):
            assert np.array_equal(warm.memory_array(name),
                                  cold.memory_array(name))

    def test_blank_store_dir_disables_persistence(self, tmp_path):
        flow = _flow("")
        flow.verilog()
        assert flow.config.resolve_store() is None

    @pytest.mark.parametrize("kind", ["ir", "verilog", "resources", "simsrc"])
    def test_corrupt_ir_blob_rebuilds_identically(self, tmp_path, kind):
        root = str(tmp_path / "store")
        baseline = _artifacts(_flow(root))

        store = ArtifactStore(root)
        blob = next(info for info in store.iter_blobs() if info.kind == kind)
        with open(blob.path, "r+b") as handle:
            data = bytearray(handle.read())
            data[len(data) // 2] ^= 0xFF
            handle.seek(0)
            handle.write(data)

        quarantined_before = store_counters()["quarantined"]
        assert _artifacts(_flow(root)) == baseline
        assert store_counters()["quarantined"] == quarantined_before + 1
        assert store.verify().ok            # self-healed on the rebuild

    @pytest.mark.parametrize("kind, payload", [("ir", "this is not IR"),
                                               ("resources", "{}")],
                             ids=["ir", "resources"])
    def test_undecodable_blob_rebuilds_identically(self, tmp_path, kind,
                                                   payload):
        root = str(tmp_path / "store")
        baseline = _artifacts(_flow(root))

        store = ArtifactStore(root)
        (blob,) = [info for info in store.iter_blobs() if info.kind == kind]
        store.put(kind, blob.key, payload)  # a valid checksum over garbage

        before = store_counters()
        assert _artifacts(_flow(root)) == baseline
        after = store_counters()
        assert after["quarantined"] == before["quarantined"] + 1
        assert after["corrupt"] == before["corrupt"] + 1
        assert store.get_text(kind, blob.key) != payload    # re-published

    def test_store_faults_never_fail_a_build(self, tmp_path):
        root = str(tmp_path / "store")
        baseline = _flow(root).verilog().value.text
        plan = FaultPlan.parse(
            "store.write:io_error*9;store.read:io_error*9;"
            "store.lock:io_error*2")
        with install_plan(plan):
            faulted = _flow(str(tmp_path / "other")).verilog().value.text
        assert faulted == baseline


class TestEngineFallback:
    def _fresh_compile_flow(self, store_root):
        from repro.sim.engine import clear_compile_cache
        clear_compile_cache()
        return _flow(store_root, engine="compiled")

    def test_compile_fault_falls_back_to_interpreter(self, tmp_path):
        baseline = self._fresh_compile_flow("").simulate(seed=0).value
        flow = self._fresh_compile_flow("")
        before = resilience_counters().get("flow.engine_fallback", 0)
        with install_plan(FaultPlan.parse("engine.compile:error")):
            outcome = flow.simulate(seed=0)
        assert outcome.value.engine == "interpreted"
        assert ("requested", "compiled") in outcome.provenance
        assert ("fallback_reason", "compile-fault") in outcome.provenance
        assert resilience_counters()["flow.engine_fallback"] == before + 1
        assert outcome.value.run.cycles == baseline.run.cycles
        assert np.array_equal(outcome.value.memory_array("y"),
                              baseline.memory_array("y"))

    def test_interpreted_engine_never_falls_back(self, monkeypatch):
        # The interpreter IS the fallback; a fault there must propagate.
        import repro.sim.testbench

        def faulted(*args, **kwargs):
            raise InjectedError("boom")

        monkeypatch.setattr(repro.sim.testbench, "run_design_impl", faulted)
        before = resilience_counters().get("flow.engine_fallback", 0)
        with pytest.raises(InjectedError):
            _flow("", engine="interpreted").simulate(seed=0)
        assert resilience_counters().get("flow.engine_fallback", 0) == before
