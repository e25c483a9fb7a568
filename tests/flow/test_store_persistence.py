"""Flow × ArtifactStore: warm-store sessions reproduce artifacts exactly.

A cold process pointed at a warm ``REPRO_STORE_DIR`` must serve the same
bytes the original session produced — and any store damage (corruption,
torn publishes) may cost a rebuild but can never change an artifact or fail
a build.  An injected engine-compile fault rides the same contract: the
simulate fails with a typed error, and the next one over the same store
reproduces the fault-free run.
"""

import marshal
import os
import subprocess
import sys
import types

import numpy as np
import pytest

from repro.flow import Flow, FlowConfig
from repro.ir.module import ModuleOp
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
    clear_compile_cache()               # read simulator code via the store
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

    @pytest.mark.parametrize("kind", ["ir", "verilog", "resources", "simcode"])
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


def _vector_run(store_root):
    """A fresh session's vector run (compile cache cleared first)."""
    from repro.sim.engine import clear_compile_cache
    clear_compile_cache()
    outcome = _flow(store_root).simulate(seed=3, engine="vector")
    assert dict(outcome.provenance)["engine"] == "vector"
    run = outcome.value.run
    return run.cycles, run.memory_array("y").tolist()


def _simcode_keys(store):
    return sorted(info.key for info in store.iter_blobs()
                  if info.kind == "simcode")


def _refuse(*args, **kwargs):
    raise AssertionError("generated simulator code on a warm store")


class TestCodeTier:
    """The ``simcode`` tier: marshal'd simulator code objects."""

    def test_warm_store_generates_nothing(self, tmp_path, monkeypatch):
        import repro.sim.engine.cache as cache
        import repro.sim.engine.vector as vector
        root = str(tmp_path / "store")
        cold = _vector_run(root)
        for owner, name in ((cache, "comb_source"), (cache, "clock_source"),
                            (vector, "vector_run_source")):
            monkeypatch.setattr(owner, name, _refuse)
        assert _vector_run(root) == cold

    @pytest.mark.parametrize("payload", [
        b"\xffnot marshal data",
        marshal.dumps(7),
        # A code object, but of some other program: no instance table.
        marshal.dumps(compile("x = 1", "<s>", "exec")),
    ], ids=["garbage", "int", "foreign-code"])
    def test_undecodable_code_blob_rebuilds_identically(self, tmp_path,
                                                        payload):
        root = str(tmp_path / "store")
        cold = _vector_run(root)
        store = ArtifactStore(root)
        keys = _simcode_keys(store)
        assert len(keys) == 2           # the step functions + the fused run
        for key in keys:
            store.put("simcode", key, payload)  # a valid checksum over junk

        before = store_counters()
        assert _vector_run(root) == cold
        after = store_counters()
        assert after["corrupt"] == before["corrupt"] + len(keys)
        assert after["quarantined"] == before["quarantined"] + len(keys)
        assert all(store.get("simcode", key) != payload     # re-published
                   for key in keys)
        assert _vector_run(root) == cold

    @pytest.mark.parametrize("malform", [
        lambda code, image: (code, {}),
        lambda code, image: (code, {**image, "_MARKS": image["_MARKS"][:-1]}),
        lambda code, image: compile("x = 1", "<s>", "exec"),
        lambda code, image: (code, {name: value for name, value
                                    in image.items() if name != "done"}),
        lambda code, image: (code, {**image, "done": str(image["done"])}),
    ], ids=["empty-image", "truncated-table", "foreign-code", "missing-done",
            "done-not-int"])
    def test_malformed_image_is_a_corrupt_blob(self, tmp_path, malform):
        root = str(tmp_path / "store")
        cold = _vector_run(root)
        store = ArtifactStore(root)
        (key,) = [key for key in _simcode_keys(store) if "-run-vector-" in key]
        code, image = marshal.loads(store.get("simcode", key))
        payload = marshal.dumps(malform(code, image))
        store.put("simcode", key, payload)  # a valid checksum over junk

        before = store_counters()
        assert _vector_run(root) == cold
        after = store_counters()
        assert after["corrupt"] == before["corrupt"] + 1
        assert after["quarantined"] == before["quarantined"] + 1
        assert store.get("simcode", key) != payload         # re-published
        assert _vector_run(root) == cold

    def test_malformed_image_on_a_miss_is_a_finding(self, tmp_path,
                                                    monkeypatch):
        import repro.sim.engine.vector as vector
        from repro.sim.engine import clear_compile_cache
        monkeypatch.setattr(vector, "_image_of", lambda lowered: {})
        clear_compile_cache()
        with pytest.raises(ValueError, match="simulator image"):
            _flow(str(tmp_path / "store")).simulate(seed=3, engine="vector")

    def test_other_bytecode_version_is_a_plain_miss(self, tmp_path,
                                                    monkeypatch):
        import repro.sim.engine.cache as cache
        root = str(tmp_path / "store")
        store = ArtifactStore(root)
        monkeypatch.setattr(cache, "_BYTECODE", "0bad0bad")
        cold = _vector_run(root)
        first = _simcode_keys(store)
        assert first and all(key.endswith("-0bad0bad") for key in first)

        monkeypatch.setattr(cache, "_BYTECODE", "0bad0bae")
        monkeypatch.setattr(cache, "marshal", types.SimpleNamespace(
            dumps=marshal.dumps, loads=_refuse))
        before = store_counters()
        assert _vector_run(root) == cold
        assert store_counters()["corrupt"] == before["corrupt"]
        assert len(_simcode_keys(store)) == 2 * len(first)

    def test_vector_skips_the_clock_program(self, tmp_path, monkeypatch):
        import repro.sim.engine.cache as cache
        from repro.sim.engine import clear_compile_cache
        root = str(tmp_path / "store")
        store = ArtifactStore(root)
        clear_compile_cache()
        flow = _flow(root)
        with monkeypatch.context() as patch:
            patch.setattr(cache, "clock_source", _refuse)
            vector = flow.simulate(seed=3, engine="vector").value
        assert vector.engine == "vector"
        assert not any("clock-scalar" in key for key in _simcode_keys(store))

        compiled = flow.simulate(seed=3, engine="compiled").value
        assert any("clock-scalar" in key for key in _simcode_keys(store))
        differential = flow.simulate(seed=3, engine="differential").value
        for outcome in (compiled, differential):
            assert outcome.run.cycles == vector.run.cycles
            assert np.array_equal(outcome.memory_array("y"),
                                  vector.memory_array("y"))


def _refuse_lowering(*args, **kwargs):
    raise AssertionError("lowered the design on a warm store")


def _session(flow):
    """Verilog, resources and a vector validation of one session."""
    text = flow.verilog().value.text
    report = flow.resources().value
    outcome = flow.validate(seed=3, engine="vector")
    validation = outcome.value
    return (text, (report.lut, report.ff, report.dsp, report.bram),
            dict(outcome.provenance)["engine"], validation.ok,
            validation.cycles, validation.run.memory_array("y").tolist())


class TestWarmStoreNeverLowers:
    """A warm store serves Verilog, resources and a vector run without a
    Design: the fused-run blob carries its simulator image."""

    def test_warm_session_never_lowers(self, tmp_path, monkeypatch):
        import repro.sim.engine.cache as cache
        import repro.verilog.codegen as codegen
        from repro.sim.engine import clear_compile_cache
        from repro.verilog.emitter import emit_design
        root = str(tmp_path / "store")
        clear_compile_cache()
        cold = _session(_flow(root))

        clear_compile_cache()
        flow = _flow(root)
        with monkeypatch.context() as patch:
            for owner, name in ((codegen, "generate_verilog_impl"),
                                (cache, "base_artifacts"),
                                (cache, "lower_design")):
                patch.setattr(owner, name, _refuse_lowering)
            assert _session(flow) == cold
        assert cold[2] == "vector" and cold[3]
        # Unpatched, the design lowers on demand, as a no-store run does.
        assert emit_design(flow.design) == _flow("").verilog().value.text


class TestWarmStoreNeverParses:
    """A warm store serves every stage without parsing the stored IR or
    analyzing its timing: ``optimized`` decodes on first read, and the
    static done cycle comes from the fused run's simulator image."""

    def test_warm_session_never_parses(self, tmp_path, monkeypatch):
        import repro.graph.timing as timing
        import repro.ir.parser as parser
        from repro.sim.engine import clear_compile_cache
        root = str(tmp_path / "store")
        clear_compile_cache()
        cold = _session(_flow(root))

        clear_compile_cache()
        flow = _flow(root)
        with monkeypatch.context() as patch:
            patch.setattr(parser, "parse_module", _refuse_parsing)
            patch.setattr(timing, "analyze_function", _refuse_parsing)
            assert _session(flow) == cold
            flow.report()
            repr(flow.optimized())
        assert cold[2] == "vector" and cold[3]
        # Unpatched, the first read of the module parses it.
        assert isinstance(flow.optimized().value, ModuleOp)
        assert "stored, not decoded" not in flow.report()

    def test_a_fresh_process_reads_typed_ops(self, tmp_path):
        """The lazy packages keep the HIR dialect registered: a new process
        parses the stored module into HIR op classes, not generic ops."""
        root = str(tmp_path / "store")
        _flow(root).verilog()
        names = _in_fresh_process(
            "from repro.flow import Flow, FlowConfig\n"
            "from repro.kernels import build_kernel\n"
            f"config = FlowConfig(verify_each=False, store_dir={root!r})\n"
            "flow = Flow(build_kernel('matvec', size=4), config=config)\n"
            "assert flow.optimized().value_type() == 'stored, not decoded'\n"
            "module = flow.optimized().value\n"
            "print(sorted({type(op).__name__ for op in module.walk()}))")
        assert "ForOp" in names and "FuncOp" in names
        assert "'Operation'" not in names

    def test_a_warm_validate_loads_only_what_runs(self, tmp_path):
        """A cold process on a warm store imports no pass, no HLS compiler,
        no graph or timing analysis, no IR parser, no Verilog code
        generator, no exporter or profiler, and no engine but ``vector``."""
        root = str(tmp_path / "store")
        config = FlowConfig(store_dir=root)
        assert Flow.from_kernel("gemm", size=4, config=config).validate(0) \
            .value.ok
        loaded = _in_fresh_process(
            "import sys\n"
            "from repro.flow import Flow, FlowConfig\n"
            f"config = FlowConfig(store_dir={root!r})\n"
            "flow = Flow.from_kernel('gemm', size=4, config=config)\n"
            "assert flow.validate(0).value.ok\n"
            "print('\\n'.join(sys.modules))").split()
        for name in ("repro.passes", "repro.hls", "repro.graph",
                     "repro.ir.parser", "repro.verilog.codegen",
                     "repro.obs.export", "repro.obs.simprofile",
                     "repro.sim.engine.compiled",
                     "repro.sim.engine.differential",
                     "repro.sim.engine.batch", "repro.sim.verilog_sim"):
            assert name not in loaded
        assert "repro.sim.engine.vector" in loaded


def _refuse_parsing(*args, **kwargs):
    raise AssertionError("parsed or analyzed stored IR on a warm store")


def _in_fresh_process(code):
    """Run ``code`` in a new interpreter on this checkout; its stdout."""
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        os.path.join(os.path.dirname(__file__), "..", "..", "src"),
        env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


class TestLazyLowering:
    """The ``verilog`` stage lowers inside its build unless the store
    served the text, so ``timings()["verilog"]`` (Table 6, ``report
    --timing``) still covers lowering."""

    @pytest.fixture
    def lowerings(self, monkeypatch):
        import repro.verilog.codegen as codegen
        calls = []
        lower = codegen.generate_verilog_impl

        def spy(*args, **kwargs):
            calls.append(1)
            return lower(*args, **kwargs)

        monkeypatch.setattr(codegen, "generate_verilog_impl", spy)
        return calls

    @pytest.mark.parametrize("store", ["none", "cold"])
    def test_the_stage_lowers_without_a_warm_store(self, tmp_path, lowerings,
                                                   store):
        flow = _flow("" if store == "none" else str(tmp_path / "store"))
        flow.verilog()
        assert len(lowerings) == 1
        flow.design
        flow.verilog().value.statistics
        assert len(lowerings) == 1

    def test_a_warm_store_defers_lowering_to_design(self, tmp_path,
                                                    lowerings):
        root = str(tmp_path / "store")
        text = _flow(root).verilog().value.text
        lowerings.clear()
        artifact = _flow(root).verilog().value
        repr(artifact)
        assert artifact.text == text
        assert lowerings == []
        artifact.design
        assert lowerings == [1]


class TestToolchainDigest:
    """Every key names the ``repro`` sources that made the bytes."""

    def test_other_toolchain_misses_every_tier(self, tmp_path, monkeypatch):
        import repro.store.store as store_module
        from repro.serve import ServeRequest, ServeServer

        def session(root):
            config = FlowConfig.from_env().with_(store_dir=root)
            with ServeServer(config=config, workers=1) as server:
                served = server.handle_request(ServeRequest.make(
                    "build", "matvec", {"size": 4}).to_payload())
            return (_artifacts(_flow(root)), _vector_run(root),
                    served.payload, served.provenance)

        def kinds(store):
            counts = {}
            for info in store.iter_blobs():
                counts[info.kind] = counts.get(info.kind, 0) + 1
            return counts

        root = str(tmp_path / "store")
        store = ArtifactStore(root)
        expected = session("")[:3]
        assert session(root) == expected + ("built",)
        assert session(root) == expected + ("store-hit",)
        filled = kinds(store)
        assert set(filled) == {"ir", "verilog", "resources", "simcode",
                               "serve"}

        # A hit refreshes its blob's mtime (gc recency): age every blob, so
        # one the other toolchain served would show.
        old = [info.path for info in store.iter_blobs()]
        for path in old:
            os.utime(path, (1, 1))
        monkeypatch.setattr(store_module, "toolchain_digest",
                            lambda: "0" * 64)
        corrupt = store_counters()["corrupt"]
        assert session(root) == expected + ("built",)
        assert store_counters()["corrupt"] == corrupt
        assert all(os.stat(path).st_mtime == 1 for path in old)
        assert kinds(store) == {kind: 2 * count
                                for kind, count in filled.items()}


class TestEngineFallback:
    def _fresh_compile_flow(self, store_root):
        from repro.sim.engine import clear_compile_cache
        clear_compile_cache()
        return _flow(store_root, engine="compiled")

    def test_compile_fault_is_an_error(self, tmp_path):
        """The faulted simulate raises and substitutes nothing; the same
        session, and a cold one over the same store, then reproduce the
        fault-free run."""
        root = str(tmp_path / "store")
        baseline = self._fresh_compile_flow("").simulate(seed=0).value
        flow = self._fresh_compile_flow(root)
        before = resilience_counters().get("flow.engine_fallback", 0)
        with install_plan(FaultPlan.parse("engine.compile:error")):
            with pytest.raises(InjectedError):
                flow.simulate(seed=0)
        assert resilience_counters().get("flow.engine_fallback", 0) == before
        same = flow.simulate(seed=0)
        cold = self._fresh_compile_flow(root).simulate(seed=0)
        for outcome in (same, cold):
            assert outcome.value.engine == "compiled"
            assert outcome.value.run.cycles == baseline.run.cycles
            assert np.array_equal(outcome.value.memory_array("y"),
                                  baseline.memory_array("y"))

    @pytest.mark.parametrize("engine", ["interpreted", "compiled",
                                        "differential", "vector"])
    def test_engine_never_falls_back(self, monkeypatch, engine):
        # An injected fault in the run propagates on every engine.
        import repro.sim.testbench

        def faulted(*args, **kwargs):
            raise InjectedError("boom")

        monkeypatch.setattr(repro.sim.testbench, "run_design_impl", faulted)
        before = resilience_counters().get("flow.engine_fallback", 0)
        with pytest.raises(InjectedError):
            _flow("", engine=engine).simulate(seed=0)
        assert resilience_counters().get("flow.engine_fallback", 0) == before
