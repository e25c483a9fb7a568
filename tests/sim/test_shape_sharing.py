"""Shape-shared simulator code: each distinct step body is compiled once.

The scalar step functions (:func:`repro.sim.engine.codegen.comb_source`) and
the fused run's clocked processes
(:func:`repro.sim.engine.vector.vector_run_source`) are generated as shapes
plus an instance table.  These tests pin the sharing on the paper-size GEMM,
the loader's refusal of modules that are not such a program, and bit-exact
runs on hand-built designs at the edges of the instance tables: no
continuous assignment, exactly one clocked process, no clocked process.
"""

import numpy as np
import pytest

from repro.flow import Flow, FlowConfig
from repro.hir.types import MemrefType
from repro.ir.types import I32
from repro.kernels import build_kernel
from repro.sim.engine.codegen import instantiate, load_module
from repro.sim.testbench import run_design_impl
from repro.verilog.ast import (
    INPUT,
    OUTPUT,
    BinOp,
    Const,
    Design,
    If,
    MemIndex,
    MemWrite,
    Module,
    NonBlockingAssign,
    Ref,
)


def test_gemm16_step_functions_share_their_code(monkeypatch):
    import repro.sim.engine.cache as cache
    import repro.sim.engine.vector as vector

    texts = []
    for owner, name in ((cache, "comb_source"),
                        (vector, "vector_run_source")):
        generate = getattr(owner, name)

        def recorded(*args, _generate=generate):
            texts.append(_generate(*args))
            return texts[-1]

        monkeypatch.setattr(owner, name, recorded)
    cache.clear_compile_cache()
    flow = Flow(build_kernel("gemm", size=16),
                config=FlowConfig(engine="vector", store_dir=""))
    outcome = flow.validate(seed=0)
    assert outcome.value.ok and outcome.value.engine == "vector"

    # The in-process hit of the fused run the validation loaded.
    fused = vector._cached_run(
        flow.verilog().value,
        {name: (memref_type, None)
         for name, memref_type in flow.interfaces.items()})
    artifacts = cache.base_artifacts(flow.design, None)
    steps = fused.steps
    processes = fused.run.__globals__["_PROCS"]
    assert len(steps) == len(artifacts.lowered.ordered) > 3000
    assert len(processes) == len(artifacts.flat.clocked) > 2000
    assert len({step.__code__ for step in steps}) <= 20
    assert len({process.__code__ for process in processes}) <= 50
    assert len(texts) == 2
    assert sum(len(text.encode()) for text in texts) <= 200_000


class TestInstantiate:
    SOURCE = ("def _sa0(v, m, _0):\n    return v[_0]\n"
              "_STEPS = '0,1;0,0'\n")

    def test_rows_become_functions_of_one_shape(self):
        _, namespace = load_module(self.SOURCE)
        first, second = instantiate(namespace, "_STEPS", "_sa", 2, 2)
        assert first.__code__ is second.__code__
        assert (first([5, 7], []), second([5, 7], [])) == (7, 5)

    @pytest.mark.parametrize("source, count", [
        ("x = 1\n", 2),
        (SOURCE, 3),
        (SOURCE.replace("'0,1;0,0'", "'0,1;1,0'"), 2),
        (SOURCE.replace("'0,1;0,0'", "'0,1;0'"), 2),
        (SOURCE.replace("'0,1;0,0'", "'0,1;0,x'"), 2),
    ], ids=["no-table", "other-count", "no-such-shape", "missing-index",
            "not-an-index"])
    def test_a_module_that_is_not_the_program_is_a_value_error(
            self, source, count):
        _, namespace = load_module(source)
        with pytest.raises(ValueError):
            instantiate(namespace, "_STEPS", "_sa", 2, count)


# --------------------------------------------------------------------------- #
# Hand-built designs at the edges of the instance tables
# --------------------------------------------------------------------------- #

OUT = MemrefType((16,), I32, port="w")
A = MemrefType((4,), I32, port="r")


def _module(name):
    module = Module(name)
    module.add_port("clk", INPUT, 1)
    module.add_port("start", INPUT, 1)
    module.add_port("done", OUTPUT, 1)
    module.add_port("out_addr", OUTPUT, 8)
    module.add_port("out_wr_en", OUTPUT, 1)
    module.add_port("out_wr_data", OUTPUT, 32)
    return module


def _design(module):
    design = Design(top=module.name)
    design.add(module)
    return design


def no_assign_design():
    """Only clocked processes; one of them keeps an on-chip memory."""
    module = _module("clocked_only")
    module.add_reg("count", 8)
    module.add_reg("done", 1)
    module.add_reg("out_addr", 8)
    module.add_reg("out_wr_en", 1)
    module.add_reg("out_wr_data", 32)
    module.add_memory("buf", 32, 16)
    count = Ref("count")
    module.add_always([
        NonBlockingAssign("count", BinOp("+", count, Const(1, 8))),
        NonBlockingAssign("done", BinOp(">=", count, Const(12, 8))),
        MemWrite("buf", count, BinOp("*", count, Const(3, 32))),
        If(BinOp(">=", count, Const(1, 8)),
           [NonBlockingAssign("out_addr", BinOp("-", count, Const(1, 8))),
            NonBlockingAssign("out_wr_en", Const(1, 1)),
            NonBlockingAssign("out_wr_data", BinOp(
                "+", MemIndex("buf", BinOp("-", count, Const(1, 8))),
                Const(5, 32)))],
           [NonBlockingAssign("out_wr_en", Const(0, 1))]),
    ])
    return _design(module)


def one_process_design():
    """Continuous assignments around exactly one clocked statement."""
    module = _module("one_process")
    module.add_reg("count", 8)
    count = Ref("count")
    module.add_assign("done", BinOp(">=", count, Const(10, 8)))
    module.add_assign("out_addr", count)
    module.add_assign("out_wr_en", Const(1, 1))
    module.add_assign("out_wr_data", BinOp("+", count, Const(100, 32)))
    module.add_always([
        NonBlockingAssign("count", BinOp("+", count, Const(1, 8)))])
    return _design(module)


def no_process_design():
    """Purely combinational: copies ``a[2]`` (plus ``start``) to ``out[1]``."""
    module = _module("comb_only")
    module.add_port("a_addr", OUTPUT, 2)
    module.add_port("a_rd_en", OUTPUT, 1)
    module.add_port("a_rd_data", INPUT, 32)
    module.add_assign("a_addr", Const(2, 2))
    module.add_assign("a_rd_en", Const(1, 1))
    module.add_assign("done", Const(1, 1))
    module.add_assign("out_addr", Const(1, 8))
    module.add_assign("out_wr_en", Const(1, 1))
    module.add_assign("out_wr_data",
                      BinOp("+", Ref("a_rd_data"), Ref("start")))
    return _design(module)


def _run(design, engine):
    memories = {"out": (OUT, None)}
    if design.top_module.port("a_rd_data") is not None:
        memories["a"] = (A, np.array([11, 22, 33, 44], dtype=np.int64))
    return run_design_impl(design, memories=memories, max_cycles=200,
                           drain_cycles=8, engine=engine)


@pytest.mark.parametrize("make, assigns, processes", [
    (no_assign_design, 0, 4),
    (one_process_design, 4, 1),
    (no_process_design, 6, 0),
], ids=["no-assign", "one-process", "no-process"])
def test_edge_designs_match_the_interpreter(make, assigns, processes):
    from repro.sim.engine.cache import base_artifacts
    artifacts = base_artifacts(make(), None)
    assert len(artifacts.lowered.ordered) == assigns
    assert len(artifacts.flat.clocked) == processes

    reference = _run(make(), "interpreted")
    assert reference.done
    on_chip = reference.simulator.find_memories("")
    for engine in ("vector", "compiled"):
        run = _run(make(), engine)
        assert run.engine == engine
        assert run.cycles == reference.cycles
        for name, memory in reference.memories.items():
            assert run.memories[name].data == memory.data, (engine, name)
        for name in on_chip:
            assert run.simulator.memory(name) == \
                reference.simulator.memory(name), (engine, name)
