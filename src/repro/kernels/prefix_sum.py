"""Inclusive prefix sum / scan (a new workload beyond the paper's six).

``out[i] = in[0] + ... + in[i]`` with the running total held in a single
register (a fully distributed one-element memref, read combinationally like
the stencil kernel's window).  The loop is pipelined at II = 1: one element
enters and one partial sum leaves every cycle.  An ``i == 0`` select seeds
the register, so the kernel does not depend on power-on register state —
important when it runs mid-stream inside a composed design.
"""

from __future__ import annotations

from functools import partial
from typing import Dict

import numpy as np

from repro.ir.types import I32
from repro.hir.build import DesignBuilder
from repro.hir.types import MemrefType
from repro.kernels.base import KernelArtifacts, default_rng


def build_hir(size: int = 64) -> DesignBuilder:
    design = DesignBuilder("prefix_sum_design")
    in_type = MemrefType((size,), I32, port="r")
    out_type = MemrefType((size,), I32, port="w")
    with design.func("prefix_sum", [("xs", in_type), ("sums", out_type)]) as f:
        total_r, total_w = f.alloc((1,), I32, ports=("r", "w"), packing=[],
                                   name="total")
        with f.for_loop(0, size, 1, time=f.time, iter_offset=1,
                        iv_name="i") as loop:
            value = f.mem_read(f.arg("xs"), [loop.iv], time=loop.time)
            running = f.mem_read(total_r, [0], time=loop.time, offset=1)
            accumulated = f.add(value, running)
            index_delayed = f.delay(loop.iv, 1, time=loop.time)
            first = f.cmp("eq", index_delayed, 0)
            updated = f.select(first, value, accumulated)
            f.mem_write(updated, total_w, [0], time=loop.time, offset=1)
            f.mem_write(updated, f.arg("sums"), [index_delayed],
                        time=loop.time, offset=1)
            f.yield_(loop.time, offset=1)
        f.return_()
    return design


def build_hls(size: int = 64):
    from repro.hls.swir import Param, SwBuilder, Var

    sw = SwBuilder("prefix_sum_hls")
    function = sw.function(
        "prefix_sum",
        [
            Param("xs", shape=(size,), direction="in"),
            Param("sums", shape=(size,), direction="out"),
        ],
    )
    loop = sw.for_loop("i", 0, size, pipeline=True)
    loop.body = [
        sw.load("v", "xs", Var("i")),
        sw.assign("total", sw.add("total", "v")),
        sw.store("sums", Var("total"), Var("i")),
    ]
    function.body = [loop]
    return sw.program


def build(size: int = 64) -> KernelArtifacts:
    design = build_hir(size)
    in_type = MemrefType((size,), I32, port="r")
    out_type = MemrefType((size,), I32, port="w")

    def make_inputs(seed: int) -> Dict[str, np.ndarray]:
        rng = default_rng(seed)
        return {"xs": rng.integers(-1000, 1000, size=(size,)),
                "sums": np.zeros((size,), dtype=np.int64)}

    def reference(inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        return {"sums": np.cumsum(np.asarray(inputs["xs"], dtype=np.int64))}

    return KernelArtifacts(
        name="prefix_sum",
        module=design.module,
        top="prefix_sum",
        interfaces={"xs": in_type, "sums": out_type},
        hls_builder=partial(build_hls, size),
        hls_function="prefix_sum",
        make_inputs=make_inputs,
        reference=reference,
        notes=(f"{size}-element inclusive scan: register-held running total, "
               "pipelined at II=1, seeded by an i==0 select"),
    )
