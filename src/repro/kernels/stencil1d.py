"""One-dimensional weighted stencil (Listing 2 of the paper; Tables 5 and 6).

A sliding two-element window is kept in registers (a fully distributed
memref); the loop is pipelined at II=1, so one input element is consumed and
one weighted output is produced every cycle.  The two weights are scalar
arguments held stable by the caller, and the two variable multiplications are
what give the kernel its six DSP slices in the paper's Table 5.
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
    design = DesignBuilder("stencil1d_design")
    in_type = MemrefType((size,), I32, port="r")
    out_type = MemrefType((size,), I32, port="w")
    with design.func(
        "stencil_1d",
        [("Ai", in_type), ("Bw", out_type), ("w0", I32), ("w1", I32)],
        stable_args=("w0", "w1"),
    ) as f:
        window_r, window_w = f.alloc((2,), I32, ports=("r", "w"), packing=[],
                                     name="W1")
        # Prologue: fill the window with the first two input elements.
        first = f.mem_read(f.arg("Ai"), [0], time=f.time)
        first_delayed = f.delay(first, 1, time=f.time, offset=1)
        second = f.mem_read(f.arg("Ai"), [1], time=f.time, offset=1)
        f.mem_write(first_delayed, window_w, [0], time=f.time, offset=2)
        f.mem_write(second, window_w, [1], time=f.time, offset=2)

        # Pipelined steady-state loop (II = 1).
        with f.for_loop(1, size, 1, time=f.time, iter_offset=3,
                        iv_name="i") as loop:
            f.yield_(loop.time, offset=1)
            window0 = f.mem_read(window_r, [0], time=loop.time, offset=1)
            window1 = f.mem_read(window_r, [1], time=loop.time, offset=1)
            next_index = f.add(loop.iv, 1)
            incoming = f.mem_read(f.arg("Ai"), [next_index], time=loop.time)
            f.mem_write(window1, window_w, [0], time=loop.time, offset=1)
            f.mem_write(incoming, window_w, [1], time=loop.time, offset=1)
            weighted0 = f.mult(window0, f.arg("w0"))
            weighted1 = f.mult(window1, f.arg("w1"))
            combined = f.add(weighted0, weighted1)
            result = f.delay(combined, 1, time=loop.time, offset=1)
            index_delayed = f.delay(loop.iv, 2, time=loop.time)
            f.mem_write(result, f.arg("Bw"), [index_delayed], time=loop.time,
                        offset=2)
        f.return_()
    return design


def build_hls(size: int = 64):
    from repro.hls.swir import Param, SwBuilder, Var

    sw = SwBuilder("stencil1d_hls")
    function = sw.function(
        "stencil_1d",
        [
            Param("Ai", shape=(size,), direction="in"),
            Param("Bw", shape=(size,), direction="out"),
            Param("w0", kind="scalar"),
            Param("w1", kind="scalar"),
        ],
    )
    loop = sw.for_loop("i", 1, size, pipeline=True, ii=1)
    loop.body = [
        sw.load("prev", "Ai", sw.sub("i", 1)),
        sw.load("curr", "Ai", Var("i")),
        sw.assign("acc", sw.add(sw.mul("prev", "w0"), sw.mul("curr", "w1"))),
        sw.store("Bw", Var("acc"), Var("i")),
    ]
    function.body = [loop]
    return sw.program


def build(size: int = 64) -> KernelArtifacts:
    design = build_hir(size)
    in_type = MemrefType((size,), I32, port="r")
    out_type = MemrefType((size,), I32, port="w")
    weights = {"w0": 3, "w1": 5}

    def make_inputs(seed: int) -> Dict[str, np.ndarray]:
        rng = default_rng(seed)
        return {"Ai": rng.integers(-500, 500, size=(size,)),
                "Bw": np.zeros((size,), dtype=np.int64)}

    def reference(inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        data = np.asarray(inputs["Ai"], dtype=np.int64)
        out = np.zeros(size, dtype=np.int64)
        for i in range(1, size):
            out[i] = weights["w0"] * data[i - 1] + weights["w1"] * data[i]
        return {"Bw": out}

    return KernelArtifacts(
        name="stencil_1d",
        module=design.module,
        top="stencil_1d",
        interfaces={"Ai": in_type, "Bw": out_type},
        scalar_args=weights,
        hls_builder=partial(build_hls, size),
        hls_function="stencil_1d",
        make_inputs=make_inputs,
        reference=reference,
        output_warmup={"Bw": 1},
        notes=(f"{size}-element weighted 2-tap stencil with a register window, "
               "pipelined at II=1; out[0] is not produced (window warm-up)"),
    )
