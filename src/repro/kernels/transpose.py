"""Matrix transpose (Listing 1 of the paper; Tables 4, 5 and 6).

Reads an ``N x N`` matrix through an input memory interface and writes its
transpose through an output interface.  The inner loop is pipelined with an
initiation interval of one: a read is issued every cycle, the data arrives a
cycle later, and the write uses the one-cycle-delayed column index
(``hir.delay``), exactly as in the paper's listing.
"""

from __future__ import annotations

from functools import partial
from typing import Dict

import numpy as np

from repro.ir.types import I32
from repro.hir.build import DesignBuilder
from repro.hir.types import MemrefType
from repro.kernels.base import KernelArtifacts, default_rng


def build_hir(size: int = 16) -> DesignBuilder:
    """The HIR design: two nested loops, inner loop pipelined at II=1."""
    design = DesignBuilder("transpose_design")
    in_type = MemrefType((size, size), I32, port="r")
    out_type = MemrefType((size, size), I32, port="w")
    with design.func("transpose", [("Ai", in_type), ("Co", out_type)]) as f:
        with f.for_loop(0, size, 1, time=f.time, iter_offset=1, iv_name="i") as i_loop:
            with f.for_loop(0, size, 1, time=i_loop.time, iter_offset=1,
                            iv_name="j") as j_loop:
                value = f.mem_read(f.arg("Ai"), [i_loop.iv, j_loop.iv],
                                   time=j_loop.time)
                j_delayed = f.delay(j_loop.iv, 1, time=j_loop.time)
                f.mem_write(value, f.arg("Co"), [j_delayed, i_loop.iv],
                            time=j_loop.time, offset=1)
                f.yield_(j_loop.time, offset=1)
            f.yield_(j_loop.done, offset=1)
        f.return_()
    return design


def build_hls(size: int = 16, manual_precision: bool = False):
    """The matching C-like design for the baseline HLS compiler.

    ``manual_precision=True`` models the "Vivado HLS (manual opt)" row of
    Table 4: the programmer rewrites the loop counters with narrow arbitrary-
    precision integer types because the tool will not narrow them itself.
    """
    from repro.hls.swir import Param, SwBuilder, Var

    counter_width = max(2, (size).bit_length() + 1) if manual_precision else 32
    sw = SwBuilder("transpose_hls")
    function = sw.function(
        "transpose",
        [
            Param("Ai", shape=(size, size), direction="in"),
            Param("Co", shape=(size, size), direction="out"),
        ],
    )
    inner = sw.for_loop("j", 0, size, pipeline=True, ii=1,
                        counter_width=counter_width)
    inner.body = [
        sw.load("v", "Ai", Var("i"), Var("j")),
        sw.store("Co", Var("v"), Var("j"), Var("i")),
    ]
    outer = sw.for_loop("i", 0, size, counter_width=counter_width)
    outer.body = [inner]
    function.body = [outer]
    return sw.program


def build(size: int = 16) -> KernelArtifacts:
    design = build_hir(size)
    in_type = MemrefType((size, size), I32, port="r")
    out_type = MemrefType((size, size), I32, port="w")

    def make_inputs(seed: int) -> Dict[str, np.ndarray]:
        rng = default_rng(seed)
        return {"Ai": rng.integers(-1000, 1000, size=(size, size)),
                "Co": np.zeros((size, size), dtype=np.int64)}

    def reference(inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        return {"Co": np.asarray(inputs["Ai"]).T}

    return KernelArtifacts(
        name="transpose",
        module=design.module,
        top="transpose",
        interfaces={"Ai": in_type, "Co": out_type},
        hls_builder=partial(build_hls, size),
        hls_function="transpose",
        make_inputs=make_inputs,
        reference=reference,
        notes=f"{size}x{size} i32 matrix transpose, inner loop pipelined at II=1",
    )
