"""Matrix-vector multiplication (a new workload beyond the paper's six).

Row-major ``y = A @ x`` with a block-RAM accumulator: the inner dot-product
loop reads one matrix element and one vector element per iteration and
accumulates into ``acc[i]`` with the histogram kernel's read-modify-write
idiom (II = 2 — the accumulator write of iteration ``k`` must commit before
iteration ``k+1`` reads it back).  A ``k == 0`` select seeds the
accumulator, so no clear phase is needed; a pipelined flush loop streams the
finished accumulator out through the output interface at II = 1.
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
    design = DesignBuilder("matvec_design")
    a_type = MemrefType((size, size), I32, port="r")
    x_type = MemrefType((size,), I32, port="r")
    y_type = MemrefType((size,), I32, port="w")
    with design.func("matvec", [("A", a_type), ("x", x_type),
                                ("y", y_type)]) as f:
        acc_r, acc_w = f.alloc((size,), I32, ports=("r", "w"),
                               mem_kind="bram", name="acc")
        # Dot products: for each row i, accumulate A[i,k] * x[k] (II = 2).
        with f.for_loop(0, size, 1, time=f.time, iter_offset=1,
                        iv_name="i") as row:
            with f.for_loop(0, size, 1, time=row.time, iter_offset=1,
                            iv_name="k") as mac:
                a_value = f.mem_read(f.arg("A"), [row.iv, mac.iv],
                                     time=mac.time)
                x_value = f.mem_read(f.arg("x"), [mac.iv], time=mac.time)
                running = f.mem_read(acc_r, [row.iv], time=mac.time)
                product = f.mult(a_value, x_value)
                accumulated = f.add(product, running)
                k_delayed = f.delay(mac.iv, 1, time=mac.time)
                first = f.cmp("eq", k_delayed, 0)
                updated = f.select(first, product, accumulated)
                f.mem_write(updated, acc_w, [row.iv], time=mac.time, offset=1)
                f.yield_(mac.time, offset=2)
            f.yield_(mac.done, offset=1)
        # Flush: stream the accumulator out (II = 1).
        with f.for_loop(0, size, 1, time=row.done, iter_offset=1,
                        iv_name="o") as flush:
            value = f.mem_read(acc_r, [flush.iv], time=flush.time)
            index_delayed = f.delay(flush.iv, 1, time=flush.time)
            f.mem_write(value, f.arg("y"), [index_delayed], time=flush.time,
                        offset=1)
            f.yield_(flush.time, offset=1)
        f.return_()
    return design


def build_hls(size: int = 16):
    from repro.hls.swir import LocalArray, Param, SwBuilder, Var

    sw = SwBuilder("matvec_hls")
    function = sw.function(
        "matvec",
        [
            Param("A", shape=(size, size), direction="in"),
            Param("x", shape=(size,), direction="in"),
            Param("y", shape=(size,), direction="out"),
        ],
        locals_=[LocalArray("acc_buf", (size,))],
    )
    inner = sw.for_loop("k", 0, size, pipeline=True)
    inner.body = [
        sw.load("a", "A", Var("i"), Var("k")),
        sw.load("xv", "x", Var("k")),
        sw.load("run", "acc_buf", Var("i")),
        sw.assign("upd", sw.add(sw.mul("a", "xv"), "run")),
        sw.store("acc_buf", Var("upd"), Var("i")),
    ]
    outer = sw.for_loop("i", 0, size)
    outer.body = [sw.store("acc_buf", 0, Var("i")), inner]
    flush = sw.for_loop("o", 0, size, pipeline=True, ii=1)
    flush.body = [
        sw.load("val", "acc_buf", Var("o")),
        sw.store("y", Var("val"), Var("o")),
    ]
    function.body = [outer, flush]
    return sw.program


def build(size: int = 16) -> KernelArtifacts:
    design = build_hir(size)
    a_type = MemrefType((size, size), I32, port="r")
    x_type = MemrefType((size,), I32, port="r")
    y_type = MemrefType((size,), I32, port="w")

    def make_inputs(seed: int) -> Dict[str, np.ndarray]:
        rng = default_rng(seed)
        return {
            "A": rng.integers(-50, 50, size=(size, size)),
            "x": rng.integers(-50, 50, size=(size,)),
            "y": np.zeros((size,), dtype=np.int64),
        }

    def reference(inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        a = np.asarray(inputs["A"], dtype=np.int64)
        x = np.asarray(inputs["x"], dtype=np.int64)
        return {"y": a @ x}

    return KernelArtifacts(
        name="matvec",
        module=design.module,
        top="matvec",
        interfaces={"A": a_type, "x": x_type, "y": y_type},
        hls_builder=partial(build_hls, size),
        hls_function="matvec",
        make_inputs=make_inputs,
        reference=reference,
        notes=(f"{size}x{size} matrix-vector product; block-RAM accumulator "
               "updated read-modify-write at II=2, flush loop at II=1"),
    )
