"""Two-dimensional convolution with constant weights (Tables 5 and 6).

A 3x3 constant-coefficient filter slides over the input image; every output
pixel is computed by nine scheduled reads through the single input port
(initiation interval 9), constant multiplications (shift/add fabric, no DSPs
— matching the zero DSP count of the paper's convolution row) and a balanced
adder/delay tree that re-aligns the partial products before the accumulated
result is written out.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Tuple

import numpy as np

from repro.ir.types import I32
from repro.hir.build import DesignBuilder
from repro.hir.types import MemrefType
from repro.kernels.base import KernelArtifacts, default_rng

#: The constant 3x3 filter (an integer Gaussian blur).
WEIGHTS: Tuple[Tuple[int, ...], ...] = ((1, 2, 1), (2, 4, 2), (1, 2, 1))
_TAPS = [(ki, kj, WEIGHTS[ki][kj]) for ki in range(3) for kj in range(3)]
_WINDOW = len(_TAPS)  # 9 reads -> II = 9


def build_hir(size: int = 16) -> DesignBuilder:
    out_size = size - 2
    design = DesignBuilder("convolution_design")
    in_type = MemrefType((size, size), I32, port="r")
    out_type = MemrefType((out_size, out_size), I32, port="w")
    with design.func("convolution", [("img", in_type), ("out", out_type)]) as f:
        with f.for_loop(0, out_size, 1, time=f.time, iter_offset=1,
                        iv_name="oi") as row_loop:
            with f.for_loop(0, out_size, 1, time=row_loop.time, iter_offset=1,
                            iv_name="oj") as col_loop:
                partials: List = []
                for index, (ki, kj, weight) in enumerate(_TAPS):
                    in_row = f.add(row_loop.iv, ki) if ki else row_loop.iv
                    in_col = f.add(col_loop.iv, kj) if kj else col_loop.iv
                    pixel = f.mem_read(f.arg("img"), [in_row, in_col],
                                       time=col_loop.time, offset=index)
                    weighted = f.mult(pixel, weight)
                    # Re-align every partial product to cycle II (= 9).
                    lag = _WINDOW - (index + 1)
                    aligned = (f.delay(weighted, lag, time=col_loop.time,
                                       offset=index + 1) if lag else weighted)
                    partials.append(aligned)
                total = partials[0]
                for partial in partials[1:]:
                    total = f.add(total, partial)
                col_delayed = f.delay(col_loop.iv, _WINDOW, time=col_loop.time)
                f.mem_write(total, f.arg("out"), [row_loop.iv, col_delayed],
                            time=col_loop.time, offset=_WINDOW)
                f.yield_(col_loop.time, offset=_WINDOW)
            f.yield_(col_loop.done, offset=1)
        f.return_()
    return design


def build_hls(size: int = 16):
    from repro.hls.swir import Param, SwBuilder, Var

    out_size = size - 2
    sw = SwBuilder("convolution_hls")
    function = sw.function(
        "convolution",
        [
            Param("img", shape=(size, size), direction="in"),
            Param("out", shape=(out_size, out_size), direction="out"),
        ],
    )
    inner = sw.for_loop("oj", 0, out_size, pipeline=True)
    body = []
    acc_expr = None
    for index, (ki, kj, weight) in enumerate(_TAPS):
        name = f"p{index}"
        body.append(sw.load(name, "img", sw.add("oi", ki), sw.add("oj", kj)))
        term = sw.mul(name, weight)
        acc_expr = term if acc_expr is None else sw.add(acc_expr, term)
    body.append(sw.assign("acc", acc_expr))
    body.append(sw.store("out", Var("acc"), Var("oi"), Var("oj")))
    inner.body = body
    outer = sw.for_loop("oi", 0, out_size)
    outer.body = [inner]
    function.body = [outer]
    return sw.program


def build(size: int = 16) -> KernelArtifacts:
    out_size = size - 2
    design = build_hir(size)
    in_type = MemrefType((size, size), I32, port="r")
    out_type = MemrefType((out_size, out_size), I32, port="w")

    def make_inputs(seed: int) -> Dict[str, np.ndarray]:
        rng = default_rng(seed)
        return {"img": rng.integers(0, 256, size=(size, size)),
                "out": np.zeros((out_size, out_size), dtype=np.int64)}

    def reference(inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        image = np.asarray(inputs["img"], dtype=np.int64)
        out = np.zeros((out_size, out_size), dtype=np.int64)
        kernel = np.asarray(WEIGHTS, dtype=np.int64)
        for oi in range(out_size):
            for oj in range(out_size):
                out[oi, oj] = np.sum(image[oi:oi + 3, oj:oj + 3] * kernel)
        return {"out": out}

    return KernelArtifacts(
        name="convolution",
        module=design.module,
        top="convolution",
        interfaces={"img": in_type, "out": out_type},
        hls_builder=partial(build_hls, size),
        hls_function="convolution",
        make_inputs=make_inputs,
        reference=reference,
        notes=(f"3x3 constant-weight convolution over a {size}x{size} image, "
               f"inner loop II={_WINDOW} (single input port)"),
    )
