"""The numbers published in the paper's evaluation (Section 8).

Stored verbatim so every regenerated table can print the measured value next
to the published one.
"""

from __future__ import annotations

from typing import Dict

#: Table 4 — resource usage of the matrix transpose (LUT, FF).
PAPER_TABLE4: Dict[str, Dict[str, int]] = {
    "Vivado HLS": {"LUT": 41, "FF": 92},
    "Vivado HLS (manual opt)": {"LUT": 7, "FF": 51},
    "HIR (no opt)": {"LUT": 32, "FF": 72},
    "HIR (auto opt)": {"LUT": 8, "FF": 18},
}

#: Table 5 — FPGA resource usage, baseline (Vivado HLS / hand Verilog) vs HIR.
PAPER_TABLE5: Dict[str, Dict[str, Dict[str, int]]] = {
    "transpose": {
        "baseline": {"LUT": 7, "FF": 51, "DSP": 0, "BRAM": 0},
        "hir": {"LUT": 8, "FF": 18, "DSP": 0, "BRAM": 0},
    },
    "stencil_1d": {
        "baseline": {"LUT": 152, "FF": 237, "DSP": 6, "BRAM": 0},
        "hir": {"LUT": 114, "FF": 147, "DSP": 6, "BRAM": 0},
    },
    "histogram": {
        "baseline": {"LUT": 130, "FF": 107, "DSP": 0, "BRAM": 1},
        "hir": {"LUT": 101, "FF": 146, "DSP": 0, "BRAM": 1},
    },
    "gemm": {
        "baseline": {"LUT": 14495, "FF": 24538, "DSP": 768, "BRAM": 0},
        "hir": {"LUT": 12645, "FF": 29062, "DSP": 768, "BRAM": 0},
    },
    "convolution": {
        "baseline": {"LUT": 1517, "FF": 2490, "DSP": 0, "BRAM": 0},
        "hir": {"LUT": 289, "FF": 661, "DSP": 0, "BRAM": 0},
    },
    "fifo": {
        "baseline": {"LUT": 34, "FF": 36, "DSP": 0, "BRAM": 1},
        "hir": {"LUT": 43, "FF": 140, "DSP": 0, "BRAM": 1},
    },
}

#: Table 6 — compile times in seconds and the resulting speedup.
PAPER_TABLE6: Dict[str, Dict[str, float]] = {
    "transpose": {"hir_seconds": 0.006, "hls_seconds": 13.0, "speedup": 2166.0},
    "stencil_1d": {"hir_seconds": 0.007, "hls_seconds": 8.0, "speedup": 1142.0},
    "histogram": {"hir_seconds": 0.007, "hls_seconds": 13.0, "speedup": 1857.0},
    "gemm": {"hir_seconds": 0.099, "hls_seconds": 33.0, "speedup": 333.0},
    "convolution": {"hir_seconds": 0.013, "hls_seconds": 14.0, "speedup": 1076.0},
}

#: The headline claim: average compile-time speedup over Vivado HLS.
PAPER_AVERAGE_SPEEDUP = 1112.0

#: Figure 3 — expected bank layout of !hir.memref<3*2*i32, packing=[1]>.
PAPER_FIGURE3_BANKS = {
    0: [(0, 0), (1, 0), (2, 0)],
    1: [(0, 1), (1, 1), (2, 1)],
}
