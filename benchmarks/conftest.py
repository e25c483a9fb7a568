"""Shared fixtures for the benchmark harness.

Each ``bench_*`` module regenerates one table or figure of the paper.  The
kernel sizes match the paper's configuration (16x16 GEMM, 256-bin histogram,
64-element stencil); the heavyweight baseline compilations are measured with
a single round so the whole harness stays in the minutes range.
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
if _SRC not in sys.path:
    sys.path.insert(0, os.path.abspath(_SRC))

import pytest

#: Measurements accumulated by the bench_* modules during one pytest run,
#: written to $REPRO_BENCH_JSON at session end (one file per run, so CI can
#: upload it as an artifact and the perf trajectory accumulates per commit).
BENCH_RECORDS = []


def record_benchmark(name, **metrics):
    """Append one named measurement (floats/ints/strings only)."""
    BENCH_RECORDS.append({"name": name, **metrics})


def write_bench_json(path, records):
    """Emit records in the versioned envelope of :mod:`repro.obs.metrics`
    (CI validates every emitted file against that schema).  Published
    atomically so an interrupted run never leaves a torn artifact for CI
    to upload."""
    from repro.obs.metrics import bench_payload
    from repro.store.io import atomic_write_json
    return atomic_write_json(path, bench_payload(records))


def pytest_sessionstart(session):
    # $REPRO_BENCH_TRACE: record the whole benchmark run (Flow stages,
    # passes, DSE, engine runs) as one Chrome trace for per-commit upload.
    if os.environ.get("REPRO_BENCH_TRACE"):
        from repro.obs.tracer import TRACER
        TRACER.enable()


def pytest_sessionfinish(session, exitstatus):
    path = os.environ.get("REPRO_BENCH_JSON")
    if path and BENCH_RECORDS:
        write_bench_json(path, BENCH_RECORDS)
    trace_path = os.environ.get("REPRO_BENCH_TRACE")
    if trace_path:
        from repro.obs.export import write_chrome_trace
        write_chrome_trace(trace_path)


@pytest.fixture(scope="session")
def bench_recorder():
    """The benchmark-measurement recorder (see :func:`record_benchmark`)."""
    return record_benchmark


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "table(name): marks the paper table/figure a benchmark regenerates"
    )


@pytest.fixture(scope="session")
def paper_params():
    """Paper-scale kernel parameters (Section 8)."""
    return {
        "transpose": {"size": 16},
        "stencil_1d": {"size": 64},
        "histogram": {"pixels": 256, "bins": 256},
        "gemm": {"size": 16},
        "convolution": {"size": 16},
        "fifo": {"depth": 512},
    }
