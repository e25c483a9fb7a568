"""Tests of the benchmark itself: layer accounting and the self-test mode.

Run from the root of a checkout::

    python3 -m pytest flowbench/test_flowbench.py -q
"""

import gc
import os
import subprocess
import sys
import time

import hostspeed
import layers

HERE = os.path.dirname(os.path.abspath(__file__))


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_nested_layers_are_charged_self_time_only():
    trace = layers.LayerTrace()
    inner = trace.wrap("inner", lambda: _busy(0.02))

    def outer_body():
        _busy(0.01)
        inner()

    outer = trace.wrap("outer", outer_body)
    trace.active = True
    start = time.perf_counter()
    outer()
    wall = time.perf_counter() - start
    record = trace.take()
    assert record.seconds("inner") >= 0.02
    assert 0.01 <= record.seconds("outer") < 0.02
    assert abs(record.covered() - wall) < 0.005


def test_inactive_wrapper_records_nothing():
    trace = layers.LayerTrace()
    wrapped = trace.wrap("layer", lambda value: value + 1)
    assert wrapped(1) == 2
    assert trace.take().self_s == {}


def test_span_time_moves_out_of_the_enclosing_frame():
    trace = layers.LayerTrace()
    trace.active = True
    trace.wrap("outer", lambda: _busy(0.03))()
    start, end, _ = trace.frames[0]
    span = {"name": "sim.run", "ts": 0.005, "dur": 0.01}
    trace.fold_spans([span, {"name": "other", "ts": 0.0, "dur": 1.0}],
                     origin=start, name="sim.run", layer="sim.run")
    record = trace.take()
    assert abs(record.seconds("sim.run") - 0.01) < 1e-12
    assert abs(record.covered() - (end - start)) < 1e-9


def test_a_slow_host_phase_cancels_in_the_scaled_time():
    reference = hostspeed.REFERENCE_S
    assert hostspeed.scale(reference, reference) == 1.0
    # The host runs at half speed: the loop and the op both take twice as
    # long, and the scaled op time is the reference-speed time.
    assert 2.0 * hostspeed.scale(2 * reference, 2 * reference) == 1.0
    assert hostspeed.scale(reference, 3 * reference) == 0.5


def test_calibration_leaves_the_collector_as_it_was():
    assert gc.isenabled()
    assert hostspeed.calibrate() > 0
    assert gc.isenabled()


def test_self_test_mode_passes():
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--self-test"],
        capture_output=True, text=True, timeout=600)
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip().splitlines()[-1] == "self-test ok"
