"""Host-speed calibration: timed ops are reported at a fixed reference speed.

The host's CPU speed can drift by up to ~2x within minutes (the vCPUs are
shared), so raw wall times of the same op spread far more across runs than
the program's own cost does.  A fixed calibration loop, which uses none of
the program's code, is timed right before and right after each timed
region.  The region's wall time is then rescaled to a host on which the loop
takes exactly :data:`REFERENCE_S`::

    scaled = wall * REFERENCE_S / mean(loop before, loop after)

A change to the program moves ``wall`` and not the loop, so it shows in full;
a slow phase of the host moves both and cancels.  The loop exercises what a
benchmark op spends its time on: CPython's compiler, object allocation,
dicts and string building, over a working set larger than the CPU caches.
Garbage collection is off while it runs, so its time does not depend on how
much garbage the program left.
"""

from __future__ import annotations

import gc
import time

#: Seconds the calibration loop takes on the reference host.  Scaled times
#: read as seconds on a host of that speed.  Changing the loop or this
#: constant redefines every scaled metric.
REFERENCE_S = 0.100

#: ~130 KB of Python source.
_SOURCE = "\n".join(
    f"def f{index}(state, table, value):\n"
    f"    a = state[{index % 97}] + value\n"
    f"    if a & {index % 13 + 1}:\n"
    f"        table[{index}] = (a, state)\n"
    f"    else:\n"
    f"        state[{index % 97}] = table.get({index}, (0,))[0] ^ a\n"
    f"    return a\n"
    for index in range(750))


def _loop() -> int:
    """Compile the fixed source, then build, sort and join a table of 30 000
    entries (several MB: a working set past the CPU caches, as an op's is)."""
    compile(_SOURCE, "<calibration>", "exec")
    table = {}
    for value in range(30_000):
        table[(value, f"n{value}")] = [value, value + 1]
    names = sorted(table, key=lambda key: key[1])
    return len("\n".join(name for _, name in names))


def calibrate() -> float:
    """Seconds one pass of the calibration loop takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(before: float, after: float) -> float:
    """Factor that turns wall seconds measured between two calibration
    passes of ``before`` and ``after`` seconds into seconds at the reference
    speed."""
    return REFERENCE_S / ((before + after) / 2.0)
