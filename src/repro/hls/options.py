"""Compile options for the baseline HLS compiler's fast paths.

The seed compiler scheduled and bound every (II, unroll, ports) design point
serially, from scratch.  :class:`HLSOptions` controls the three fast-path
mechanisms added on top (all on by default, all result-preserving):

* **memoize** — scheduling+binding results are cached on a canonical loop
  signature (DFG content hash, pipeline flag, requested II, port map), so
  identical design points across port configurations, loops and kernels are
  evaluated once.
* **prune** — candidates whose *lower-bound* cost already exceeds the best
  evaluated candidate are skipped without scheduling (see
  :mod:`repro.hls.dse` for the bound and a proof sketch of why the chosen
  schedule cannot change).
* **reuse_graphs** — each unroll factor's dataflow graph is built once and
  shared across port configurations and II candidates.

The sweep itself is always serial (see :mod:`repro.hls.dse` for why).
Every combination of options must choose the same schedules and emit the
same Verilog as the seed compiler; ``tests/hls/test_dse_fastpath.py`` and
``benchmarks/bench_compile_time.py`` enforce this bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class HLSOptions:
    """Knobs of the baseline compiler's fast compile path."""

    #: Reuse scheduling/binding results across identical design points.
    memoize: bool = True
    #: Skip candidates whose lower-bound cost cannot beat the incumbent.
    prune: bool = True
    #: Build each unroll factor's dataflow graph once and share it across
    #: port configurations and II candidates.  The seed compiler rebuilt the
    #: graph for every single design point; ``seed_equivalent`` turns this
    #: off so the frozen Table 6 baseline keeps the seed's cost profile.
    reuse_graphs: bool = True

    @classmethod
    def seed_equivalent(cls) -> "HLSOptions":
        """Options reproducing the seed compiler's behaviour exactly:
        no memoization, no pruning, per-candidate graph rebuilds (the
        benchmark baseline and the frozen Table 6 model)."""
        return cls(memoize=False, prune=False, reuse_graphs=False)
