"""One registry for every cache in the toolchain.

Each cache reports through this module's provider registry, so
``python -m repro stats`` (and tests) can enumerate every one with its
capacity, current size, and hit rate:

``sim.compile``
    The per-design simulator compile cache
    (:mod:`repro.sim.engine.cache`).  Capacity: the ``REPRO_SIM_CACHE_SIZE``
    environment variable (default 64), read at call time.
``flow.stages``
    The per-session Flow stage caches (:mod:`repro.flow`), summed over every
    live :class:`~repro.flow.Flow`.  Unbounded: one artifact per stage per
    session, lifetime tied to the session object.
``store.blobs``
    The persistent on-disk artifact store (:mod:`repro.store`), the tier
    under all of the above.  Unbounded on disk (``repro store gc`` applies
    budgets); hits/misses are process-lifetime, evictions count quarantined
    corrupt blobs.

A *provider* is a zero-argument callable returning a :class:`CacheStats`
snapshot; caches register one at import time via :func:`register_cache`.
:func:`all_cache_stats` imports the builtin cache modules first, so the
report is complete even if nothing else imported them yet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of one cache."""

    name: str
    capacity: Optional[int]     # None = unbounded
    size: int
    hits: int
    misses: int
    evictions: int

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over accesses (0.0 before the first access)."""
        total = self.accesses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "capacity": self.capacity,
            "size": self.size,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }


_PROVIDERS: Dict[str, Callable[[], CacheStats]] = {}


def register_cache(name: str, provider: Callable[[], CacheStats]) -> None:
    """Register (or replace) the stats provider for cache ``name``."""
    _PROVIDERS[name] = provider


def registered_caches() -> List[str]:
    return sorted(_PROVIDERS)


def ensure_builtin_caches() -> None:
    """Import the modules whose caches self-register, so the report always
    covers the builtin set (sim.compile, flow.stages, store.blobs)."""
    import repro.flow  # noqa: F401
    import repro.sim.engine.cache  # noqa: F401
    import repro.store.store  # noqa: F401


def all_cache_stats() -> List[CacheStats]:
    """A snapshot of every registered cache, sorted by name."""
    ensure_builtin_caches()
    return [_PROVIDERS[name]() for name in sorted(_PROVIDERS)]


def render_cache_report() -> str:
    """The ``repro stats`` cache table."""
    rows = all_cache_stats()
    lines = [f"{'cache':<14} {'cap':>6} {'size':>6} {'hits':>8} "
             f"{'misses':>8} {'evict':>6} {'hit rate':>9}"]
    for stats in rows:
        capacity = "-" if stats.capacity is None else str(stats.capacity)
        rate = f"{stats.hit_rate * 100:6.1f} %" if stats.accesses else "      -"
        lines.append(f"{stats.name:<14} {capacity:>6} {stats.size:>6} "
                     f"{stats.hits:>8} {stats.misses:>8} "
                     f"{stats.evictions:>6} {rate:>9}")
    return "\n".join(lines)


__all__ = [
    "CacheStats",
    "all_cache_stats",
    "ensure_builtin_caches",
    "register_cache",
    "registered_caches",
    "render_cache_report",
]
