"""Crash-safe persistent artifact store (disk tier under the in-memory caches).

:mod:`repro.store.io` — atomic write-then-rename publication, used for every
file the toolchain emits.  :mod:`repro.store.store` — the content-addressed
:class:`ArtifactStore` with per-blob checksums, corruption quarantine,
advisory locking and ``verify``/``gc``/``clear`` maintenance (driven by the
``python -m repro store`` CLI).
"""

from repro.store.io import (
    TMP_MARKER,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    fsync_directory,
    is_tmp_debris,
)
from repro.store.store import (
    ArtifactStore,
    GCReport,
    StoreError,
    StoreLockTimeout,
    StoreReport,
    VerifyReport,
    default_store,
    get_store,
    reset_store_counters,
    store_counters,
    toolchain_digest,
)

__all__ = [
    "ArtifactStore",
    "GCReport",
    "StoreError",
    "StoreLockTimeout",
    "StoreReport",
    "TMP_MARKER",
    "VerifyReport",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "default_store",
    "fsync_directory",
    "get_store",
    "is_tmp_debris",
    "reset_store_counters",
    "store_counters",
    "toolchain_digest",
]
