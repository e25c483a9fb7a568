"""A crash-safe, content-addressed, on-disk artifact store.

``ArtifactStore`` persists toolchain artifacts — emitted Verilog, resource
reports, compiled-simulator code objects — keyed by
``(kind, key)`` where ``key`` folds in the content fingerprint of everything
the artifact was built from.  Every key is also folded with the
:func:`toolchain_digest` of the ``repro`` sources that made the bytes, in
one place (:meth:`ArtifactStore.blob_path`), so a store shared between
checkouts never serves one checkout's output to another: a blob made by
other sources is an ordinary miss, and ``gc`` evicts it first as least
recently used.  The store layers *under* the in-memory tiers (Flow stage
cache, simulator compile cache): memory first, then disk, then build — and
a disk hit is always re-verified.

Robustness model (every clause is fault-injectable and tested):

* **Atomic publish.**  Blobs are written temp-file → flush → fsync → rename
  (:mod:`repro.store.io`), so a blob either exists completely or not at
  all.  A crash mid-publish leaves only ``*.tmp-*`` debris, swept by
  ``verify``/``gc``.
* **Checksums on read.**  Every blob carries a header with the SHA-256 of
  its payload; :meth:`get` verifies it on every read.  Bit-rot or torn
  bytes are detected, never served.
* **Quarantine + rebuild.**  A corrupt blob — or one that passes its
  checksum but fails to decode (:meth:`ArtifactStore.read_through`) — moves
  atomically into ``quarantine/`` and the read reports a miss; the caller
  rebuilds from source and re-publishes, so the store self-heals.
* **Advisory locking.**  Writers serialize on a store-wide advisory lock
  with bounded exponential-backoff retry; a wedged writer cannot deadlock
  readers (reads are lockless — atomic publish makes them safe), and lock
  starvation surfaces as a typed :class:`StoreLockTimeout`.

Layout under the root (``REPRO_STORE_DIR`` / ``FlowConfig.store_dir``)::

    objects/<kind>/<t>/<k[:2]>/<key>.blob  header line + payload bytes
                                         (<t>: toolchain digest prefix)
    quarantine/<kind>__<key>__<n>.blob   corrupt blobs, kept for forensics
    store.lock                           advisory writer lock

Blob header (one ASCII line): ``repro-store 1 <kind> <size> <sha256hex>``.
"""

from __future__ import annotations

import functools
import hashlib
import os
import re
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.ir.errors import IRError
from repro.resilience.faults import InjectedFault, fault_point
from repro.store.io import atomic_write_bytes, is_tmp_debris

try:  # pragma: no cover - platform gate
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback below
    fcntl = None

__all__ = [
    "ArtifactStore",
    "GCReport",
    "StoreError",
    "StoreLockTimeout",
    "StoreReport",
    "VerifyReport",
    "default_store",
    "get_store",
    "store_counters",
    "toolchain_digest",
]

_MAGIC = b"repro-store"
_VERSION = 1
#: Lock acquisition: attempt i sleeps ``_LOCK_BASE_DELAY * 2**i`` seconds.
_LOCK_ATTEMPTS = 8
_LOCK_BASE_DELAY = 0.01

_SAFE_KEY = re.compile(r"^[A-Za-z0-9._\-]+$")


class StoreError(IRError):
    """The artifact store could not complete an operation.

    Raised only for *unrecoverable* store problems (an unusable root, lock
    starvation).  Recoverable faults — a corrupt blob, a failed publish —
    degrade to cache misses and counters instead.
    """


class StoreLockTimeout(StoreError):
    """The store's advisory writer lock stayed held through every retry."""


#: Process-lifetime counters across every ArtifactStore instance, surfaced
#: through ``repro stats`` / :mod:`repro.obs.cachestats` as ``store.blobs``.
_COUNTERS = {"hits": 0, "misses": 0, "corrupt": 0, "writes": 0,
             "write_failures": 0, "quarantined": 0}

#: The most recently used store (its blob count backs the stats provider).
_LAST_STORE: Optional["ArtifactStore"] = None

#: ``get_store`` memo: one instance per absolute root path.
_STORES: Dict[str, "ArtifactStore"] = {}


@functools.lru_cache(maxsize=None)
def toolchain_digest() -> str:
    """sha256 over the relative path and bytes of every ``repro/**/*.py``
    source: the code that makes every stored artifact (computed once per
    process, ~7 ms)."""
    package = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(package):
        dirnames[:] = sorted(name for name in dirnames
                             if name != "__pycache__")
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            with open(path, "rb") as handle:
                data = handle.read()
            relative = os.path.relpath(path, package).replace(os.sep, "/")
            digest.update(f"{relative}\0{len(data)}\0".encode())
            digest.update(data)
    return digest.hexdigest()


def store_counters() -> Dict[str, int]:
    """A snapshot of the process-lifetime store counters."""
    return dict(_COUNTERS)


def _bump(counter: str, delta: int = 1) -> None:
    """Move one store counter, in-process and on the tracer."""
    from repro.obs.tracer import TRACER
    _COUNTERS[counter] += delta
    TRACER.count(f"store.{counter}", delta)


@dataclass(frozen=True)
class BlobInfo:
    """One on-disk blob."""

    kind: str
    key: str
    path: str
    size: int
    mtime: float


@dataclass
class VerifyReport:
    """Outcome of :meth:`ArtifactStore.verify`."""

    checked: int = 0
    corrupt: List[str] = field(default_factory=list)
    quarantined: int = 0
    debris_removed: int = 0

    @property
    def ok(self) -> bool:
        return not self.corrupt

    def render(self) -> str:
        status = "ok" if self.ok else f"{len(self.corrupt)} CORRUPT"
        lines = [f"verify: {self.checked} blob(s) checked, {status}, "
                 f"{self.quarantined} quarantined, "
                 f"{self.debris_removed} tmp debris removed"]
        lines.extend(f"  corrupt: {path}" for path in self.corrupt)
        return "\n".join(lines)


@dataclass
class GCReport:
    """Outcome of :meth:`ArtifactStore.gc`."""

    evicted: int = 0
    evicted_bytes: int = 0
    debris_removed: int = 0
    remaining: int = 0
    remaining_bytes: int = 0

    def render(self) -> str:
        return (f"gc: evicted {self.evicted} blob(s) "
                f"({self.evicted_bytes} bytes), removed "
                f"{self.debris_removed} tmp debris; {self.remaining} blob(s) "
                f"({self.remaining_bytes} bytes) remain")


@dataclass
class StoreReport:
    """Outcome of :meth:`ArtifactStore.stats`."""

    root: str
    blobs: int
    total_bytes: int
    by_kind: Dict[str, Tuple[int, int]]      # kind -> (count, bytes)
    quarantined: int
    counters: Dict[str, int]

    def render(self) -> str:
        lines = [f"store: {self.root}",
                 f"  {self.blobs} blob(s), {self.total_bytes} bytes, "
                 f"{self.quarantined} quarantined"]
        for kind in sorted(self.by_kind):
            count, size = self.by_kind[kind]
            lines.append(f"  {kind:<12} {count:>6} blob(s) {size:>10} bytes")
        session = ", ".join(f"{name}={value}"
                            for name, value in sorted(self.counters.items()))
        lines.append(f"  session: {session}")
        return "\n".join(lines)


class _StoreLock:
    """Store-wide advisory writer lock with bounded exponential backoff."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._fd: Optional[int] = None

    def __enter__(self) -> "_StoreLock":
        delay = _LOCK_BASE_DELAY
        last_error: Optional[Exception] = None
        for _ in range(_LOCK_ATTEMPTS):
            try:
                fault_point("store.lock")
                if fcntl is not None:
                    fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
                    try:
                        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    except OSError as error:
                        os.close(fd)
                        raise error
                    self._fd = fd
                    return self
                # Non-POSIX fallback: exclusive-create lock file.  A stale
                # file (dead writer) is broken after 60 seconds.
                try:  # pragma: no cover - non-POSIX only
                    fd = os.open(self.path + ".x",
                                 os.O_CREAT | os.O_EXCL | os.O_RDWR)
                    self._fd = fd
                    return self
                except FileExistsError as error:  # pragma: no cover
                    try:
                        if time.time() - os.path.getmtime(
                                self.path + ".x") > 60.0:
                            os.unlink(self.path + ".x")
                    except OSError:
                        pass
                    raise error
            except InjectedFault as error:
                last_error = error
            except OSError as error:
                last_error = error
            time.sleep(delay)
            delay *= 2
        raise StoreLockTimeout(
            f"could not acquire store lock {self.path!r} after "
            f"{_LOCK_ATTEMPTS} attempts (last error: {last_error})")

    def __exit__(self, *exc) -> None:
        if self._fd is not None:
            if fcntl is not None:
                try:
                    fcntl.flock(self._fd, fcntl.LOCK_UN)
                except OSError:  # pragma: no cover - unlock is best-effort
                    pass
                os.close(self._fd)
            else:  # pragma: no cover - non-POSIX only
                os.close(self._fd)
                try:
                    os.unlink(self.path + ".x")
                except OSError:
                    pass
            self._fd = None


class ArtifactStore:
    """See the module docstring for the robustness model and layout."""

    def __init__(self, root: str) -> None:
        global _LAST_STORE
        self.root = os.path.abspath(root)
        if os.path.exists(self.root) and not os.path.isdir(self.root):
            raise StoreError(
                f"store root {self.root!r} exists and is not a directory")
        try:
            os.makedirs(self.objects_dir, exist_ok=True)
            os.makedirs(self.quarantine_dir, exist_ok=True)
        except OSError as error:
            raise StoreError(
                f"cannot create store root {self.root!r}: {error}")
        _LAST_STORE = self

    # -- layout --------------------------------------------------------------
    @property
    def objects_dir(self) -> str:
        return os.path.join(self.root, "objects")

    @property
    def quarantine_dir(self) -> str:
        return os.path.join(self.root, "quarantine")

    @property
    def lock_path(self) -> str:
        return os.path.join(self.root, "store.lock")

    @staticmethod
    def _safe(key: str) -> str:
        if _SAFE_KEY.match(key):
            return key
        return hashlib.sha256(key.encode("utf-8")).hexdigest()

    def blob_path(self, kind: str, key: str) -> str:
        """Where ``(kind, key)`` lives for this toolchain: the one place the
        :func:`toolchain_digest` is folded into every key."""
        safe = self._safe(key)
        return os.path.join(self.objects_dir, self._safe(kind),
                            toolchain_digest()[:16], safe[:2], f"{safe}.blob")

    def _lock(self) -> _StoreLock:
        return _StoreLock(self.lock_path)

    # -- primitives ----------------------------------------------------------
    @staticmethod
    def _encode(kind: str, payload: bytes) -> bytes:
        digest = hashlib.sha256(payload).hexdigest()
        header = (f"{_MAGIC.decode()} {_VERSION} {kind} "
                  f"{len(payload)} {digest}\n").encode("ascii")
        return header + payload

    @staticmethod
    def _decode(kind: str, raw: bytes) -> Optional[bytes]:
        """Header-check + checksum-verify; ``None`` means corrupt."""
        newline = raw.find(b"\n")
        if newline < 0:
            return None
        fields = raw[:newline].split()
        payload = raw[newline + 1:]
        if (len(fields) != 5 or fields[0] != _MAGIC
                or fields[1] != str(_VERSION).encode()
                or fields[2] != kind.encode()):
            return None
        try:
            size = int(fields[3])
        except ValueError:
            return None
        if size != len(payload):
            return None
        if hashlib.sha256(payload).hexdigest().encode() != fields[4]:
            return None
        return payload

    def _quarantine(self, kind: str, key: str, path: str) -> None:
        """Atomically move a corrupt blob aside; never raises."""
        base = f"{self._safe(kind)}__{self._safe(key)}"
        for attempt in range(1000):
            target = os.path.join(self.quarantine_dir,
                                  f"{base}__{attempt}.blob")
            if os.path.exists(target):
                continue
            try:
                os.replace(path, target)
                _bump("quarantined")
                from repro.obs.tracer import TRACER
                TRACER.event("store.quarantine", cat="store", kind=kind,
                             key=key[:16])
            except OSError:
                pass
            return

    # -- the public API ------------------------------------------------------
    def put(self, kind: str, key: str, payload) -> Optional[str]:
        """Publish ``payload`` (bytes or str) under ``(kind, key)``.

        Returns the blob path, or ``None`` when publication failed — a
        failed publish is *graceful*: the store stays consistent (atomic
        publish guarantees no torn blob) and the caller simply proceeds
        without persistence, so an unwritable or faulted store can never
        fail a build.
        """
        if isinstance(payload, str):
            payload = payload.encode("utf-8")
        path = self.blob_path(kind, key)
        try:
            with self._lock():
                existing = self._read_verified(kind, key, count=False)
                if existing == payload:
                    # Identical content already published: refresh recency.
                    os.utime(path)
                    return path
                atomic_write_bytes(path, self._encode(kind, payload))
            _bump("writes")
            return path
        except StoreLockTimeout:
            raise
        except (OSError, InjectedFault):
            _bump("write_failures")
            return None

    def get(self, kind: str, key: str) -> Optional[bytes]:
        """The payload under ``(kind, key)``, checksum-verified.

        ``None`` on a miss *or* on corruption — a corrupt blob is
        quarantined first, so the following rebuild + :meth:`put` self-heals
        the store.  Reads are lockless (atomic publish).
        """
        payload = self._read_verified(kind, key, count=True)
        if payload is None:
            _bump("misses")
            return None
        _bump("hits")
        path = self.blob_path(kind, key)
        try:
            os.utime(path)          # LRU recency for gc
        except OSError:
            pass
        return payload

    def _read_verified(self, kind: str, key: str, count: bool) -> Optional[bytes]:
        path = self.blob_path(kind, key)
        try:
            fault_point("store.read")
            with open(path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return None
        except (OSError, InjectedFault):
            # An unreadable blob is a miss, not a crash.
            return None
        payload = self._decode(kind, raw)
        if payload is None:
            if count:
                _bump("corrupt")
            self._quarantine(kind, key, path)
            return None
        return payload

    def get_text(self, kind: str, key: str) -> Optional[str]:
        payload = self.get(kind, key)
        return None if payload is None else payload.decode("utf-8")

    def read_through(self, kind: str, key: str, build: Callable[[], Any],
                     encode: Callable[[Any], Any] = str,
                     decode: Callable[[bytes], Any] = bytes.decode,
                     errors: Tuple[type, ...] = ()) -> Any:
        """Decode the blob under ``(kind, key)``, or build and publish it.

        ``encode`` returns text or bytes (see :meth:`put`); ``decode``
        receives the payload bytes (the default reads them as UTF-8 text).
        A blob that passes its checksum but whose ``decode`` raises one of
        ``errors`` is corrupt like any other: a counted miss, quarantined,
        rebuilt and re-published.  Any other exception propagates — a
        decoder bug is a finding, not a miss.
        """
        payload = self.get(kind, key)
        if payload is not None:
            try:
                return decode(payload)
            except errors:
                # The get counted a hit; re-count it as a corrupt miss.
                _bump("hits", -1)
                _bump("misses")
                _bump("corrupt")
                self._quarantine(kind, key, self.blob_path(kind, key))
        value = build()
        self.put(kind, key, encode(value))
        return value

    def has(self, kind: str, key: str) -> bool:
        return os.path.exists(self.blob_path(kind, key))

    # -- maintenance ---------------------------------------------------------
    def iter_blobs(self) -> Iterator[BlobInfo]:
        objects = self.objects_dir
        for dirpath, _dirnames, filenames in os.walk(objects):
            for filename in sorted(filenames):
                if is_tmp_debris(filename) or not filename.endswith(".blob"):
                    continue
                path = os.path.join(dirpath, filename)
                kind = os.path.relpath(dirpath, objects).split(os.sep)[0]
                try:
                    status = os.stat(path)
                except OSError:
                    continue
                yield BlobInfo(kind=kind, key=filename[:-5], path=path,
                               size=status.st_size, mtime=status.st_mtime)

    def _sweep_debris(self) -> int:
        removed = 0
        for dirpath, _dirnames, filenames in os.walk(self.objects_dir):
            for filename in filenames:
                if is_tmp_debris(filename):
                    try:
                        os.unlink(os.path.join(dirpath, filename))
                        removed += 1
                    except OSError:
                        pass
        return removed

    def verify(self, quarantine: bool = True) -> VerifyReport:
        """Checksum-verify every blob; quarantine the corrupt ones."""
        report = VerifyReport()
        for blob in list(self.iter_blobs()):
            try:
                with open(blob.path, "rb") as handle:
                    raw = handle.read()
            except OSError:
                continue
            report.checked += 1
            if self._decode(blob.kind, raw) is None:
                report.corrupt.append(blob.path)
                if quarantine:
                    key = blob.key.rsplit(".", 1)[0]
                    self._quarantine(blob.kind, key, blob.path)
                    report.quarantined += 1
        with self._lock():
            report.debris_removed = self._sweep_debris()
        return report

    def gc(self, max_bytes: Optional[int] = None,
           max_blobs: Optional[int] = None) -> GCReport:
        """Sweep tmp debris and LRU-evict blobs beyond the given budgets."""
        report = GCReport()
        with self._lock():
            report.debris_removed = self._sweep_debris()
            blobs = sorted(self.iter_blobs(), key=lambda b: (b.mtime, b.path))
            total = sum(blob.size for blob in blobs)
            count = len(blobs)
            for blob in blobs:
                over_bytes = max_bytes is not None and total > max_bytes
                over_count = max_blobs is not None and count > max_blobs
                if not (over_bytes or over_count):
                    break
                try:
                    os.unlink(blob.path)
                except OSError:
                    continue
                total -= blob.size
                count -= 1
                report.evicted += 1
                report.evicted_bytes += blob.size
            report.remaining = count
            report.remaining_bytes = total
        return report

    def clear(self, quarantine: bool = True) -> int:
        """Delete every blob (and quarantined blob); returns blobs removed."""
        removed = 0
        with self._lock():
            removed += self._sweep_debris()
            for blob in list(self.iter_blobs()):
                try:
                    os.unlink(blob.path)
                    removed += 1
                except OSError:
                    pass
            if quarantine and os.path.isdir(self.quarantine_dir):
                for filename in os.listdir(self.quarantine_dir):
                    try:
                        os.unlink(os.path.join(self.quarantine_dir, filename))
                    except OSError:
                        pass
        return removed

    def stats(self) -> StoreReport:
        by_kind: Dict[str, Tuple[int, int]] = {}
        blobs = 0
        total = 0
        for blob in self.iter_blobs():
            count, size = by_kind.get(blob.kind, (0, 0))
            by_kind[blob.kind] = (count + 1, size + blob.size)
            blobs += 1
            total += blob.size
        try:
            quarantined = len([name for name in os.listdir(self.quarantine_dir)
                               if name.endswith(".blob")])
        except OSError:
            quarantined = 0
        return StoreReport(root=self.root, blobs=blobs, total_bytes=total,
                           by_kind=by_kind, quarantined=quarantined,
                           counters=store_counters())

    def blob_count(self) -> int:
        return sum(1 for _ in self.iter_blobs())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ArtifactStore {self.root!r}>"


# --------------------------------------------------------------------------- #
# Resolution and registry
# --------------------------------------------------------------------------- #


def get_store(root: str) -> ArtifactStore:
    """The (memoized) store instance for ``root``."""
    path = os.path.abspath(root)
    store = _STORES.get(path)
    if store is None:
        store = ArtifactStore(path)
        _STORES[path] = store
    return store


def default_store() -> Optional[ArtifactStore]:
    """The environment-configured store (``REPRO_STORE_DIR``), or ``None``."""
    root = os.environ.get("REPRO_STORE_DIR", "").strip()
    return get_store(root) if root else None


def _store_stats():
    from repro.obs.cachestats import CacheStats
    store = _LAST_STORE or default_store()
    size = 0
    if store is not None:
        try:
            size = store.blob_count()
        except OSError:  # pragma: no cover - racing deletion
            size = 0
    return CacheStats(name="store.blobs", capacity=None, size=size,
                      hits=_COUNTERS["hits"], misses=_COUNTERS["misses"],
                      evictions=_COUNTERS["quarantined"])


def _register_store_stats() -> None:
    from repro.obs.cachestats import register_cache
    register_cache("store.blobs", _store_stats)


_register_store_stats()
