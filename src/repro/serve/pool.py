"""Single-flight coalescing + a sharded, supervised worker pool.

The two scheduling ideas behind ``repro serve`` live here, independent of
HTTP and of what the work actually is:

* **Coalescing (single flight).**  Concurrent calls to :meth:`run` with the
  same key collapse into one execution: the first caller (the *winner*)
  dispatches the job; every later caller (a *coalescer*) blocks on the same
  in-flight entry and receives the winner's exact result object — so N
  identical concurrent requests cost one Flow build, and the responses are
  byte-identical by construction.
* **Sharding.**  Independent keys dispatch to ``int(key, 16) % workers`` —
  a deterministic shard choice (sha256 hex keys, no per-process hash
  seeding), so the same request always lands on the same worker and
  distinct requests spread across the pool.

Supervision:

* each execution runs under the ``serve.execute`` fault point and is retried
  in place (``retries`` attempts) on injected faults and ``OSError``;
* exhausted retries raise the typed :class:`repro.resilience.WorkerError`;
* a *shard crash* (the ``serve.shard`` fault point, or any escape from the
  worker loop) marks the shard broken, wakes its pending winners, and each
  of them re-executes **serially in its own thread** — pool→serial
  degradation with identical output, counted as ``serve.pool_degraded``;
  later keys hashing to a broken shard skip the queue and run serially
  up front (``serve.serial``);
* a per-request ``timeout`` resolves the entry with a typed
  :class:`~repro.resilience.WorkerError` instead of blocking forever
  (first resolution wins; a straggler worker's late result is dropped).
"""

from __future__ import annotations

import threading
import time
from queue import Empty, SimpleQueue
from typing import Callable, Dict, List, Optional

from repro.resilience import InjectedFault, WorkerError, bump, fault_point

__all__ = ["CoalescingPool", "PoolOutcome"]

_STOP = object()


class PoolOutcome:
    """What one :meth:`CoalescingPool.run` call observed."""

    __slots__ = ("result", "error", "coalesced", "shard", "serial")

    def __init__(self, result, error, coalesced: bool, shard: int,
                 serial: bool) -> None:
        self.result = result
        self.error = error
        self.coalesced = coalesced
        self.shard = shard
        self.serial = serial

    def unwrap(self):
        if self.error is not None:
            raise self.error
        return self.result


class _Entry:
    """One in-flight key: winner dispatches, coalescers await resolution."""

    __slots__ = ("key", "cond", "done", "result", "error", "shard",
                 "crashed", "serial", "waiters")

    def __init__(self, key: str, shard: int) -> None:
        self.key = key
        self.cond = threading.Condition()
        self.done = False
        self.result = None
        self.error: Optional[BaseException] = None
        self.shard = shard
        self.crashed = False
        self.serial = False
        self.waiters = 0

    def resolve(self, result=None, error: Optional[BaseException] = None,
                serial: bool = False) -> bool:
        """First resolution wins; returns whether this call resolved."""
        with self.cond:
            if self.done:
                return False
            self.result = result
            self.error = error
            self.serial = serial
            self.done = True
            self.cond.notify_all()
            return True

    def mark_crashed(self) -> None:
        """The shard servicing this entry died; wake the winner to rescue."""
        with self.cond:
            if not self.done:
                self.crashed = True
                self.cond.notify_all()


class CoalescingPool:
    """See the module docstring.

    ``counter`` is called with serve-counter names (``serve.retries``,
    ``serve.pool_degraded``, ``serve.serial``, ``serve.shard_crashes``) so
    the server can mirror pool activity into its stats without the pool
    knowing about HTTP or tracers.
    """

    def __init__(self, workers: int = 4, *,
                 timeout: Optional[float] = None,
                 retries: int = 1,
                 counter: Optional[Callable[[str], None]] = None) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.timeout = timeout
        self.retries = max(0, retries)
        self._counter = counter or (lambda name: None)
        self._lock = threading.Lock()
        self._inflight: Dict[str, _Entry] = {}
        self._queues: List[SimpleQueue] = [SimpleQueue()
                                           for _ in range(workers)]
        self._broken = [False] * workers
        self._dispatched = [0] * workers
        self._threads = [
            threading.Thread(target=self._worker_loop, args=(index,),
                             name=f"serve-shard-{index}", daemon=True)
            for index in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- introspection -------------------------------------------------------
    def shard_of(self, key: str) -> int:
        """Deterministic shard for a (sha256-hex) key."""
        return int(key, 16) % self.workers

    def depths(self) -> List[Dict[str, object]]:
        """Live per-shard state: queue depth, dispatch count, liveness."""
        return [{"shard": index,
                 "depth": self._queues[index].qsize(),
                 "dispatched": self._dispatched[index],
                 "alive": not self._broken[index]}
                for index in range(self.workers)]

    def inflight(self) -> int:
        with self._lock:
            return len(self._inflight)

    # -- the worker side -----------------------------------------------------
    def _supervised(self, fn: Callable[[], object]):
        """1 + retries attempts; typed WorkerError when all fail."""
        last: Optional[BaseException] = None
        for _ in range(1 + self.retries):
            try:
                fault_point("serve.execute")
                return fn()
            except (InjectedFault, OSError) as error:
                last = error
                self._counter("serve.retries")
                bump("serve.retries")
        raise WorkerError(
            f"request failed after {1 + self.retries} attempt(s); "
            f"last error: {type(last).__name__}: {last}")

    def _worker_loop(self, index: int) -> None:
        queue = self._queues[index]
        current: Optional[_Entry] = None
        try:
            while True:
                item = queue.get()
                if item is _STOP:
                    return
                current, fn = item
                if current is None:
                    continue
                # The shard-crash fault point: an injected `error` here kills
                # this worker thread mid-service, exactly like a real crash.
                fault_point("serve.shard")
                try:
                    result = self._supervised(fn)
                except BaseException as error:
                    current.resolve(error=error)
                else:
                    current.resolve(result=result)
                current = None
        except BaseException:
            # Shard crash: break the shard, hand every pending entry back to
            # its winner for serial rescue.  The pool *degrades*, the
            # requests don't fail.
            self._broken[index] = True
            self._counter("serve.shard_crashes")
            bump("serve.shard_crashes")
            if current is not None:
                current.mark_crashed()
            while True:
                try:
                    item = queue.get_nowait()
                except Empty:
                    break
                if item is _STOP:
                    break
                entry, _fn = item
                if entry is not None:
                    entry.mark_crashed()

    # -- the caller side -----------------------------------------------------
    def run(self, key: str, fn: Callable[[], object],
            timeout: Optional[float] = None) -> PoolOutcome:
        """Execute ``fn`` under single-flight ``key`` on its shard.

        Blocking; returns a :class:`PoolOutcome` (``coalesced`` tells the
        caller whether it awaited another request's execution).
        """
        timeout = self.timeout if timeout is None else timeout
        shard = self.shard_of(key)
        with self._lock:
            entry = self._inflight.get(key)
            if entry is not None:
                entry.waiters += 1
                coalesced = True
            else:
                entry = _Entry(key, shard)
                self._inflight[key] = entry
                coalesced = False
        if coalesced:
            return self._await(entry, coalesced=True, timeout=timeout)
        try:
            if self._broken[shard]:
                # The shard died earlier: degrade to serial up front.
                self._counter("serve.serial")
                bump("serve.serial")
                self._run_serial(entry, fn)
                winner_fn = None
            else:
                self._dispatched[shard] += 1
                self._queues[shard].put((entry, fn))
                winner_fn = fn
            return self._await(entry, coalesced=False, timeout=timeout,
                               winner_fn=winner_fn)
        finally:
            with self._lock:
                self._inflight.pop(key, None)

    def _run_serial(self, entry: _Entry, fn: Callable[[], object]) -> None:
        try:
            result = self._supervised(fn)
        except BaseException as error:
            entry.resolve(error=error, serial=True)
        else:
            entry.resolve(result=result, serial=True)

    def _await(self, entry: _Entry, coalesced: bool,
               timeout: Optional[float],
               winner_fn: Optional[Callable[[], object]] = None) -> PoolOutcome:
        deadline = None if timeout is None else time.monotonic() + timeout
        rescue = False
        with entry.cond:
            while not entry.done:
                if entry.crashed and winner_fn is not None:
                    rescue = True
                    break
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    break
                entry.cond.wait(remaining if remaining is None
                                else min(remaining, 0.5))
        if rescue:
            # Pool→serial degradation: the winner redoes the work inline,
            # with identical output; coalescers keep waiting on the entry.
            self._counter("serve.pool_degraded")
            bump("serve.pool_degraded")
            self._run_serial(entry, winner_fn)
        elif not entry.done:
            # Timed out: resolve with a typed error (first resolution wins,
            # so a straggler worker's late result is dropped, not served).
            entry.resolve(error=WorkerError(
                f"request {entry.key[:12]} timed out after {timeout:g}s "
                f"on shard {entry.shard}"))
        return PoolOutcome(result=entry.result, error=entry.error,
                           coalesced=coalesced, shard=entry.shard,
                           serial=entry.serial)

    # -- lifecycle -----------------------------------------------------------
    def stop(self, wait: float = 2.0) -> None:
        """Stop every live shard (idempotent; broken shards are skipped)."""
        for index, thread in enumerate(self._threads):
            if thread.is_alive():
                self._queues[index].put(_STOP)
        for thread in self._threads:
            thread.join(timeout=wait)

    def __enter__(self) -> "CoalescingPool":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
