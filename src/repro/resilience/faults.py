"""Deterministic fault injection: every failure mode is a seeded test input.

A persistent artifact store (or a serving pool) that survives faults only
*probably* is worthless — the recovery paths must be exercised exactly
like the happy paths are.  This module turns each failure mode into a named,
seeded, replayable event:

* Code under test declares **fault points** — ``fault_point("store.write",
  payload=data)`` — at the places where the outside world can go wrong
  (writes, fsyncs, renames, reads, locks, serve requests and executions,
  engine compiles).  With no plan installed a fault point is a no-op
  returning its payload unchanged, so the hooks are free in production.
* A :class:`FaultPlan` holds :class:`FaultRule`\\ s — *which* point misfires,
  *how* (``io_error``, ``torn``, ``corrupt``, ``error``, ``timeout``,
  ``crash``), and on which hit numbers.  Hit counting and payload corruption
  are deterministic functions of the plan, so a failing run replays
  byte-for-byte from ``(program seed, plan spec)``.
* Plans install process-wide via :func:`install_plan` (tests), or through
  the ``REPRO_FAULT_PLAN`` environment variable (CI chaos jobs, subprocess
  crash tests — children inherit the environment and self-install on their
  first fault point).

Plan specs are compact strings, validated by :func:`FaultPlan.parse`::

    store.write:io_error          # first write raises an injected OSError
    store.write:torn@2            # 2nd write is torn (partial temp + error)
    store.payload:corrupt         # first payload is bit-flipped
    serve.execute:error@3*2       # serve executions 3 and 4 raise
    serve.request:timeout(0.4)    # first request stalls 400 ms
    store.rename:crash            # SIGKILL between temp write and publish

Multiple rules join with ``;`` (or ``,``).  The injected exceptions subclass
:class:`InjectedFault` so recovery code can tell a drill from the real thing
while still exercising the ``OSError``/``RuntimeError`` handling paths.
"""

from __future__ import annotations

import os
import re
import signal
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultPlanError",
    "FaultRule",
    "InjectedError",
    "InjectedFault",
    "InjectedIOError",
    "TornWrite",
    "active_plan",
    "bump",
    "fault_point",
    "install_plan",
    "resilience_counters",
    "reset_resilience_counters",
    "set_plan",
]

#: Process-lifetime recovery counters (always on, unlike the tracer):
#: every injected fault, retry, fallback and degradation increments one,
#: and ``python -m repro stats`` prints the non-zero ones.
_COUNTERS: Dict[str, int] = {}
_COUNTERS_LOCK = threading.Lock()


def bump(name: str, delta: int = 1) -> None:
    """Increment the process-lifetime resilience counter ``name``."""
    with _COUNTERS_LOCK:
        _COUNTERS[name] = _COUNTERS.get(name, 0) + delta


def resilience_counters() -> Dict[str, int]:
    """A snapshot of every resilience counter (injections, retries,
    fallbacks, degradations)."""
    with _COUNTERS_LOCK:
        return dict(_COUNTERS)


def reset_resilience_counters() -> None:
    """Zero the counters (tests)."""
    with _COUNTERS_LOCK:
        _COUNTERS.clear()

#: Supported fault kinds (see the module docstring for semantics).
FAULT_KINDS: Tuple[str, ...] = ("io_error", "torn", "corrupt", "error",
                                "timeout", "crash")


class FaultPlanError(ValueError):
    """A fault-plan spec string does not parse or names an unknown kind."""


class InjectedFault(Exception):
    """Marker base: the failure was injected by a plan, not the real world."""


class InjectedIOError(InjectedFault, OSError):
    """Injected I/O failure (``io_error`` and the tail of ``torn``)."""


class InjectedError(InjectedFault, RuntimeError):
    """Injected generic failure (``error``): a crashed worker, a broken
    compile — anything that dies with an exception rather than an errno."""


class TornWrite(InjectedFault):
    """Internal protocol exception of the ``torn`` kind.

    :func:`fault_point` raises it; the atomic writer in
    :mod:`repro.store.io` catches it, writes only ``keep_fraction`` of the
    payload to the temp file, deliberately leaves that debris on disk, and
    re-raises an :class:`InjectedIOError` — the observable behaviour of a
    process dying mid-write.
    """

    def __init__(self, keep_fraction: float = 0.5) -> None:
        super().__init__(f"torn write (keep {keep_fraction:.0%})")
        self.keep_fraction = keep_fraction


@dataclass(frozen=True)
class FaultRule:
    """One scheduled misfire: ``point`` fails as ``kind`` on hits
    ``[at, at + count)`` (1-based per-process hit numbering)."""

    point: str
    kind: str
    at: int = 1
    count: int = 1
    #: ``timeout`` kind: how long the stall lasts.
    seconds: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r} for point "
                f"{self.point!r}; choose one of {list(FAULT_KINDS)}")
        if self.at < 1:
            raise FaultPlanError(f"rule for {self.point!r}: @at must be >= 1")
        if self.count < 1:
            raise FaultPlanError(f"rule for {self.point!r}: *count must be "
                                 ">= 1")

    def fires_on(self, hit: int) -> bool:
        return self.at <= hit < self.at + self.count

    def spec(self) -> str:
        text = f"{self.point}:{self.kind}"
        if self.kind == "timeout":
            text = f"{self.point}:timeout({self.seconds:g})"
        if self.at != 1:
            text += f"@{self.at}"
        if self.count != 1:
            text += f"*{self.count}"
        return text


_RULE_RE = re.compile(
    r"^(?P<point>[A-Za-z0-9_.\-]+):(?P<kind>[a-z_]+)"
    r"(?:\((?P<seconds>[0-9.]+)\))?"
    r"(?:@(?P<at>\d+))?(?:\*(?P<count>\d+))?$"
)


class FaultPlan:
    """A seeded set of :class:`FaultRule`\\ s plus per-point hit counters.

    Hit counters are per *plan instance* (and therefore per process for
    env-installed plans), guarded by a lock so the serve pool's concurrent
    workers count deterministically in aggregate.
    """

    def __init__(self, rules: Sequence[FaultRule] = (), seed: int = 0) -> None:
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        self.seed = seed
        self._hits: Dict[str, int] = {}
        self._injected = 0
        self._lock = threading.Lock()

    # -- construction --------------------------------------------------------
    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse a plan spec string (see module docstring for the grammar)."""
        rules: List[FaultRule] = []
        for chunk in re.split(r"[;,]", spec):
            chunk = chunk.strip()
            if not chunk:
                continue
            match = _RULE_RE.match(chunk)
            if match is None:
                raise FaultPlanError(
                    f"bad fault rule {chunk!r}: expected "
                    "point:kind[(seconds)][@at][*count]")
            kwargs = dict(point=match.group("point"),
                          kind=match.group("kind"))
            if match.group("seconds") is not None:
                if kwargs["kind"] != "timeout":
                    raise FaultPlanError(
                        f"bad fault rule {chunk!r}: only timeout takes "
                        "(seconds)")
                kwargs["seconds"] = float(match.group("seconds"))
            if match.group("at") is not None:
                kwargs["at"] = int(match.group("at"))
            if match.group("count") is not None:
                kwargs["count"] = int(match.group("count"))
            rules.append(FaultRule(**kwargs))
        return cls(rules, seed=seed)

    def spec(self) -> str:
        """Round-trippable spec string of this plan."""
        return ";".join(rule.spec() for rule in self.rules)

    # -- accounting ----------------------------------------------------------
    def hits(self, point: Optional[str] = None) -> int:
        with self._lock:
            if point is not None:
                return self._hits.get(point, 0)
            return sum(self._hits.values())

    @property
    def injected(self) -> int:
        """How many faults this plan has fired so far."""
        return self._injected

    def reset(self) -> None:
        """Zero the hit counters (replay the plan from the start)."""
        with self._lock:
            self._hits.clear()
            self._injected = 0

    def _hit(self, point: str) -> Optional[FaultRule]:
        with self._lock:
            hit = self._hits.get(point, 0) + 1
            self._hits[point] = hit
            for rule in self.rules:
                if rule.point == point and rule.fires_on(hit):
                    self._injected += 1
                    return rule
            return None

    # -- payload corruption --------------------------------------------------
    def corrupt(self, payload: bytes, point: str, hit: int) -> bytes:
        """Deterministically flip one byte of ``payload`` (bit-rot model)."""
        if not payload:
            return payload
        # A tiny LCG keyed on (seed, point, hit): deterministic without
        # importing numpy here, and stable across processes.
        state = (self.seed * 1_000_003 + hash(point) % 65_521 + hit) & 0xFFFFFFFF
        state = (1103515245 * state + 12345) & 0x7FFFFFFF
        index = state % len(payload)
        flip = ((state >> 8) % 255) + 1      # never 0: the byte must change
        mutated = bytearray(payload)
        mutated[index] ^= flip
        return bytes(mutated)


# --------------------------------------------------------------------------- #
# The active plan (process-wide, environment-aware)
# --------------------------------------------------------------------------- #

#: Sentinel: the environment has not been consulted yet.
_UNSET = object()
_ACTIVE = _UNSET
_ACTIVE_LOCK = threading.Lock()


def active_plan() -> Optional[FaultPlan]:
    """The installed plan; reads ``REPRO_FAULT_PLAN`` once on first use.

    Returns ``None`` when fault injection is off (the overwhelmingly common
    case).  Child processes inherit the environment, so a plan set for a
    CI chaos run reaches every process that hits a fault point.
    """
    global _ACTIVE
    if _ACTIVE is _UNSET:
        with _ACTIVE_LOCK:
            if _ACTIVE is _UNSET:
                spec = os.environ.get("REPRO_FAULT_PLAN", "")
                _ACTIVE = FaultPlan.parse(spec) if spec.strip() else None
    return _ACTIVE


def set_plan(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Install ``plan`` process-wide (``None`` disables injection, including
    any ``REPRO_FAULT_PLAN`` environment plan); returns the previous plan."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = plan
    return None if previous is _UNSET else previous


def _reset_env_plan() -> None:
    """Forget the cached environment plan (tests that monkeypatch env)."""
    global _ACTIVE
    _ACTIVE = _UNSET


class install_plan:
    """Context manager scoping a plan: ``with install_plan(plan): ...``."""

    def __init__(self, plan: Optional[FaultPlan]) -> None:
        self.plan = plan
        self._previous = _UNSET

    def __enter__(self) -> Optional[FaultPlan]:
        global _ACTIVE
        self._previous = _ACTIVE
        _ACTIVE = self.plan
        return self.plan

    def __exit__(self, *exc) -> None:
        global _ACTIVE
        _ACTIVE = self._previous


# --------------------------------------------------------------------------- #
# The hook
# --------------------------------------------------------------------------- #


def fault_point(name: str, payload: Optional[bytes] = None) -> Optional[bytes]:
    """Declare a fault point; returns ``payload`` (possibly corrupted).

    With no plan installed this is one global read and a ``None`` check.
    When a rule fires:

    * ``io_error`` raises :class:`InjectedIOError`;
    * ``error`` raises :class:`InjectedError`;
    * ``torn`` raises :class:`TornWrite` (the atomic writer cooperates);
    * ``corrupt`` returns a deterministically bit-flipped payload;
    * ``timeout`` sleeps ``rule.seconds`` and returns normally;
    * ``crash`` SIGKILLs the process — the real thing, for crash-recovery
      tests driven from a parent process.
    """
    plan = active_plan()
    if plan is None:
        return payload
    rule = plan._hit(name)
    if rule is None:
        return payload
    from repro.obs.tracer import TRACER
    bump("faults.injected")
    TRACER.count("faults.injected")
    TRACER.event("fault.injected", cat="resilience", point=name,
                 kind=rule.kind)
    if rule.kind == "io_error":
        raise InjectedIOError(f"injected io_error at fault point '{name}'")
    if rule.kind == "error":
        raise InjectedError(f"injected error at fault point '{name}'")
    if rule.kind == "torn":
        raise TornWrite()
    if rule.kind == "timeout":
        time.sleep(rule.seconds)
        return payload
    if rule.kind == "crash":
        os.kill(os.getpid(), signal.SIGKILL)
    # corrupt
    if payload is not None:
        return plan.corrupt(payload, name, plan.hits(name))
    return payload
