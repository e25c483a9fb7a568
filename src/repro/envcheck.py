"""Fail-fast validation of the ``REPRO_*`` environment variables.

The library deliberately *tolerates* malformed environment values (a busted
``REPRO_SIM_CACHE_SIZE`` silently falls back to its default so an import
never fails), but the CLI should not: a typo in a tuning knob that silently
reverts to the default is the kind of quiet misconfiguration that wastes an
afternoon.
``python -m repro`` therefore validates the whole environment once at parse
time and exits with a one-line error (status 2) before doing any work.

:func:`validate_environment` is pure (pass any mapping), so tests can probe
it without touching the real environment.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Mapping, Optional

__all__ = ["VALIDATED_VARS", "validate_environment", "environment_error"]


def _positive_int(value: str) -> Optional[str]:
    try:
        parsed = int(value)
    except ValueError:
        return f"expected a positive integer, got {value!r}"
    if parsed < 1:
        return f"expected a positive integer, got {parsed}"
    return None


def _non_negative_int(value: str) -> Optional[str]:
    try:
        parsed = int(value)
    except ValueError:
        return f"expected a non-negative integer, got {value!r}"
    if parsed < 0:
        return f"expected a non-negative integer, got {parsed}"
    return None


def _positive_float(value: str) -> Optional[str]:
    try:
        parsed = float(value)
    except ValueError:
        return f"expected a positive number of seconds, got {value!r}"
    if not parsed > 0:
        return f"expected a positive number of seconds, got {value!r}"
    return None


def _engine(value: str) -> Optional[str]:
    from repro.sim import available_engines
    engines = available_engines()
    if value not in engines:
        return f"expected one of {', '.join(engines)}; got {value!r}"
    return None


def _store_dir(value: str) -> Optional[str]:
    # Blank disables persistence; a usable value must not name an existing
    # non-directory (the store would clobber or trip over it much later).
    if not value.strip():
        return None
    if os.path.exists(value) and not os.path.isdir(value):
        return f"{value!r} exists and is not a directory"
    return None


def _serve_url(value: str) -> Optional[str]:
    from urllib.parse import urlparse
    if not value.strip():
        return None
    parsed = urlparse(value)
    if parsed.scheme not in ("http", "https") or not parsed.netloc:
        return (f"expected an http(s)://host:port URL, got {value!r}")
    return None


def _fault_plan(value: str) -> Optional[str]:
    from repro.resilience import FaultPlan, FaultPlanError
    try:
        FaultPlan.parse(value)
    except FaultPlanError as error:
        return str(error)
    return None


#: Variable name -> validator returning an error string (or None if fine).
VALIDATED_VARS: Dict[str, Callable[[str], Optional[str]]] = {
    "REPRO_SIM_CACHE_SIZE": _non_negative_int,
    "REPRO_SIM_ENGINE": _engine,
    "REPRO_STORE_DIR": _store_dir,
    "REPRO_FAULT_PLAN": _fault_plan,
    "REPRO_SERVE_WORKERS": _positive_int,
    "REPRO_SERVE_TIMEOUT": _positive_float,
    "REPRO_SERVE_URL": _serve_url,
}


def validate_environment(
        environ: Optional[Mapping[str, str]] = None) -> List[str]:
    """Every problem with the ``REPRO_*`` variables in ``environ``.

    Unset variables are fine (they mean "inherit the default"); set ones
    must parse.  Returns one ``"NAME: problem"`` string per bad variable,
    in a stable (sorted) order; an empty list means the environment is
    clean.
    """
    environ = os.environ if environ is None else environ
    problems: List[str] = []
    for name in sorted(VALIDATED_VARS):
        value = environ.get(name)
        if value is None:
            continue
        problem = VALIDATED_VARS[name](value)
        if problem is not None:
            problems.append(f"{name}: {problem}")
    return problems


def environment_error(
        environ: Optional[Mapping[str, str]] = None) -> Optional[str]:
    """A one-line description of the first environment problem, or None."""
    problems = validate_environment(environ)
    if not problems:
        return None
    suffix = "" if len(problems) == 1 else \
        f" (+{len(problems) - 1} more problem(s))"
    return f"invalid environment: {problems[0]}{suffix}"
