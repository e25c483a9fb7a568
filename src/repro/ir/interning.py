"""Hash-consing (interning) support for immutable IR value objects.

Types and attributes are immutable value objects that compare structurally.
The compiler allocates them constantly — every operand check, every attribute
wrap, every ``IntegerType(32)`` in a builder — so the fast compile path
interns them: constructing a type or attribute that already exists returns
the canonical instance.  Equality checks then hit the identity fast path
(``a is b``), dict lookups short-circuit, and allocation churn disappears.

Two caches per class:

* a call-signature cache ``(args, kwargs) -> instance`` for the common case
  where the same literal construction repeats, and
* a canonical map ``instance -> instance`` (keyed by the dataclass's
  structural hash/eq) so different spellings of the same value
  (``IntegerType(32)`` vs ``IntegerType(width=32)``) still unify.

Construction with unhashable arguments falls back to a plain (uninterned)
instance, preserving behaviour for exotic call sites.  Invalid constructions
still raise from ``__post_init__`` before anything is cached.

The caches are process-global and deliberately unbounded: like an MLIR
context's uniqued storage, they grow with the number of *distinct* values
ever constructed, which is bounded by program content (widths, constants,
shapes) — not by the number of compiles, since compilers must never encode
per-run-unique payloads (e.g. ``id()`` values) into attributes.  Long-lived
test harnesses can reset them with :func:`clear_intern_caches`; eviction is
always safe because structural ``__eq__``/``__hash__`` remain the source of
truth and identity is only ever a fast path.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple


class HashConsMeta(type):
    """Metaclass interning instances of immutable (frozen dataclass) classes."""

    def __new__(mcls, name, bases, namespace, **kwargs):
        cls = super().__new__(mcls, name, bases, namespace, **kwargs)
        # Per-class caches (never inherited: each class keys on its own args).
        cls._intern_by_args: Dict[Tuple, Any] = {}
        cls._intern_canonical: Dict[Any, Any] = {}
        return cls

    def __call__(cls, *args, **kwargs):
        if cls.__dict__.get("INTERN_EXEMPT", False):
            # Classes whose payloads have equal-but-distinguishable values
            # (floats: 0.0 == -0.0 but they print differently) opt out, so
            # canonicalisation can never swap one spelling for the other.
            return super().__call__(*args, **kwargs)
        by_args = cls._intern_by_args
        try:
            key = (args, tuple(sorted(kwargs.items()))) if kwargs else args
            hit = by_args.get(key)
        except TypeError:
            # Unhashable argument (e.g. a list): construct without interning.
            return super().__call__(*args, **kwargs)
        if hit is not None:
            return hit
        instance = super().__call__(*args, **kwargs)
        try:
            canonical = cls._intern_canonical.setdefault(instance, instance)
        except TypeError:
            return instance
        by_args[key] = canonical
        return canonical


def clear_intern_caches(cls: type) -> None:
    """Drop the intern caches of ``cls`` (tests only; instances stay valid)."""
    getattr(cls, "_intern_by_args", {}).clear()
    getattr(cls, "_intern_canonical", {}).clear()
