"""Shrinking: bisect a failing program down to a minimal reproducer.

Works on the :class:`ProgramSpec`, never on materialized IR — every candidate
reduction is a *valid* spec by construction, so re-checking it is just
re-running the oracles.  The strategy is classic delta debugging over the
compute-op list (remove exponentially shrinking chunks, rewiring users of a
removed op to its first operand) interleaved with structural reductions:

* replace an output's written value with a plain input read or the
  induction variable,
* drop surplus outputs, then unused trailing inputs,
* collapse the loop nest (rank 2 → 1), shrink extents toward 2 and the
  initiation interval toward 1,
* replace exotic iteration/read offsets and output ports with the defaults,
* simplify constants to ``1``.

A reduction is kept only while the program *still fails the same oracle*;
matching on the oracle name (not the message) lets addresses and diff
excerpts drift during shrinking without letting the bug change identity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, List, Optional, Set, Tuple

from repro.fuzz.oracles import ORACLES, OracleFailure, check_program
from repro.fuzz.spec import OpSpec, ProgramSpec, SpecError, is_const_ref

#: Upper bound on oracle re-runs during one shrink (keeps worst cases sane).
DEFAULT_MAX_CHECKS = 250


@dataclass
class ShrinkResult:
    """Outcome of one shrink: the minimal spec plus bookkeeping."""

    spec: ProgramSpec
    failure: OracleFailure
    checks: int
    removed_ops: int


def remove_ops(spec: ProgramSpec, removed: Set[int]) -> ProgramSpec:
    """``spec`` without the ops at ``removed`` indices.

    References to a removed op are rewired to its first operand (chasing
    chains of removed ops), which is always defined earlier, so the result
    stays a well-formed DAG.
    """

    def resolve(ref: str) -> str:
        while ref.startswith("op") and int(ref[2:]) in removed:
            ref = spec.ops[int(ref[2:])].operands[0]
        return ref

    renumber = {}
    kept: List[OpSpec] = []
    for index, op in enumerate(spec.ops):
        if index in removed:
            continue
        renumber[index] = len(kept)
        kept.append(op)

    def remap(ref: str) -> str:
        ref = resolve(ref)
        if ref.startswith("op"):
            return f"op{renumber[int(ref[2:])]}"
        return ref

    new_ops = tuple(
        replace(op, operands=tuple(remap(ref) for ref in op.operands))
        for op in kept
    )
    new_writes = tuple(
        replace(write, value=remap(write.value)) for write in spec.writes
    )
    return replace(spec, ops=new_ops, writes=new_writes)


def _ddmin_ops(spec: ProgramSpec, still_fails) -> ProgramSpec:
    """Delta-debug the op list: drop exponentially shrinking chunks."""
    chunk = max(1, len(spec.ops) // 2)
    while chunk >= 1 and spec.ops:
        index = 0
        while index < len(spec.ops):
            removed = set(range(index, min(index + chunk, len(spec.ops))))
            candidate = remove_ops(spec, removed)
            if still_fails(candidate):
                spec = candidate
                # Same index now holds the next chunk; don't advance.
            else:
                index += chunk
        if chunk == 1:
            break
        chunk = chunk // 2
    return spec


def _structural_candidates(spec: ProgramSpec) -> Iterable[ProgramSpec]:
    """One-step structural reductions, roughly most-aggressive first."""
    # Collapse the nest to a single loop.
    if spec.rank > 1:
        yield replace(
            spec,
            sizes=spec.sizes[-1:],
            iter_offsets=spec.loop_iter_offsets()[-1:],
            writes=tuple(replace(w, index_perm=(0,)) for w in spec.writes),
        )
    # Fewer outputs.
    if spec.n_outputs > 1:
        yield replace(spec, n_outputs=spec.n_outputs - 1,
                      writes=spec.writes[:-1],
                      output_ports=spec.ports_of_outputs()[:-1])
    # Drop a trailing input no remaining reference uses.
    if spec.n_inputs > 1 and f"in{spec.n_inputs - 1}" not in spec.referenced():
        yield replace(spec, n_inputs=spec.n_inputs - 1,
                      read_offsets=spec.input_read_offsets()[:-1])
    # Cheaper schedules.
    if spec.ii > 1:
        yield replace(spec, ii=1)
    if any(offset != 1 for offset in spec.loop_iter_offsets()):
        yield replace(spec, iter_offsets=(1,) * spec.rank)
    if any(offset != 0 for offset in spec.input_read_offsets()):
        yield replace(spec, read_offsets=(0,) * spec.n_inputs)
    if any(port != "w" for port in spec.ports_of_outputs()):
        yield replace(spec, output_ports=("w",) * spec.n_outputs)
    # Smaller extents.
    if any(size > 2 for size in spec.sizes):
        yield replace(spec,
                      sizes=tuple(max(2, size // 2) for size in spec.sizes))
    # Retarget writes at earlier op results: keeping a *shorter* use-chain
    # alive lets the next ddmin round delete the ops past the new target
    # (a dead chain would be DCE'd identically by both pipelines and stop
    # reproducing, so simply truncating the op list cannot get there).
    for index, write in enumerate(spec.writes):
        for target in range(len(spec.ops)):
            if write.value != f"op{target}":
                writes = list(spec.writes)
                writes[index] = replace(write, value=f"op{target}")
                yield replace(spec, writes=tuple(writes))
    # Simpler written values.
    for index, write in enumerate(spec.writes):
        for simpler in ("in0", "iv"):
            if write.value != simpler:
                writes = list(spec.writes)
                writes[index] = replace(write, value=simpler)
                yield replace(spec, writes=tuple(writes))
    # Simpler constants.
    simplified = _simplify_constants(spec)
    if simplified is not None:
        yield simplified


def _simplify_constants(spec: ProgramSpec) -> Optional[ProgramSpec]:
    def simplify(ref: str) -> str:
        return "c:1" if is_const_ref(ref) and ref != "c:1" else ref

    ops = tuple(replace(op, operands=tuple(simplify(r) for r in op.operands))
                for op in spec.ops)
    writes = tuple(replace(w, value=simplify(w.value)) for w in spec.writes)
    if ops == spec.ops and writes == spec.writes:
        return None
    return replace(spec, ops=ops, writes=writes)


def shrink(spec: ProgramSpec, failure: OracleFailure,
           oracles: Tuple[str, ...] = ORACLES,
           max_checks: int = DEFAULT_MAX_CHECKS,
           check: Optional[Callable[[ProgramSpec], Optional[OracleFailure]]] = None,
           ) -> ShrinkResult:
    """Minimize ``spec`` while it keeps failing ``failure.oracle``.

    ``check`` defaults to :func:`repro.fuzz.oracles.check_program`; tests
    inject predicates here.  The original spec is returned unchanged if no
    reduction reproduces the failure (or the check budget runs out).
    """
    checker = check or (lambda candidate: check_program(candidate, oracles))
    budget = {"left": max_checks}
    last_failure = {"failure": failure}
    original_ops = len(spec.ops)

    def still_fails(candidate: ProgramSpec) -> bool:
        if budget["left"] <= 0:
            return False
        budget["left"] -= 1
        try:
            result = checker(candidate)
        except SpecError:
            return False
        if result is not None and result.oracle == failure.oracle:
            last_failure["failure"] = result
            return True
        return False

    changed = True
    while changed and budget["left"] > 0:
        changed = False
        reduced = _ddmin_ops(spec, still_fails)
        if len(reduced.ops) < len(spec.ops):
            spec = reduced
            changed = True
        for candidate in _structural_candidates(spec):
            if budget["left"] <= 0:
                break
            if still_fails(candidate):
                spec = candidate
                changed = True
                break  # restart: candidates depend on the current spec

    return ShrinkResult(
        spec=spec,
        failure=last_failure["failure"],
        checks=max_checks - budget["left"],
        removed_ops=original_ops - len(spec.ops),
    )


__all__ = ["DEFAULT_MAX_CHECKS", "ShrinkResult", "remove_ops", "shrink"]
