"""Exhaustive ground truth for speculation exposure.

This module deliberately shares almost nothing with engine.py: it reuses
only the instruction set and the single-step interpreter, and takes its
default window and stride from the engine's constants so that both sides
default alike.  Instead of
checkpoints and rollback it enumerates forced-outcome scripts, one full
re-execution from program start per script, and collects every violation
each script surfaces.

A script names one architectural branch occurrence as its root (that
outcome is inverted) plus an ascending list of later speculative branch
encounters that are also inverted, at most ``max_order`` inversions in
total.  Scripts are grown incrementally: run one, observe which branch
encounters its speculative path contains, and extend it by each encounter
past the last forced one.  The union over all scripts of every violation,
tagged with the stack of inversions active when it fired, is exactly what
the checkpoint engine should produce, which makes the two independently
written implementations cross-check each other.
"""

from __future__ import annotations

from dataclasses import dataclass

from .detect import SpecContext, ViolationRecord
from .engine import DEFAULT_STRIDE, DEFAULT_WINDOW
from .isa import Program
from .machine import (
    DEFAULT_MAX_STEPS,
    O_BR,
    O_CALL,
    O_FENCE,
    O_RET,
    OUT_FAULT,
    OUT_HALT,
    ExecImage,
    Machine,
    MemLayout,
)

SCRIPT_LIMIT = 1 << 16

RETIRE_FENCE = "fence"
RETIRE_HALT = "halt"
RETIRE_FAULT = "fault"
RETIRE_WINDOW = "window"


class OracleError(RuntimeError):
    pass


@dataclass(frozen=True)
class ScriptOutcome:
    """One forced-outcome script and what its speculative path did."""

    root: str  # branch iid whose architectural outcome is inverted
    occurrence: int  # 1-based architectural occurrence of that branch
    forced: tuple[int, ...]  # later encounter indices also inverted
    blocks: tuple[str, ...]  # "fn:label" of blocks entered speculatively
    retire: str
    encounters: int  # branch encounters seen on the speculative path


@dataclass
class OracleOutcome:
    records: list[ViolationRecord]
    keys: set  # (offending, branches, kind, identity)
    scripts: list[ScriptOutcome]

    def block_paths(self, root: str, occurrence: int = 1) -> set[tuple[str, ...]]:
        """Census of speculative block paths for one tree."""
        return {s.blocks for s in self.scripts
                if s.root == root and s.occurrence == occurrence}


def _arch_roots(image: ExecImage, input_bytes: bytes, max_steps: int,
                layout: MemLayout | None) -> list[tuple[str, int]]:
    """Every (branch iid, occurrence) executed architecturally, in order."""
    m = Machine(image, input_bytes, layout)
    roots: list[tuple[str, int]] = []
    seen: dict[str, int] = {}
    code = image.code
    steps = 0
    while steps < max_steps:
        pc = m.pc
        if code[pc][0] == O_BR:
            iid = image.iid_str[pc]
            occ = seen.get(iid, 0) + 1
            seen[iid] = occ
            roots.append((iid, occ))
        if m.step(None) != 0:
            break
        steps += 1
    return roots


def _run_script(image: ExecImage, input_bytes: bytes, root: str, occurrence: int,
                forced: tuple[int, ...], window: int, stride: int,
                max_steps: int, layout: MemLayout | None) -> tuple[ScriptOutcome, list[ViolationRecord]]:
    """Re-execute from program start, invert the root's outcome at its given
    occurrence, then follow the speculative path applying the script."""
    m = Machine(image, input_bytes, layout)
    code = image.code
    iid_str = image.iid_str

    # Architectural prefix up to the root occurrence.
    occ = 0
    steps = 0
    while True:
        if steps >= max_steps:
            raise OracleError(f"root {root}@{occurrence} not reached")
        pc = m.pc
        if code[pc][0] == O_BR and iid_str[pc] == root:
            occ += 1
            if occ == occurrence:
                break
        if m.step(None) != 0:
            raise OracleError(f"root {root}@{occurrence} not reached")
        steps += 1

    # Speculative path.
    ctx = SpecContext()
    ctx.branches.append(root)
    forced_set = set(forced)
    target = m.force_branch(m.pc, invert=True)
    blocks: list[str] = [_block_name(image, target)]
    counter = 0
    remaining = image.block_lens[target]
    budget = 0
    acct: list[tuple[int, int]] = []
    encounter = 0
    retire = RETIRE_WINDOW
    while True:
        pc = m.pc
        op = code[pc][0]
        if op == O_FENCE:
            retire = RETIRE_FENCE
            break
        if budget == 0:
            if counter >= window:
                retire = RETIRE_WINDOW
                break
            if remaining > 0:
                chunk = min(stride, remaining)
                remaining -= chunk
            else:
                chunk = 1  # resumed mid-block with no prepaid budget
            counter += chunk
            budget = chunk
        budget -= 1
        if op == O_BR:
            encounter += 1
            if encounter in forced_set:
                ctx.branches.append(iid_str[pc])
                target = m.force_branch(pc, invert=True)
                blocks.append(_block_name(image, target))
                remaining = image.block_lens[target]
                budget = 0
                continue
        was_call = op == O_CALL
        out = m.step(ctx)
        if out == OUT_HALT:
            retire = RETIRE_HALT
            break
        if out == OUT_FAULT:
            retire = RETIRE_FAULT
            break
        if m.entered_block >= 0:
            if was_call:
                acct.append((remaining, budget))
            blocks.append(_block_name(image, m.entered_block))
            remaining = image.block_lens[m.entered_block]
            budget = 0
        elif op == O_RET:
            if acct:
                remaining, budget = acct.pop()
            else:
                remaining, budget = 0, 0
    outcome = ScriptOutcome(root, occurrence, forced, tuple(blocks), retire,
                            encounter)
    return outcome, ctx.records


def _block_name(image: ExecImage, block: int) -> str:
    _, _, fn, label = image.blocks[block]
    return f"{fn}:{label}"


def enumerate_paths(program: Program | ExecImage, input_bytes: bytes = b"",
                    max_order: int = 1, window: int = DEFAULT_WINDOW,
                    stride: int = DEFAULT_STRIDE,
                    max_steps: int = DEFAULT_MAX_STEPS, identity: str = "offset",
                    script_limit: int = SCRIPT_LIMIT,
                    layout: MemLayout | None = None) -> OracleOutcome:
    """Enumerate every speculative path up to max_order nested inversions and
    return the union of violations along with per-script outcomes."""
    image = program if isinstance(program, ExecImage) else ExecImage(program)
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    records: list[ViolationRecord] = []
    keys: set = set()
    scripts: list[ScriptOutcome] = []
    total = 0
    for root, occurrence in _arch_roots(image, input_bytes, max_steps, layout):
        # Incremental frontier of scripts for this tree.
        frontier: list[tuple[int, ...]] = [()]
        while frontier:
            forced = frontier.pop()
            total += 1
            if total > script_limit:
                raise OracleError("enumeration-too-large")
            outcome, recs = _run_script(image, input_bytes, root, occurrence,
                                        forced, window, stride, max_steps,
                                        layout)
            scripts.append(outcome)
            for r in recs:
                k = (r.offending, r.branches, r.kind, r.identity(identity))
                if k not in keys:
                    keys.add(k)
                    records.append(r)
            if 1 + len(forced) < max_order:
                start = forced[-1] + 1 if forced else 1
                for k in range(start, outcome.encounters + 1):
                    frontier.append(forced + (k,))
    return OracleOutcome(records, keys, scripts)


__all__ = [
    "SCRIPT_LIMIT", "RETIRE_FENCE", "RETIRE_HALT", "RETIRE_FAULT",
    "RETIRE_WINDOW", "OracleError", "ScriptOutcome", "OracleOutcome",
    "enumerate_paths",
]
