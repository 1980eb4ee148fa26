"""Exhaustive ground truth for speculation exposure.

This module deliberately shares almost nothing with engine.py: it reuses
only the instruction set, the single-step interpreter and the machine
copy, and takes its default window, stride and retire reasons from the
engine's constants, and the checks on its bounds from SpecConfig, so that
both sides default, validate and report alike.  Instead of checkpoints
and rollback it enumerates forced-outcome scripts.  One architectural
pass runs the program; at each branch occurrence it runs that root's
scripts, each on its own ``Machine.fork`` of the pass's machine, then
steps the branch and goes on.  It collects every violation each script
surfaces.

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

from .detect import DEFAULT_IDENTITY, IDENTITY_MODES, SpecContext, ViolationRecord
from .engine import (
    DEFAULT_STRIDE,
    DEFAULT_WINDOW,
    RETIRE_FAULT,
    RETIRE_FENCE,
    RETIRE_HALT,
    RETIRE_WINDOW,
    SpecConfig,
)
from .isa import Program
from .machine import (
    DEFAULT_MAX_STEPS,
    O_BR,
    O_CALL,
    O_FENCE,
    O_JMP,
    O_JTAB,
    O_RET,
    OUT_HALT,
    ExecImage,
    Machine,
)

SCRIPT_LIMIT = 1 << 16
ORACLE_MAX_ORDER = 1

# The opcodes that, when they complete, leave pc at the start of the block
# they entered.
_ENTERS_BLOCK = (O_BR, O_JMP, O_JTAB, O_CALL)


class OracleError(RuntimeError):
    pass


@dataclass(frozen=True)
class ScriptOutcome:
    """One forced-outcome script and what its speculative path did."""

    root: str  # branch iid whose architectural outcome is inverted
    occurrence: int  # 1-based architectural occurrence of that branch
    forced: tuple[int, ...]  # later encounter indices also inverted
    blocks: tuple[int, ...]  # ExecImage block indices entered speculatively
    retire: str
    encounters: int  # branch encounters seen on the speculative path


@dataclass
class OracleOutcome:
    records: list[ViolationRecord]
    keys: set  # (offending, branches, kind, identity)
    scripts: list[ScriptOutcome]


def _run_script(m: Machine, root: str, occurrence: int, forced: tuple[int, ...],
                window: int, stride: int) -> tuple[ScriptOutcome, list[ViolationRecord]]:
    """Invert the outcome of the BR that m stands at, then follow the
    speculative path applying the script.  m is used up."""
    image = m.image
    code = image.code
    iid_str = image.iid_str
    block_of = image.block_of
    ctx = SpecContext()
    ctx.branches.append(root)
    forced_set = set(forced)
    target = m.force_branch(m.pc, invert=True)
    blocks: list[int] = [target]
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
                blocks.append(target)
                remaining = image.block_lens[target]
                budget = 0
                continue
        out = m.step(ctx)
        if out:
            retire = RETIRE_HALT if out == OUT_HALT else RETIRE_FAULT
            break
        if op in _ENTERS_BLOCK:
            if op == O_CALL:
                acct.append((remaining, budget))
            target = block_of[m.pc]
            blocks.append(target)
            remaining = image.block_lens[target]
            budget = 0
        elif op == O_RET:
            if acct:
                remaining, budget = acct.pop()
            else:
                remaining, budget = 0, 0
    outcome = ScriptOutcome(root, occurrence, forced, tuple(blocks), retire,
                            encounter)
    return outcome, ctx.records


def enumerate_paths(program: Program | ExecImage, input_bytes: bytes = b"",
                    max_order: int = ORACLE_MAX_ORDER,
                    window: int = DEFAULT_WINDOW, stride: int = DEFAULT_STRIDE,
                    max_steps: int = DEFAULT_MAX_STEPS,
                    identity: str = DEFAULT_IDENTITY,
                    script_limit: int = SCRIPT_LIMIT) -> OracleOutcome:
    """Enumerate every speculative path up to max_order nested inversions and
    return the union of violations along with per-script outcomes."""
    # The engine's bounds, checked by SpecConfig: with stride 0 a path never
    # charges its window, so a speculative loop would never retire.
    SpecConfig(window=window, stride=stride, max_order=max_order,
               max_steps=max_steps)
    if identity not in IDENTITY_MODES:
        raise ValueError(f"unknown identity mode {identity!r}")
    image = program if isinstance(program, ExecImage) else ExecImage(program)
    records: list[ViolationRecord] = []
    keys: set = set()
    scripts: list[ScriptOutcome] = []
    seen: dict[str, int] = {}
    code = image.code
    m = Machine(image, input_bytes)
    steps = 0
    while steps < max_steps:
        pc = m.pc
        if code[pc][0] == O_BR:
            root = image.iid_str[pc]
            occurrence = seen[root] = seen.get(root, 0) + 1
            # Incremental frontier of scripts for this tree.
            frontier: list[tuple[int, ...]] = [()]
            while frontier:
                forced = frontier.pop()
                if len(scripts) >= script_limit:
                    raise OracleError("enumeration-too-large")
                outcome, recs = _run_script(m.fork(input_bytes), root, occurrence,
                                            forced, window, stride)
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
        if m.step(None):
            break
        steps += 1
    return OracleOutcome(records, keys, scripts)


__all__ = [
    "SCRIPT_LIMIT", "ORACLE_MAX_ORDER", "OracleError", "ScriptOutcome",
    "OracleOutcome", "enumerate_paths",
]
