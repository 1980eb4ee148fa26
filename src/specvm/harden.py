"""Whitelist-aware hardening passes: serializing fences and address masking.

Both passes take a program plus a set of branch ids (as "fn:block:idx"
strings) that analysis has cleared as benign, and instrument every other
conditional branch.

Fence pass: each edge of a protected branch begins with FENCE, so any
speculative path through the branch retires before doing work.  The
instruction is prepended in place when the edge is the target block's only
incoming edge (and the target is not a function entry); otherwise the edge
is routed through a fresh two-instruction trampoline block.

Masking pass: register r15 carries an all-ones poison mask, initialized
once at program entry, and r14 is used as address scratch; programs that
touch either register are rejected.  Each edge of a protected branch
re-derives the branch condition with setcc and multiplies the mask by the
result, so the mask collapses to zero exactly on mispredicted paths, and
every load and store goes through the mask, which redirects poisoned
accesses to the always-mapped scratch page.  The mask travels through
calls and returns like any register, so a misprediction in one function
also protects accesses the speculative path reaches in its callers and
callees.  Corrupted control transfers (bad jump-table indexes, smashed
return slots) are not in this pass's threat model; the fence pass covers
them.

Because inserted instructions shift positions, both passes return a map
from original branch ids to their ids in the hardened program.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

# verify_hardening calls engine.run_with_exposure and
# machine.run_architectural through their modules, so that wrappers
# installed on those modules (the benchmark's tracer) see the calls.
from . import engine, machine
from .detect import dedup_key
from .isa import (
    INVERSE_CC,
    BasicBlock,
    Cond,
    Imm,
    Instruction,
    InstructionId,
    Lab,
    Op,
    Program,
    Reg,
    validate,
)

MASK_REG = 15
SCRATCH_REG = 14
_ALL_ONES = (1 << 64) - 1

FENCE_MODE = "fence"
SLH_MODE = "slh"
MODES = (FENCE_MODE, SLH_MODE)


class HardenError(ValueError):
    pass


@dataclass
class HardenResult:
    program: Program
    summary: dict
    branch_map: dict[str, str]  # original BR iid -> hardened BR iid


def _reserved_register_used(program: Program) -> str | None:
    for iid, ins in program.iter_instructions():
        for op in ins.ops:
            if isinstance(op, Reg) and op.n in (MASK_REG, SCRATCH_REG):
                return str(iid)
    return None


def _in_degree(blocks: list[BasicBlock]) -> Counter:
    """label -> number of BR, JMP and JTAB edges that enter it: the label
    operands of the blocks' terminators."""
    return Counter(o.name for b in blocks for o in b.instrs[-1].ops
                   if isinstance(o, Lab))


def _edge_payload(mode: str, cc: str) -> list[Instruction]:
    if mode == FENCE_MODE:
        return [Instruction(Op.FENCE, ())]
    return [
        Instruction(Op.SETCC, (Reg(SCRATCH_REG), Cond(cc))),
        Instruction(Op.MUL, (Reg(MASK_REG), Reg(MASK_REG), Reg(SCRATCH_REG))),
    ]


def _masked_access(ins: Instruction) -> list[Instruction]:
    val, base, off = ins.ops
    return [
        Instruction(Op.ADD, (Reg(SCRATCH_REG), base, Imm(off.v))),
        Instruction(Op.AND, (Reg(SCRATCH_REG), Reg(SCRATCH_REG), Reg(MASK_REG))),
        Instruction(ins.op, (val, Reg(SCRATCH_REG), Imm(0))),
    ]


def _fresh_label(base: str, used: set[str]) -> str:
    n = 0
    while True:
        cand = f"{base}__v{n}"
        if cand not in used:
            used.add(cand)
            return cand
        n += 1


def _instrument(program: Program, whitelist: set[str], mode: str) -> HardenResult:
    if mode == SLH_MODE:
        used_at = _reserved_register_used(program)
        if used_at is not None:
            raise HardenError(f"mask-register-in-use at {used_at}")

    new_functions: dict[str, list[BasicBlock]] = {}
    branch_map: dict[str, str] = {}
    summary = {
        "mode": mode,
        "branches_total": 0,
        "branches_hardened": 0,
        "whitelisted": 0,
        "edges_in_place": 0,
        "trampolines": 0,
        "loads_masked": 0,
        "stores_masked": 0,
    }

    for fn, blocks in program.functions.items():
        entry_label = blocks[0].label
        in_degree = _in_degree(blocks)
        labels_used = {b.label for b in blocks}

        # Plan: which blocks receive a prepend, which edges go through
        # trampolines, and what each BR's rewritten labels are.
        prepends: dict[str, list[Instruction]] = {}
        retarget: dict[tuple[str, int, bool], str] = {}  # (block, idx, taken) -> label
        trampolines: list[BasicBlock] = []

        for b in blocks:
            term = b.instrs[-1]
            if term.op is not Op.BR:
                continue
            idx = len(b.instrs) - 1
            iid = str(InstructionId(fn, b.label, idx))
            summary["branches_total"] += 1
            if iid in whitelist:
                summary["whitelisted"] += 1
                continue
            summary["branches_hardened"] += 1
            cc = term.ops[0].cc
            for taken, target, edge_cc in (
                (True, term.ops[1].name, cc),
                (False, term.ops[2].name, INVERSE_CC[cc]),
            ):
                payload = _edge_payload(mode, edge_cc)
                # This edge enters target, so it is the only one iff
                # target's in-degree is 1.
                if in_degree[target] == 1 and target != entry_label:
                    prepends[target] = payload
                    summary["edges_in_place"] += 1
                else:
                    lab = _fresh_label(target, labels_used)
                    trampolines.append(BasicBlock(lab, payload + [
                        Instruction(Op.JMP, (Lab(target),))]))
                    retarget[(b.label, idx, taken)] = lab
                    summary["trampolines"] += 1

        # Apply: rebuild every block, tracking index movement.
        rebuilt: list[BasicBlock] = []
        for b in blocks:
            out: list[Instruction] = []
            if mode == SLH_MODE and fn == program.entry and b.label == entry_label:
                out.append(Instruction(Op.CONST, (Reg(MASK_REG), Imm(_ALL_ONES))))
            out.extend(prepends.get(b.label, ()))
            for idx, ins in enumerate(b.instrs):
                if mode == SLH_MODE and ins.op in (Op.LOAD, Op.STORE):
                    new_idx = len(out) + 2  # the access is last in its triple
                    out.extend(_masked_access(ins))
                    key = "loads_masked" if ins.op is Op.LOAD else "stores_masked"
                    summary[key] += 1
                    continue
                if ins.op is Op.BR:
                    new_idx = len(out)
                    branch_map[str(InstructionId(fn, b.label, idx))] = str(
                        InstructionId(fn, b.label, new_idx))
                    t_lab = retarget.get((b.label, idx, True), ins.ops[1].name)
                    f_lab = retarget.get((b.label, idx, False), ins.ops[2].name)
                    out.append(Instruction(Op.BR, (ins.ops[0], Lab(t_lab), Lab(f_lab))))
                    continue
                out.append(ins)
            rebuilt.append(BasicBlock(b.label, out))
        rebuilt.extend(trampolines)
        new_functions[fn] = rebuilt

    hardened = Program(new_functions, program.entry, program.data)
    problems = validate(hardened)
    if problems:
        raise HardenError(f"instrumented program failed validation: {problems}")
    return HardenResult(hardened, summary, branch_map)


def fence_pass(program: Program, whitelist: set[str] | None = None) -> HardenResult:
    """Place a FENCE at the head of every edge of each non-whitelisted
    conditional branch."""
    return _instrument(program, whitelist or set(), FENCE_MODE)


def slh_pass(program: Program, whitelist: set[str] | None = None) -> HardenResult:
    """Poison an all-ones mask on mispredicted edges of non-whitelisted
    branches and route every data access through it."""
    return _instrument(program, whitelist or set(), SLH_MODE)


def verify_hardening(original: Program, result: HardenResult,
                     inputs: list[bytes], config=None) -> dict:
    """Check a hardening result against the original program.

    Architectural equivalence: on every input both programs must reach the
    same final state, ignoring the two reserved registers and the stack
    region (return slots encode instruction positions, which instrumenting
    shifts).  Residual exposure: the hardened program is run with full
    simulation depth, every branch at ``max_order``, on every input and
    the dedup keys of all surviving violations are reported.
    """
    cfg = config or engine.SpecConfig()
    mismatches = []
    residual: set = set()
    original_image = machine.ExecImage(original)
    hardened_image = machine.ExecImage(result.program)
    for inp in inputs:
        ra = machine.run_architectural(original_image, inp, max_steps=cfg.max_steps)
        rh = machine.run_architectural(hardened_image, inp, max_steps=cfg.max_steps)
        fa = ra.state_fingerprint(skip_regs=(MASK_REG, SCRATCH_REG), skip_stack=True)
        fh = rh.state_fingerprint(skip_regs=(MASK_REG, SCRATCH_REG), skip_stack=True)
        if fa != fh or (ra.fault is None) != (rh.fault is None):
            mismatches.append(inp)
        trace = engine.run_with_exposure(hardened_image, inp, cfg)
        residual.update(dedup_key(rec) for rec in trace.records)
    return {
        "preserved": not mismatches,
        "mismatches": mismatches,
        "residual_keys": sorted(residual),
    }


__all__ = [
    "MASK_REG", "SCRATCH_REG", "FENCE_MODE", "SLH_MODE", "MODES",
    "HardenError", "HardenResult", "fence_pass", "slh_pass", "verify_hardening",
]
