"""Threaded handlers against the reference stepper, in lockstep.

Two machines run the same program and input: one through Machine.step (the
per-instruction handlers), one through refstep.reference_step.  After every
instruction the outcome, the Fault included, and the whole machine state
must agree, and after a completed control transfer pc must be the start of
the block the reference entered.
Speculative runs hand each machine its own SpecContext and at random
branches force both down the inverted outcome, as the exposure engine
does, so the access and fault policy hooks and the write log are compared
too: the log's length and last entry after every step, the whole log at
the end.  The kind and branch tables that the exposure engine's loops
dispatch on are checked against the decoded code and against what each
step does.  Corner programs take the LOAD and STORE handlers' in-bounds
heap fast path to each edge of an allocation, and one test drops an
allocation as a rollback does before accessing it.
"""

import random

import pytest

from genprog import random_input, random_program
from refspec import alloc_restore, alloc_snapshot
from refstep import _cc_eval, reference_step
from specvm.detect import SpecContext
from specvm.gadgets import builtin_gadget, gadget_ids
from specvm.harden import fence_pass, slh_pass
from specvm.isa import Op, parse_program
from specvm.machine import (
    F_OOB,
    K_BR,
    K_CALL,
    K_FENCE,
    K_JUMP,
    K_PLAIN,
    K_RET,
    KIND_OF_OP,
    O_BR,
    O_CALL,
    O_FENCE,
    O_JMP,
    O_JTAB,
    O_RET,
    OUT_OK,
    STACK_HI,
    STACK_LO,
    ExecImage,
    Machine,
)

MAX_STEPS = 3000


def _state(m: Machine, ctx: SpecContext | None) -> tuple:
    """The visible state after a step.  Of the write log, which only grows
    during lockstep, it takes the length and the last entry: comparing the
    whole log after every step would cost time quadratic in the writes.
    lockstep compares the whole logs once, at the end."""
    return (m.regs, m.fa, m.fb, m.pc, m.sp, m.alloc.recs,
            None if ctx is None else (ctx.records, ctx.branches,
                                      len(ctx.wlog), ctx.wlog[-1:]))


def test_every_opcode_has_exactly_one_kind():
    assert set(KIND_OF_OP) == {int(op) for op in Op}
    assert set(KIND_OF_OP.values()) == {K_PLAIN, K_FENCE, K_RET, K_BR, K_CALL, K_JUMP}
    assert {op for op, kind in KIND_OF_OP.items() if kind != K_PLAIN} == {
        O_FENCE, O_RET, O_BR, O_CALL, O_JMP, O_JTAB}
    # The loops treat the kinds at or above K_BR as the ones entering a block.
    assert {op for op, kind in KIND_OF_OP.items() if kind >= K_BR} == {
        O_BR, O_CALL, O_JMP, O_JTAB}


def check_tables(image: ExecImage) -> None:
    """kinds and br cover every pc and agree with the decoded code."""
    assert len(image.kinds) == len(image.br) == len(image.code)
    for pc, (op, _, taken, fall, _) in enumerate(image.code):
        assert image.kinds[pc] == KIND_OF_OP[op], pc
        if op == O_BR:
            _, t_pc, t_blk, f_pc, f_blk = image.br[pc]
            assert (t_pc, t_blk, f_pc, f_blk) == (
                image.blocks[taken][0], taken, image.blocks[fall][0], fall), pc
        else:
            assert image.br[pc] is None, pc


def lockstep(image: ExecImage, data: bytes, speculative: bool, seed: int = 0,
             max_steps: int = MAX_STEPS) -> int:
    """Step both machines to HALT, a fault or max_steps, comparing after
    every step; returns the number of steps taken.  With speculative set,
    each BR is forced down its inverted outcome with probability 1/2.

    Exactly the completed steps of the kinds at or above K_BR enter a
    block, and block_of at the new pc, where the engine's loops look it up,
    must name it."""
    check_tables(image)
    fast, ref = Machine(image, data), Machine(image, data)
    fast_ctx = SpecContext(input_id="x") if speculative else None
    ref_ctx = SpecContext(input_id="x") if speculative else None
    rng = random.Random(seed)
    for step in range(max_steps):
        pc = ref.pc
        op, cc, taken, fall, _ = image.code[pc]
        if speculative and op == O_BR and rng.random() < 0.5:
            holds = _cc_eval(cc, ref.fa, ref.fb)
            cond, _, tb, _, fb = image.br[pc]
            assert (cond(fast.fa, fast.fb), tb, fb) == (holds, taken, fall), pc
            target = fall if holds else taken
            iid = image.iid_str[pc]
            fast_ctx.branches.append(iid)
            ref_ctx.branches.append(iid)
            assert fast.force_branch(pc, invert=True) == target
            ref.pc = image.blocks[target][0]
            assert _state(fast, fast_ctx) == _state(ref, ref_ctx), (step, pc)
            assert image.block_of[fast.pc] == target, (step, pc)
            continue
        if step_alike(image, fast, ref, fast_ctx, ref_ctx, step) != OUT_OK:
            break
    assert fast.canonical_memory() == ref.canonical_memory()
    if speculative:
        assert fast_ctx.wlog == ref_ctx.wlog
    return step + 1


def step_alike(image: ExecImage, fast: Machine, ref: Machine,
               fast_ctx: SpecContext | None, ref_ctx: SpecContext | None,
               step: int):
    """Step fast through its handler and ref through the reference stepper,
    compare them and return the outcome."""
    pc = ref.pc
    out = fast.step(fast_ctx)
    want, entered = reference_step(ref, ref_ctx)
    assert out == want, (step, pc)
    assert _state(fast, fast_ctx) == _state(ref, ref_ctx), (step, pc)
    assert (entered >= 0) == (image.kinds[pc] >= K_BR and out == OUT_OK), \
        (step, pc)
    if entered >= 0:
        assert fast.pc == image.blocks[entered][0], (step, pc)
        assert image.block_of[fast.pc] == entered, (step, pc)
    if out != OUT_OK:
        assert fast.pc == pc, (step, pc)
    return out


# Faults and slow paths that neither the victims nor the random programs
# reach: (source, step bound, None for MAX_STEPS).
CORNERS = [
    ("fn main:\ne:\n  ret\n", None),
    ("fn main:\ne:\n  call f\n  halt\n"
     "fn f:\ne:\n  const r0, 0x2fff8\n  const r1, 12345\n  store r1, r0, 0\n  ret\n",
     None),
    # Fills every slot of the stack, then overflows it.
    ("fn main:\ne:\n  call main\n  halt\n", (STACK_HI - STACK_LO) // 8 + 2),
    ("fn main:\ne:\n  alloc r1, 0x8000000\n  halt\n", None),
    ("fn main:\ne:\n  const r2, 0x8000000\n  alloc r1, r2\n  halt\n", None),
    ("fn main:\ne:\n  div r1, r2, 0\n  halt\n", None),
    ("fn main:\ne:\n  const r1, 5\n  jtab r1, a, b\na:\n  halt\nb:\n  halt\n", None),
    # Shift amounts of 64 and more, in register and immediate form.
    ("fn main:\ne:\n  const r1, 0xF0F0F0F0F0F0F0F1\n  const r2, 65\n"
     "  shl r3, r1, r2\n  shr r4, r1, r2\n  shl r5, r1, 127\n  shr r6, r1, 127\n"
     "  halt\n", None),
    # Redzone bytes written under speculation read back as zeros, also from
    # a load that straddles the end of the allocation.
    ("fn main:\ne:\n  alloc r1, 24\n  const r2, 0xFFFFFFFFFFFFFFFF\n"
     "  store r2, r1, 24\n  store r2, r1, 16\n  load r3, r1, 20\n  load r4, r1, 24\n"
     "  halt\n", None),
    # An 8-byte store and load across a page boundary inside the stack.
    ("fn main:\ne:\n  const r1, 0x20ffc\n  const r2, 0x1122334455667788\n"
     "  store r2, r1, 0\n  load r3, r1, 0\n  halt\n", None),
    # The heap fast path: accesses that end exactly at the end of an
    # allocation, the last one and an earlier one, are in bounds ...
    ("fn main:\ne:\n  alloc r1, 24\n  alloc r4, 40\n  const r2, 0x0102030405060708\n"
     "  store r2, r1, 16\n  load r3, r1, 16\n  store r2, r4, 32\n"
     "  load r5, r4, 32\n  load r6, r1, 0\n  halt\n", None),
    # ... and ones that end one byte past it are not, below the next
    # allocation and after the last one.
    ("fn main:\ne:\n  alloc r1, 24\n  alloc r4, 24\n  const r2, 0x0102030405060708\n"
     "  store r2, r1, 17\n  load r3, r1, 17\n  load r5, r4, 17\n  halt\n", None),
    ("fn main:\ne:\n  alloc r1, 24\n  alloc r4, 24\n  load r5, r4, 17\n  halt\n",
     None),
    # In the gap between two allocations, wholly and reaching into the next.
    ("fn main:\ne:\n  alloc r1, 200\n  alloc r4, 8\n  const r2, 9\n"
     "  store r2, r1, 208\n  load r3, r1, 208\n  load r5, r1, 220\n  halt\n",
     None),
    # Below the first allocation, wholly and straddling its base.
    ("fn main:\ne:\n  alloc r1, 24\n  const r5, 0xffff8\n  load r3, r5, 0\n"
     "  store r3, r5, 4\n  load r6, r5, 4\n  halt\n", None),
]


@pytest.mark.parametrize("speculative", [False, True], ids=["arch", "spec"])
@pytest.mark.parametrize("src,bound", CORNERS)
def test_corner_cases_step_alike(src, bound, speculative):
    bound = bound or MAX_STEPS
    # Every corner stops, by HALT or a fault, before its bound.
    assert lockstep(ExecImage(parse_program(src)), b"", speculative,
                    max_steps=bound) < bound


def _gadget_images():
    """Each built-in victim and its fence and slh outputs, which add FENCE
    and the mask arithmetic, with the victim's trigger and safe inputs."""
    for gid in gadget_ids():
        g = builtin_gadget(gid)
        for program in (g.program, fence_pass(g.program).program,
                        slh_pass(g.program).program):
            yield ExecImage(program), (g.trigger, g.safe)


@pytest.mark.parametrize("speculative", [False, True], ids=["arch", "spec"])
def test_gadgets_and_hardened_gadgets_step_alike(speculative):
    steps = 0
    for image, inputs in _gadget_images():
        for data in inputs:
            for seed in range(4 if speculative else 1):
                steps += lockstep(image, data, speculative, seed)
    assert steps > 1000


@pytest.mark.parametrize("loops,recursion", [(False, False), (True, False),
                                             (False, True), (True, True)])
@pytest.mark.parametrize("speculative", [False, True], ids=["arch", "spec"])
def test_random_programs_step_alike(loops, recursion, speculative):
    for seed in range(60):
        image = ExecImage(random_program(seed, loops, recursion))
        lockstep(image, random_input(seed), speculative, seed)


def test_access_into_an_allocation_a_rollback_removed():
    """Once a rollback drops an allocation, an access inside its old bounds
    is no longer in bounds: the heap fast path must read the live table."""
    src = ("fn main:\ne:\n  alloc r1, 24\n  alloc r2, 24\n  const r3, 7\n"
           "  store r3, r2, 0\n  load r4, r2, 0\n  halt\n")
    image = ExecImage(parse_program(src))
    for speculative in (False, True):
        fast, ref = Machine(image, b""), Machine(image, b"")
        fast_ctx = SpecContext(input_id="x") if speculative else None
        ref_ctx = SpecContext(input_id="x") if speculative else None
        assert step_alike(image, fast, ref, fast_ctx, ref_ctx, 0) == OUT_OK
        snaps = alloc_snapshot(fast.alloc), alloc_snapshot(ref.alloc)
        for step in range(1, 4):  # the second allocation, written in bounds
            assert step_alike(image, fast, ref, fast_ctx, ref_ctx, step) == OUT_OK
        alloc_restore(fast.alloc, snaps[0])
        alloc_restore(ref.alloc, snaps[1])
        out = step_alike(image, fast, ref, fast_ctx, ref_ctx, 4)
        assert out.kind == F_OOB
        if speculative:
            assert [r.detail for r in fast_ctx.records] == ["unmapped"]
