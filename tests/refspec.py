"""Reference speculative paths: the plain path loop, checkpoint and path
opening that the engine's kind-dispatched ones replace.

``ReferenceEngine`` is an ExposureEngine whose ``_spec_run``,
``push_checkpoint`` and ``rollback`` are the plain versions.  Its path loop
dispatches on the opcode read from ``ExecImage.code`` on every step and,
after a BR, JMP, JTAB or CALL that completed, takes the block entered from
``ExecImage.blocks``, as the one that starts at pc.  Its checkpoint saves
registers, flags, pc, sp and an allocation snapshot, and rollback copies
the registers back.  It opens a path through
``force_branch`` below, which decodes the BR from ``ExecImage.code`` and
evaluates its condition with refstep's, so it reads neither the branch
table nor the kind table.  ``refrun.reference_run`` drives it from a fresh
machine, so what it shares with ``ExposureEngine.run`` is the handlers,
which tests/test_stepper.py checks against refstep, and the prefix-free
run loop of refrun.

tests/test_spec_paths.py compares every RunTrace field of the two.
"""

from refstep import _cc_eval
from specvm.engine import (
    RETIRE_FAULT,
    RETIRE_FENCE,
    RETIRE_HALT,
    RETIRE_WINDOW,
    EngineError,
    ExposureEngine,
)
from specvm.machine import O_BR, O_CALL, O_FENCE, O_JMP, O_JTAB, O_RET, OUT_HALT


def alloc_snapshot(alloc) -> tuple[int, int]:
    """The state of an AllocationTable that alloc_restore returns it to."""
    return (alloc.bump, len(alloc.recs))


def alloc_restore(alloc, snap: tuple[int, int]) -> None:
    """Drop the allocations made since alloc_snapshot returned snap."""
    alloc.bump, n = snap
    del alloc.recs[n:]
    del alloc.bases[n:]


def force_branch(image, m, flat: int, invert: bool) -> int:
    """Move m's pc to the outcome (or its inverse) of image's BR at flat;
    returns target block."""
    _, cc, tb, fb, _ = image.code[flat]
    holds = _cc_eval(cc, m.fa, m.fb)
    if invert:
        holds = not holds
    bi = tb if holds else fb
    m.pc = image.blocks[bi][0]
    return bi


# The opcodes that enter a block when they complete.
ENTERS_BLOCK = (O_BR, O_JMP, O_JTAB, O_CALL)


def block_at(image) -> dict[int, int]:
    """Each block's index by its start, from ExecImage.blocks; a pc that
    starts no block has no entry."""
    return {blk[0]: bi for bi, blk in enumerate(image.blocks)}


class ReferenceEngine(ExposureEngine):

    def __init__(self, program, config=None):
        super().__init__(program, config)
        self.block_at = block_at(self.image)

    def push_checkpoint(self, branch_iid: str) -> None:
        if len(self.checkpoints) > self.cfg.max_order:
            raise EngineError("checkpoint-overflow")
        m = self.m
        self.checkpoints.append((
            m.regs[:], m.fa, m.fb, m.pc, m.sp,
            alloc_snapshot(m.alloc), len(self.ctx.wlog),
        ))
        self.ctx.branches.append(branch_iid)

    def rollback(self) -> None:
        if not self.checkpoints:
            raise EngineError("internal-log-underflow")
        regs, fa, fb, pc, sp, asnap, nlog = self.checkpoints.pop()
        m = self.m
        wlog = self.ctx.wlog
        if len(wlog) < nlog:
            raise EngineError("internal-log-underflow")
        while len(wlog) > nlog:
            addr, old = wlog.pop()
            m.write_bytes(addr, old)
        m.regs[:] = regs
        m.fa, m.fb, m.pc, m.sp = fa, fb, pc, sp
        alloc_restore(m.alloc, asnap)
        self.ctx.branches.pop()

    def _spec_run(self, depth: int, order: int, pc: int, counter: int,
                  acct: list[tuple[int, int]]) -> None:
        m = self.m
        ctx = self.ctx
        image = self.image
        code = image.code
        handlers = image.handlers
        block_lens = image.block_lens
        window = self.cfg.window
        stride = self.cfg.stride
        self.push_checkpoint(image.iid_str[pc])
        remaining = block_lens[force_branch(image, m, pc, invert=True)]
        budget = 0
        steps = 0
        while True:
            pc = m.pc
            op = code[pc][0]
            if op == O_FENCE:
                reason = RETIRE_FENCE
                break
            if budget == 0:
                if counter >= window:
                    reason = RETIRE_WINDOW
                    break
                if remaining > 0:
                    chunk = stride if stride < remaining else remaining
                    remaining -= chunk
                else:
                    chunk = 1  # resumed mid-block with no prepaid budget
                counter += chunk
                budget = chunk
            budget -= 1
            if op == O_BR and depth < order:
                self._spec_run(depth + 1, order, pc, counter, acct[:])
            out = handlers[pc](m, ctx)
            steps += 1
            if out == OUT_HALT:
                reason = RETIRE_HALT
                break
            if out:
                reason = RETIRE_FAULT
                break
            if op in ENTERS_BLOCK:
                if op == O_CALL:
                    acct.append((remaining, budget))
                remaining = block_lens[self.block_at[m.pc]]
                budget = 0
            elif op == O_RET:
                if acct:
                    remaining, budget = acct.pop()
                else:
                    remaining = budget = 0
        self.spec_steps += steps
        self.retired[reason] = self.retired.get(reason, 0) + 1
        self.rollback()
