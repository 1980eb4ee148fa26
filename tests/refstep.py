"""Reference stepper: the plain if-chain interpreter the handlers replace.

``reference_step(machine, ctx)`` executes one instruction of ``machine``
exactly as the threaded ``Machine.step`` must: same outcome (OUT_OK,
OUT_HALT or the Fault), state, ``SpecContext`` records and write log.  It
also returns the block a completed BR, JMP, JTAB or CALL entered, so that
the lockstep can check that pc is that block's start.  It decodes each
instruction from ``ExecImage.code`` on every call, dispatches on the opcode,
reads block starts from ``ExecImage.blocks`` and decodes return words
itself, so it shares no dispatch, condition, block-table or return-word
code with the handlers.  Memory, the allocator and access classification
are shared; tests/test_machine.py checks those against linear references
of their own.

tests/test_stepper.py steps a handler-driven and a reference-driven machine
in lockstep and compares them after every instruction.
"""

from specvm.isa import WORD_MASK
from specvm.machine import (
    A_SCRATCH,
    F_DIV,
    F_HEAP,
    F_JTAB,
    F_OOB,
    F_RET,
    F_STACK,
    O_ADD,
    O_ALLOC,
    O_AND,
    O_BR,
    O_CALL,
    O_CMP,
    O_CONST,
    O_DIV,
    O_FENCE,
    O_HALT,
    O_INPUT,
    O_INPUTLEN,
    O_JMP,
    O_JTAB,
    O_LOAD,
    O_MOV,
    O_MUL,
    O_OR,
    O_RET,
    O_SETCC,
    O_SHL,
    O_SHR,
    O_STORE,
    O_SUB,
    O_XOR,
    OUT_HALT,
    OUT_OK,
    RET_ENC_BASE,
    STACK_HI,
    STACK_LO,
    AccessClass,
    Fault,
)


def _cc_eval(cc: int, a: int, b: int) -> bool:
    if cc == 0:
        return a == b
    if cc == 1:
        return a != b
    if cc == 2:
        return a < b
    if cc == 3:
        return a <= b
    if cc == 4:
        return a > b
    return a >= b


def reference_step(self, ctx=None) -> tuple:
    """Execute one instruction.

    ctx None: architectural semantics (OOB and decode failures fault).
    ctx set: speculative semantics; access and fault policy are delegated
    to ctx (a detect.SpecContext), memory writes are logged to ctx.wlog.
    Returns (outcome, block): OUT_OK, OUT_HALT or the Fault raised, and the
    block a completed BR, JMP, JTAB or CALL entered, else -1.
    """
    image = self.image
    pc = self.pc
    op, a, b, c, f = image.code[pc]
    regs = self.regs

    if op == O_BR:
        holds = _cc_eval(a, self.fa, self.fb)
        return _enter(self, b if holds else c)
    if op == O_CONST:
        regs[a] = b
        self.pc = pc + 1
        return OUT_OK, -1
    if op == O_LOAD:
        ea = (regs[b] + c) & WORD_MASK
        kind, ref, off = self._classify(ea, 8)
        if kind <= A_SCRATCH:
            regs[a] = self.raw_read8(ea)
            self.pc = pc + 1
            return OUT_OK, -1
        if ctx is not None and ctx.on_speculative_access(
                image.iid_str[pc], kind, ea, ref, off):
            regs[a] = self._read8_redzone_zeroed(ea)
            self.pc = pc + 1
            return OUT_OK, -1
        return Fault(F_OOB, image.iid_of[pc], AccessClass(kind, ref, off)), -1
    if op == O_STORE:
        ea = (regs[b] + c) & WORD_MASK
        kind, ref, off = self._classify(ea, 8)
        if kind <= A_SCRATCH:
            self.raw_write8(ea, regs[a], ctx.wlog if ctx is not None else None)
            self.pc = pc + 1
            return OUT_OK, -1
        if ctx is not None and ctx.on_speculative_access(
                image.iid_str[pc], kind, ea, ref, off):
            self.raw_write8(ea, regs[a], ctx.wlog)
            self.pc = pc + 1
            return OUT_OK, -1
        return Fault(F_OOB, image.iid_of[pc], AccessClass(kind, ref, off)), -1
    if op == O_ADD:
        regs[a] = (regs[b] + (c if f else regs[c])) & WORD_MASK
    elif op == O_SUB:
        regs[a] = (regs[b] - (c if f else regs[c])) & WORD_MASK
    elif op == O_MUL:
        regs[a] = (regs[b] * (c if f else regs[c])) & WORD_MASK
    elif op == O_AND:
        regs[a] = regs[b] & (c if f else regs[c])
    elif op == O_OR:
        regs[a] = regs[b] | (c if f else regs[c])
    elif op == O_XOR:
        regs[a] = regs[b] ^ (c if f else regs[c])
    elif op == O_SHL:
        regs[a] = (regs[b] << ((c if f else regs[c]) & 63)) & WORD_MASK
    elif op == O_SHR:
        regs[a] = regs[b] >> ((c if f else regs[c]) & 63)
    elif op == O_DIV:
        d = c if f else regs[c]
        if d == 0:
            return _fault(self, ctx, F_DIV, pc, 0)
        regs[a] = regs[b] // d
    elif op == O_CMP:
        self.fa = regs[a]
        self.fb = b if f else regs[b]
    elif op == O_SETCC:
        regs[a] = 1 if _cc_eval(b, self.fa, self.fb) else 0
    elif op == O_MOV:
        regs[a] = regs[b]
    elif op == O_JMP:
        return _enter(self, a)
    elif op == O_JTAB:
        idx = regs[a]
        if idx >= len(b):
            return _fault(self, ctx, F_JTAB, pc, idx)
        return _enter(self, b[idx])
    elif op == O_ALLOC:
        size = b if f else regs[b]
        base = self.alloc.alloc(size)
        if base is None:
            return _fault(self, ctx, F_HEAP, pc, 0)
        regs[a] = base
    elif op == O_CALL:
        new_sp = self.sp - 8
        if new_sp < STACK_LO:
            return _fault(self, ctx, F_STACK, pc, 0)
        self.raw_write8(new_sp, image.encode_ret(pc + 1), ctx.wlog if ctx is not None else None)
        self.sp = new_sp
        return _enter(self, image.fn_entry[a])
    elif op == O_RET:
        if self.sp >= STACK_HI:
            return _fault(self, ctx, F_RET, pc, 0)
        value = self.raw_read8(self.sp)
        target, misaligned = divmod(value - RET_ENC_BASE, 8)
        if target < 0 or misaligned or target >= len(image.code):
            return _fault(self, ctx, F_RET, pc, value)
        self.sp += 8
        self.pc = target
        return OUT_OK, -1
    elif op == O_INPUT:
        regs[a] = self.input[b] if b < len(self.input) else 0
    elif op == O_INPUTLEN:
        regs[a] = len(self.input)
    elif op == O_FENCE:
        pass
    elif op == O_HALT:
        return OUT_HALT, -1
    else:  # pragma: no cover
        raise AssertionError(f"undecoded op {op}")
    self.pc = pc + 1
    return OUT_OK, -1


def _enter(self, bi: int) -> tuple:
    """Complete a control transfer into block bi."""
    self.pc = self.image.blocks[bi][0]
    return OUT_OK, bi


def _fault(self, ctx, kind: str, pc: int, value: int) -> tuple:
    """The non-access fault at pc; under speculation ctx also sees it, with
    the offending value for corrupted control transfers."""
    if ctx is not None:
        ctx.on_speculative_fault(self.image.iid_str[pc], kind, value)
    return Fault(kind, self.image.iid_of[pc]), -1

