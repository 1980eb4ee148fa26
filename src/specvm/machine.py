"""Architectural interpreter: memory, redzone allocator, access rules, step.

Memory layout: one fixed address space, whose bounds are the module
constants below::

    SCRATCH_BASE     0x0000_0000  scratch page of SCRATCH_SIZE (4 KiB),
                                  always mapped, always writable
    STATIC_BASE      0x0001_0000  static data from the program's data
                                  directive
    STACK_LO         0x0002_0000  VM stack up to STACK_HI (0x0003_0000),
                                  grows down, holds return slots
    HEAP_BASE        0x0010_0000  heap up to HEAP_CEILING (+64 MiB),
                                  bump-allocated, with a redzone band of
                                  REDZONE (16) bytes on each side of an
                                  allocation
    REFERENT_WINDOW  4096         how far an out-of-bounds access may lie
                                  from its referent, the nearest live
                                  allocation

Every LOAD/STORE is 8 bytes wide and classified before it completes:
VALID / SCRATCH accesses proceed, anything else is an out-of-bounds
access.  Architecturally that is a hard fault; under speculation the
SpecContext passed to the handler decides (see detect.py).

Heap allocations are made in bump order at strictly increasing bases,
never freed, and a rollback only truncates the newest ones.  The list of
bases is therefore always sorted, and access classification finds the
allocations around an address by bisection instead of a scan.  The LOAD
and STORE handlers settle the common case themselves: an access that lies
wholly inside a live allocation takes one bisection of ``alloc.bases`` and
a bounds test against its predecessor, then one raw_read8 or raw_write8.
Every other address goes through ``_classify``.

The interpreter is threaded code.  ExecImage builds one handler per
instruction at decode time (``_make_handler``), a closure specialised to
that instruction's operands, and stepping a machine is one call,
``image.handlers[machine.pc](machine, ctx)``, made by the loop that runs
it.  Every handler keeps this contract:

* it returns OUT_OK, OUT_HALT or the Fault it raised;
* a BR, JMP, JTAB or CALL that completes leaves ``pc`` at the start of the
  block it entered, so ``image.block_of[pc]`` names that block (validation
  forbids empty blocks);
* a faulting instruction leaves ``pc`` where it was, and HALT too;
* with ctx set, an out-of-bounds access goes to
  ``ctx.on_speculative_access`` (a redzone LOAD that may proceed reads the
  redzone bytes as zeros), any other fault to ``ctx.on_speculative_fault``,
  and every memory write is logged to ``ctx.wlog``.

ExecImage also classifies each instruction by kind (``kinds``) and keeps a
branch table (``br``).  The stepping loops of the exposure engine dispatch
on the kind and look up the entered block only after the control kinds,
BR, CALL and JMP/JTAB, that enter one; a speculative path takes a BR's
successor and block from the branch table without calling its handler.

A Machine holds only architectural state: the input, registers, flags,
pc, sp, memory pages, the allocation table and the end of its static data.
It holds no image: every loop that steps a machine holds the image whose
code it runs.  Whether a run halted or faulted is the outcome of its last
step, which the run loops keep.  ``Machine.fork(input)`` is the one way to
copy a machine: a new machine with the given input and its own copy of
everything else.  The exposure engine forks every run from the state its
program reaches before input first matters; the oracle forks every script
from its architectural pass at the script's root branch.

The plain reference stepper that the handlers are tested against lives
with the tests.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass, field

from .isa import (
    CONDITIONS,
    WORD_MASK,
    Imm,
    InstructionId,
    Op,
    Program,
    operand_kinds,
)

# Access classes
A_VALID = 0
A_SCRATCH = 1
A_REDZONE = 2
A_UNMAPPED = 3

# Fault kinds
F_OOB = "oob-access"
F_DIV = "div-zero"
F_JTAB = "bad-jtab-index"
F_RET = "bad-ret"
F_STACK = "stack-overflow"
F_HEAP = "heap-exhausted"
F_STEP = "step-limit"

# Step outcomes; a faulting step returns its Fault instead
OUT_OK = 0
OUT_HALT = 1

_PAGE = 4096
DEFAULT_MAX_STEPS = 100_000


# The address space (see the module docstring).
SCRATCH_BASE = 0
SCRATCH_SIZE = 4096
STATIC_BASE = 0x1_0000
STACK_LO = 0x2_0000
STACK_HI = 0x3_0000
HEAP_BASE = 0x10_0000
HEAP_CEILING = HEAP_BASE + 64 * 1024 * 1024
REDZONE = 16
REFERENT_WINDOW = 4096


@dataclass(frozen=True)
class AccessClass:
    """Classification of one memory access.

    ``referent`` is (ordinal, base, size) of the nearest live allocation when
    one lies within the referent window; ``offset`` is addr - base, signed,
    so negative offsets are underflows.  referent + offset reproduce the
    accessed address exactly.
    """

    kind: int
    referent: tuple[int, int, int] | None = None
    offset: int | None = None


@dataclass(frozen=True)
class Fault:
    kind: str
    at: InstructionId | None
    access: AccessClass | None = None


class AllocationTable:
    """Bump allocator with redzones; nothing is ever freed.

    Allocations are made from HEAP_BASE up to HEAP_CEILING.  Each starts at
    least size + REDZONE bytes after the previous one, and a rollback only
    drops the newest allocations, so ``bases`` is strictly increasing and
    no allocation's redzone band reaches into a later allocation.
    Machine's access classification bisects ``bases`` and relies on both
    properties.
    """

    __slots__ = ("bump", "recs", "bases")

    def __init__(self):
        self.bump = HEAP_BASE
        self.recs: list[tuple[int, int]] = []  # (base, size)
        self.bases: list[int] = []  # recs[i][0], kept for bisection

    def alloc(self, size: int) -> int | None:
        """Return the 16-byte-aligned base of a new allocation, or None when
        the heap ceiling would be crossed."""
        if size < 1:
            size = 1
        base = self.bump
        advance = (size + REDZONE + 15) & ~15
        if base + advance > HEAP_CEILING:
            return None
        self.bump = base + advance
        self.recs.append((base, size))
        self.bases.append(base)
        return base


# ---------------------------------------------------------------------------
# Pre-decoded program image

# Opcodes as plain ints, the form ExecImage.code stores them in.  The
# per-instruction loops compare against these: reading a member of the Op
# IntEnum costs an attribute lookup each time.
O_CONST = int(Op.CONST)
O_MOV = int(Op.MOV)
O_ADD = int(Op.ADD)
O_SUB = int(Op.SUB)
O_MUL = int(Op.MUL)
O_AND = int(Op.AND)
O_OR = int(Op.OR)
O_XOR = int(Op.XOR)
O_SHL = int(Op.SHL)
O_SHR = int(Op.SHR)
O_DIV = int(Op.DIV)
O_CMP = int(Op.CMP)
O_SETCC = int(Op.SETCC)
O_BR = int(Op.BR)
O_JMP = int(Op.JMP)
O_JTAB = int(Op.JTAB)
O_LOAD = int(Op.LOAD)
O_STORE = int(Op.STORE)
O_ALLOC = int(Op.ALLOC)
O_CALL = int(Op.CALL)
O_RET = int(Op.RET)
O_FENCE = int(Op.FENCE)
O_INPUT = int(Op.INPUT)
O_INPUTLEN = int(Op.INPUTLEN)
O_HALT = int(Op.HALT)

# Instruction kinds, ExecImage.kinds[pc]: what the stepping loops must do
# around a handler call.  A plain instruction needs nothing.  FENCE retires
# a speculative path.  RET enters no block but resumes a caller's; BR, CALL
# and JMP/JTAB enter the block that starts at the new pc when they complete,
# and are the kinds at or above K_BR.
K_PLAIN = 0
K_FENCE = 1
K_RET = 2
K_BR = 3
K_CALL = 4
K_JUMP = 5

KIND_OF_OP = {int(op): K_PLAIN for op in Op}
KIND_OF_OP.update({O_FENCE: K_FENCE, O_RET: K_RET, O_BR: K_BR, O_CALL: K_CALL,
                   O_JMP: K_JUMP, O_JTAB: K_JUMP})

# Internal operand flag values for the 5th decode slot
IMM = 1
REGOP = 0

RET_ENC_BASE = 0x5EC0_0000_0000


class ExecImage:
    """Flattened, pre-decoded program: the interpreter runs on this.

    code[i] is a 5-tuple (op, a, b, c, f) with op a plain int (O_*).  The
    operands fill a, b and c in order, each decoded by its kind in
    isa.operand_kinds: a register as its number, an immediate reduced mod
    2**64, a condition code as its index in isa.CONDITIONS, a label as the
    index of its block, a function as its name, and a JTAB's labels as one
    tuple of block indices.  Slots without an operand hold 0.  f is IMM
    when a register-or-immediate operand is an immediate, else REGOP.
    Blocks are (start, length, fn, label) in the flat instruction array,
    and block_starts[bi] and block_lens[bi] repeat the first two as plain
    lists for the stepping loops.  iid_of[i] is the InstructionId of
    code[i] and iid_str[i] its text, built once here because branch
    bookkeeping and violation records need it on every visit.

    handlers[i] executes code[i]: a closure (machine, ctx) returning
    OUT_OK, OUT_HALT or a Fault, built once here with its operands,
    immediate or register form, target pcs, return word and id text bound
    in, so stepping is one indexed call with no dispatch on the opcode.
    The contract each handler keeps is in the module docstring.

    kinds[i] is the kind of code[i] (K_*, see KIND_OF_OP).  The stepping
    loops dispatch on it: only after a control kind that completed do they
    look up the block entered, as block_of[pc].

    br[i] is (condition, taken pc, taken block, fall pc, fall block) when
    code[i] is a BR and None otherwise; the condition is a function of the
    flags (fa, fb).  It is the one source of branch semantics: the BR
    handler, the oracle and the exposure engine's path loop all read it.

    start_states maps a step limit to the exposure engine's start state for
    that limit, filled by the first engine built on the image with it (see
    the engine module).  A machine holds no image, so the cache closes no
    reference cycle.
    """

    __slots__ = (
        "program", "code", "iid_of", "iid_str", "blocks", "block_of",
        "block_starts", "block_lens", "kinds", "br", "handlers",
        "fn_entry", "entry_block", "start_states", "__weakref__",
    )

    def __init__(self, program: Program):
        self.program = program
        self.iid_of: list[InstructionId] = []
        self.blocks: list[tuple[int, int, str, str]] = []  # start, length, fn, label
        self.block_of: list[int] = []
        self.fn_entry: dict[str, int] = {}  # fn name -> block index

        # Blocks are numbered in flat instruction order, so a block's start
        # is the count of instructions before it.
        block_index: dict[tuple[str, str], int] = {}
        instrs: list[tuple] = []  # (fn, instruction) in flat order
        for fn, blocks in program.functions.items():
            self.fn_entry[fn] = len(self.blocks)
            for block in blocks:
                bi = len(self.blocks)
                block_index[(fn, block.label)] = bi
                self.blocks.append((len(instrs), len(block.instrs), fn, block.label))
                for idx, ins in enumerate(block.instrs):
                    self.iid_of.append(InstructionId(fn, block.label, idx))
                    self.block_of.append(bi)
                    instrs.append((fn, ins))
        self.iid_str: list[str] = [str(iid) for iid in self.iid_of]
        self.code: list[tuple] = [self._decode(fn, ins, block_index)
                                  for fn, ins in instrs]
        self.block_starts: list[int] = [blk[0] for blk in self.blocks]
        self.block_lens: list[int] = [blk[1] for blk in self.blocks]
        starts = self.block_starts
        self.kinds: list[int] = [KIND_OF_OP[ins[0]] for ins in self.code]
        self.br: list[tuple | None] = [
            (_CC[a], starts[b], b, starts[c], c) if op == O_BR else None
            for op, a, b, c, _ in self.code]
        self.handlers: list = [_make_handler(self, pc) for pc in range(len(self.code))]

        self.entry_block = self.fn_entry[program.entry]
        self.start_states: dict[int, tuple] = {}

    def _decode(self, fn: str, ins, block_index) -> tuple:
        slots: list = []
        tail: list[int] = []
        f = REGOP
        kinds, _ = operand_kinds(ins.op, len(ins.ops))
        for kind, o in zip(kinds, ins.ops):
            if kind == "c":
                v = CONDITIONS.index(o.cc)
            elif kind in "lL":
                v = block_index[(fn, o.name)]
            elif kind == "f":
                v = o.name
            elif isinstance(o, Imm):
                v = o.v & WORD_MASK
                if kind == "x":
                    f = IMM
            else:
                v = o.n
            (tail if kind == "L" else slots).append(v)
        if tail:
            slots.append(tuple(tail))
        a, b, c = slots + [0] * (3 - len(slots))
        return (int(ins.op), a, b, c, f)

    def encode_ret(self, flat: int) -> int:
        return RET_ENC_BASE + 8 * flat


def _ret_target(value: int, n_code: int) -> int | None:
    """The position a return word encodes, or None when the word encodes no
    position of an image with n_code instructions."""
    off = value - RET_ENC_BASE
    if off < 0 or off % 8 or off // 8 >= n_code:
        return None
    return off // 8


# The condition codes by their index in isa.CONDITIONS, applied to the
# flags (fa, fb).  Registers hold unsigned words, so plain comparison is
# unsigned comparison.
_CC = tuple(getattr(operator, cc) for cc in CONDITIONS)


def _make_handler(image: ExecImage, pc: int):
    """The handler of instruction pc: a closure (machine, ctx) returning
    OUT_OK, OUT_HALT or a Fault, with the instruction's decoded operands,
    target pcs and id bound in.

    It must not hold the image itself, so that an image and its handlers
    form no reference cycle.  The contract every handler keeps is in the
    module docstring.
    """
    op, a, b, c, f = image.code[pc]
    nxt = pc + 1
    iid = image.iid_str[pc]
    at = image.iid_of[pc]
    starts = image.block_starts

    if op == O_BR:
        cond, t_pc, _, f_pc, _ = image.br[pc]

        def br(m, ctx):
            m.pc = t_pc if cond(m.fa, m.fb) else f_pc
            return OUT_OK
        return br
    if op == O_CONST:
        def const(m, ctx):
            m.regs[a] = b
            m.pc = nxt
            return OUT_OK
        return const
    if op == O_MOV:
        def mov(m, ctx):
            regs = m.regs
            regs[a] = regs[b]
            m.pc = nxt
            return OUT_OK
        return mov
    if op == O_CMP:
        if f:
            def cmp_imm(m, ctx):
                m.fa = m.regs[a]
                m.fb = b
                m.pc = nxt
                return OUT_OK
            return cmp_imm

        def cmp_reg(m, ctx):
            regs = m.regs
            m.fa = regs[a]
            m.fb = regs[b]
            m.pc = nxt
            return OUT_OK
        return cmp_reg
    if op == O_SETCC:
        cond = _CC[b]

        def setcc(m, ctx):
            m.regs[a] = 1 if cond(m.fa, m.fb) else 0
            m.pc = nxt
            return OUT_OK
        return setcc
    if op == O_ADD:
        if f:
            def add_imm(m, ctx):
                regs = m.regs
                regs[a] = (regs[b] + c) & WORD_MASK
                m.pc = nxt
                return OUT_OK
            return add_imm

        def add_reg(m, ctx):
            regs = m.regs
            regs[a] = (regs[b] + regs[c]) & WORD_MASK
            m.pc = nxt
            return OUT_OK
        return add_reg
    if op == O_SUB:
        if f:
            def sub_imm(m, ctx):
                regs = m.regs
                regs[a] = (regs[b] - c) & WORD_MASK
                m.pc = nxt
                return OUT_OK
            return sub_imm

        def sub_reg(m, ctx):
            regs = m.regs
            regs[a] = (regs[b] - regs[c]) & WORD_MASK
            m.pc = nxt
            return OUT_OK
        return sub_reg
    if op == O_MUL:
        if f:
            def mul_imm(m, ctx):
                regs = m.regs
                regs[a] = (regs[b] * c) & WORD_MASK
                m.pc = nxt
                return OUT_OK
            return mul_imm

        def mul_reg(m, ctx):
            regs = m.regs
            regs[a] = (regs[b] * regs[c]) & WORD_MASK
            m.pc = nxt
            return OUT_OK
        return mul_reg
    if op == O_AND:
        if f:
            def and_imm(m, ctx):
                regs = m.regs
                regs[a] = regs[b] & c
                m.pc = nxt
                return OUT_OK
            return and_imm

        def and_reg(m, ctx):
            regs = m.regs
            regs[a] = regs[b] & regs[c]
            m.pc = nxt
            return OUT_OK
        return and_reg
    if op == O_OR:
        if f:
            def or_imm(m, ctx):
                regs = m.regs
                regs[a] = regs[b] | c
                m.pc = nxt
                return OUT_OK
            return or_imm

        def or_reg(m, ctx):
            regs = m.regs
            regs[a] = regs[b] | regs[c]
            m.pc = nxt
            return OUT_OK
        return or_reg
    if op == O_XOR:
        if f:
            def xor_imm(m, ctx):
                regs = m.regs
                regs[a] = regs[b] ^ c
                m.pc = nxt
                return OUT_OK
            return xor_imm

        def xor_reg(m, ctx):
            regs = m.regs
            regs[a] = regs[b] ^ regs[c]
            m.pc = nxt
            return OUT_OK
        return xor_reg
    if op == O_SHL:
        if f:
            sh = c & 63

            def shl_imm(m, ctx):
                regs = m.regs
                regs[a] = (regs[b] << sh) & WORD_MASK
                m.pc = nxt
                return OUT_OK
            return shl_imm

        def shl_reg(m, ctx):
            regs = m.regs
            regs[a] = (regs[b] << (regs[c] & 63)) & WORD_MASK
            m.pc = nxt
            return OUT_OK
        return shl_reg
    if op == O_SHR:
        if f:
            sh = c & 63

            def shr_imm(m, ctx):
                regs = m.regs
                regs[a] = regs[b] >> sh
                m.pc = nxt
                return OUT_OK
            return shr_imm

        def shr_reg(m, ctx):
            regs = m.regs
            regs[a] = regs[b] >> (regs[c] & 63)
            m.pc = nxt
            return OUT_OK
        return shr_reg
    if op == O_DIV:
        if f and c == 0:
            def div_zero(m, ctx):
                return _fault(ctx, F_DIV, iid, at, 0)
            return div_zero
        if f:
            def div_imm(m, ctx):
                regs = m.regs
                regs[a] = regs[b] // c
                m.pc = nxt
                return OUT_OK
            return div_imm

        def div_reg(m, ctx):
            regs = m.regs
            d = regs[c]
            if d == 0:
                return _fault(ctx, F_DIV, iid, at, 0)
            regs[a] = regs[b] // d
            m.pc = nxt
            return OUT_OK
        return div_reg
    if op == O_LOAD or op == O_STORE:
        if op == O_LOAD:
            def load(m, ctx):
                regs = m.regs
                ea = (regs[b] + c) & WORD_MASK
                # In bounds of a live allocation: only the predecessor
                # can hold the access (see Machine._classify).
                alloc = m.alloc
                i = bisect_right(alloc.bases, ea)
                if i:
                    base, size = alloc.recs[i - 1]
                    if ea + 8 <= base + size:
                        regs[a] = m.raw_read8(ea)
                        m.pc = nxt
                        return OUT_OK
                kind, ref, off = m._classify(ea, 8)
                if kind <= A_SCRATCH:
                    regs[a] = m.raw_read8(ea)
                    m.pc = nxt
                    return OUT_OK
                if ctx is not None and ctx.on_speculative_access(iid, kind, ea, ref, off):
                    regs[a] = m._read8_redzone_zeroed(ea)
                    m.pc = nxt
                    return OUT_OK
                return Fault(F_OOB, at, AccessClass(kind, ref, off))
            return load

        def store(m, ctx):
            regs = m.regs
            ea = (regs[b] + c) & WORD_MASK
            alloc = m.alloc
            i = bisect_right(alloc.bases, ea)
            if i:
                base, size = alloc.recs[i - 1]
                if ea + 8 <= base + size:
                    m.raw_write8(ea, regs[a], ctx.wlog if ctx is not None else None)
                    m.pc = nxt
                    return OUT_OK
            kind, ref, off = m._classify(ea, 8)
            if kind <= A_SCRATCH:
                m.raw_write8(ea, regs[a], ctx.wlog if ctx is not None else None)
                m.pc = nxt
                return OUT_OK
            if ctx is not None and ctx.on_speculative_access(iid, kind, ea, ref, off):
                m.raw_write8(ea, regs[a], ctx.wlog)
                m.pc = nxt
                return OUT_OK
            return Fault(F_OOB, at, AccessClass(kind, ref, off))
        return store
    if op == O_JMP:
        t_pc = starts[a]

        def jmp(m, ctx):
            m.pc = t_pc
            return OUT_OK
        return jmp
    if op == O_JTAB:
        targets = tuple(starts[bi] for bi in b)
        n_targets = len(targets)

        def jtab(m, ctx):
            idx = m.regs[a]
            if idx >= n_targets:
                return _fault(ctx, F_JTAB, iid, at, idx)
            m.pc = targets[idx]
            return OUT_OK
        return jtab
    if op == O_ALLOC:
        def alloc(m, ctx):
            base = m.alloc.alloc(b if f else m.regs[b])
            if base is None:
                return _fault(ctx, F_HEAP, iid, at, 0)
            m.regs[a] = base
            m.pc = nxt
            return OUT_OK
        return alloc
    if op == O_CALL:
        callee_pc = starts[image.fn_entry[a]]
        ret_word = image.encode_ret(nxt)

        def call(m, ctx):
            new_sp = m.sp - 8
            if new_sp < STACK_LO:
                return _fault(ctx, F_STACK, iid, at, 0)
            m.raw_write8(new_sp, ret_word, ctx.wlog if ctx is not None else None)
            m.sp = new_sp
            m.pc = callee_pc
            return OUT_OK
        return call
    if op == O_RET:
        n_code = len(image.code)

        def ret(m, ctx):
            sp = m.sp
            if sp >= STACK_HI:
                return _fault(ctx, F_RET, iid, at, 0)
            value = m.raw_read8(sp)
            target = _ret_target(value, n_code)
            if target is None:
                return _fault(ctx, F_RET, iid, at, value)
            m.sp = sp + 8
            m.pc = target
            return OUT_OK
        return ret
    if op == O_INPUT:
        def input_(m, ctx):
            data = m.input
            m.regs[a] = data[b] if b < len(data) else 0
            m.pc = nxt
            return OUT_OK
        return input_
    if op == O_INPUTLEN:
        def inputlen(m, ctx):
            m.regs[a] = len(m.input)
            m.pc = nxt
            return OUT_OK
        return inputlen
    if op == O_FENCE:
        def fence(m, ctx):
            m.pc = nxt
            return OUT_OK
        return fence
    if op == O_HALT:
        def halt(m, ctx):
            return OUT_HALT
        return halt
    raise AssertionError(f"undecoded op {op}")  # pragma: no cover


def _fault(ctx, kind: str, iid: str, at: InstructionId, value: int) -> Fault:
    """The non-access fault of instruction at (iid as text); under speculation
    ctx also sees it, with the offending value of a corrupted transfer."""
    if ctx is not None:
        ctx.on_speculative_fault(iid, kind, value)
    return Fault(kind, at)


class Machine:
    """One VM instance: registers, flags, memory pages, allocator, stack.

    Every machine has the address space of the module constants; its static
    data ends at ``static_end``.  A machine starts at the entry of the image
    it is built from and keeps no reference to it.  ``fork`` copies a
    machine for a new input: registers, flags, pc, sp, every page and the
    allocation table are the copy's own.
    """

    __slots__ = ("static_end", "input", "regs", "fa", "fb", "pc", "sp", "pages", "alloc")

    def __init__(self, image: ExecImage, input_bytes: bytes):
        self.static_end = STATIC_BASE + len(image.program.data)
        self.input = input_bytes
        self.regs = [0] * 16
        self.fa = 0
        self.fb = 0
        self.pc = image.block_starts[image.entry_block]
        self.sp = STACK_HI
        self.pages: dict[int, bytearray] = {}
        self.alloc = AllocationTable()
        if image.program.data:
            self.write_bytes(STATIC_BASE, image.program.data)

    def fork(self, input_bytes: bytes) -> "Machine":
        """A machine in this one's state that reads input_bytes, with
        independent copies of everything a run can change."""
        m = Machine.__new__(Machine)
        m.static_end = self.static_end
        m.input = input_bytes
        m.regs = self.regs[:]
        m.fa = self.fa
        m.fb = self.fb
        m.pc = self.pc
        m.sp = self.sp
        m.pages = {no: bytearray(page) for no, page in self.pages.items()}
        src = self.alloc
        alloc = m.alloc = AllocationTable.__new__(AllocationTable)
        alloc.bump = src.bump
        alloc.recs = src.recs[:]
        alloc.bases = src.bases[:]
        return m

    # -- raw memory -------------------------------------------------------

    def read_bytes(self, addr: int, n: int) -> bytes:
        """n bytes from addr; a page never written reads as zeros."""
        out = bytearray(n)
        for i in range(n):
            a = addr + i
            page = self.pages.get(a >> 12)
            if page is not None:
                out[i] = page[a & 0xFFF]
        return bytes(out)

    def write_bytes(self, addr: int, data: bytes) -> None:
        """Store data at addr, mapping the pages it touches."""
        for i, b in enumerate(data):
            a = addr + i
            page = self.pages.get(a >> 12)
            if page is None:
                page = self.pages[a >> 12] = bytearray(_PAGE)
            page[a & 0xFFF] = b

    def raw_read8(self, addr: int) -> int:
        off = addr & 0xFFF
        page = self.pages.get(addr >> 12)
        if off <= _PAGE - 8:
            if page is None:
                return 0
            return int.from_bytes(page[off : off + 8], "little")
        return int.from_bytes(self.read_bytes(addr, 8), "little")

    def raw_write8(self, addr: int, value: int, log: list | None) -> None:
        off = addr & 0xFFF
        if off <= _PAGE - 8:
            page = self.pages.get(addr >> 12)
            if page is None:
                page = self.pages[addr >> 12] = bytearray(_PAGE)
            if log is not None:
                log.append((addr, bytes(page[off : off + 8])))
            page[off : off + 8] = value.to_bytes(8, "little")
            return
        if log is not None:
            log.append((addr, self.read_bytes(addr, 8)))
        self.write_bytes(addr, value.to_bytes(8, "little"))

    def canonical_memory(self) -> dict[int, bytes]:
        """Nonzero pages only: the behavioural content of memory."""
        out = {}
        zero = bytes(_PAGE)
        for no, page in sorted(self.pages.items()):
            b = bytes(page)
            if b != zero:
                out[no] = b
        return out

    # -- access classification ---------------------------------------------

    def check_access(self, addr: int, width: int = 8) -> AccessClass:
        kind, ref, off = self._classify(addr, width)
        return AccessClass(kind, ref, off)

    def _classify(self, addr: int, width: int):
        end = addr + width
        recs = self.alloc.recs
        # i is the ordinal of the first allocation based above addr, the
        # successor; i - 1 is the predecessor.  Every allocation lies at or
        # above the heap base, so a lower address has allocation 0 as its
        # successor.
        if addr >= HEAP_BASE:
            i = bisect_right(self.alloc.bases, addr)
            # Fully inside an allocation?  Only the predecessor can hold it.
            if i:
                base, size = recs[i - 1]
                if end <= base + size:
                    return A_VALID, None, None
        else:
            if addr >= STACK_LO:
                if end <= STACK_HI:
                    return A_VALID, None, None
            elif addr >= STATIC_BASE:
                if end <= self.static_end:
                    return A_VALID, None, None
            elif addr >= SCRATCH_BASE and end <= SCRATCH_BASE + SCRATCH_SIZE:
                return A_SCRATCH, None, None
            i = 0
        # Nearest live allocation within the referent window.  Allocations
        # are disjoint and sorted, so no allocation is nearer than both the
        # predecessor and the successor; an access that overlaps several
        # overlaps the predecessor or else the successor first.  On equal
        # distance the lower ordinal wins.
        best = None
        best_d = REFERENT_WINDOW + 1
        for ordn in (i - 1, i):
            if ordn < 0 or ordn >= len(recs):
                continue
            base, size = recs[ordn]
            if addr >= base + size:
                d = addr - (base + size - 1)
            elif end <= base:
                d = base - (end - 1)
            else:
                d = 0  # partial overlap
            if d < best_d:
                best_d = d
                best = (ordn, base, size)
        if best is not None and best_d <= REDZONE:
            return A_REDZONE, best, addr - best[1]
        if best is not None:
            return A_UNMAPPED, best, addr - best[1]
        return A_UNMAPPED, None, None

    def _read8_redzone_zeroed(self, addr: int) -> int:
        """Raw read with bytes that fall inside any redzone band forced to 0.

        A band is the redzone bytes on either side of one allocation.  Bands
        of allocations below the predecessor of addr end at or before its
        base, so only allocations from that predecessor up to the last one
        whose lower band starts within the 8 bytes can touch the read.
        """
        rz = REDZONE
        alloc = self.alloc
        bases = alloc.bases
        end = addr + 8
        lo = max(bisect_right(bases, addr) - 1, 0)
        hi = bisect_right(bases, end - 1 + rz)
        keep = (1 << 64) - 1
        for base, size in alloc.recs[lo:hi]:
            for band_lo, band_hi in ((base - rz, base), (base + size, base + size + rz)):
                first = max(band_lo, addr)
                last = min(band_hi, end)
                if first < last:
                    keep &= ~(((1 << (8 * (last - first))) - 1) << (8 * (first - addr)))
        return self.raw_read8(addr) & keep


@dataclass
class RunResult:
    """Final architectural state of one run."""

    regs: tuple[int, ...]
    flags: tuple[int, int]
    pc: InstructionId | None
    sp: int
    halted: bool
    steps: int
    fault: Fault | None
    machine: Machine = field(repr=False, default=None)

    def state_fingerprint(self, skip_regs: tuple[int, ...] = (),
                          skip_stack: bool = False) -> tuple:
        """Canonical comparable snapshot of the architectural state.

        skip_stack drops pages of the stack region, whose bytes encode
        instruction positions and therefore differ between two programs
        that behave alike but are laid out differently.
        """
        regs = tuple(v for i, v in enumerate(self.regs) if i not in skip_regs)
        pages = self.machine.canonical_memory()
        if skip_stack:
            lo, hi = STACK_LO >> 12, (STACK_HI - 1) >> 12
            pages = {no: b for no, b in pages.items() if not lo <= no <= hi}
        mem = tuple(sorted(pages.items()))
        allocs = tuple(self.machine.alloc.recs)
        return (regs, self.flags, self.sp, self.halted, mem, allocs,
                self.machine.alloc.bump)


def _result(image: ExecImage, m: Machine, steps: int, out: int | Fault) -> RunResult:
    """The result of a run of image on m that stopped after steps steps
    with outcome out: OUT_HALT, the Fault that ended it, or OUT_OK when it
    reached its step limit, which is reported as a step-limit fault at pc."""
    pc_iid = image.iid_of[m.pc] if m.pc < len(image.code) else None
    if out == OUT_OK:
        out = Fault(F_STEP, pc_iid)
    return RunResult(tuple(m.regs), (m.fa, m.fb), pc_iid, m.sp, out == OUT_HALT,
                     steps, out if isinstance(out, Fault) else None, m)


def run_architectural(
    program: Program | ExecImage,
    input_bytes: bytes = b"",
    max_steps: int = DEFAULT_MAX_STEPS,
) -> RunResult:
    """Run a program with plain architectural semantics to HALT, fault, or
    the step limit."""
    image = program if isinstance(program, ExecImage) else ExecImage(program)
    m = Machine(image, input_bytes)
    steps = 0
    out = OUT_OK
    handlers = image.handlers
    while steps < max_steps:
        out = handlers[m.pc](m, None)
        steps += 1
        if out:
            break
    return _result(image, m, steps, out)


__all__ = [
    "A_VALID", "A_SCRATCH", "A_REDZONE", "A_UNMAPPED",
    "F_OOB", "F_DIV", "F_JTAB", "F_RET", "F_STACK", "F_HEAP", "F_STEP",
    "OUT_OK", "OUT_HALT",
    "SCRATCH_BASE", "SCRATCH_SIZE", "STATIC_BASE", "STACK_LO", "STACK_HI",
    "HEAP_BASE", "HEAP_CEILING", "REDZONE", "REFERENT_WINDOW",
    "AccessClass", "Fault", "AllocationTable", "ExecImage",
    "Machine", "RunResult", "run_architectural", "RET_ENC_BASE",
    "DEFAULT_MAX_STEPS", "K_PLAIN", "K_FENCE", "K_RET", "K_BR", "K_CALL",
    "K_JUMP", "KIND_OF_OP",
]
