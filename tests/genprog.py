"""Seeded random program generator for differential and transparency tests.

Every generated program terminates by construction: branches, jumps, and
jump tables only target blocks that come later in the same function, and
calls only reach functions generated after the caller.  With ``loops=True``
a function may also hold one counted loop, the only backward edge:

* its header block sets the loop counter (1 to 4) and branches only into
  the loop body, the blocks after it up to the latch;
* no block outside the loop may enter the body except through the header;
* the latch decrements the counter and branches back to the first body
  block until it reaches zero, otherwise to a block after the loop.

Each function has its own counter register, which no generated instruction
other than the header and latch writes, so every loop runs at most four
times per entry.  Under speculation a latch may be mispredicted back into
the body with the counter at zero; the window bounds that path.

With ``recursion=True`` one function other than the entry calls itself,
with a depth cap.  The entry function first sets the depth register r10
(1 to 4) and calls the recursive function, whose added first block is

    r:   cmp r10, 0 ; br eq, b0, rc     (or the inverse polarity)
    rc:  sub r10, r10, 1 ; ... ; call <self> ; add r10, r10, 1 ; jmp b0

so every entry to it recurses as many levels as the register says and
restores the register on the way out.  No other generated instruction
writes r10, so recursion never nests deeper than four calls.  Under
speculation the guard may be mispredicted with r10 at zero; the path then
recurses with a wrapped counter until the window or the stack ends it.

Architectural faults (division by zero, an out of range access that
leaves the mapped regions) are possible and fine; both executors under
test must agree on them.

Registers r0 through r13 are used, leaving r14 and r15 free so the same
programs can be pushed through the masking hardener.  With loops, r11 to
r13 are the counters of the first, second and third function and
instructions write only r0 to r10; with recursion they write only r0 to
r9.
"""

from __future__ import annotations

import random

from specvm.isa import (
    BasicBlock,
    Cond,
    CONDITIONS,
    FnRef,
    Imm,
    Instruction,
    Lab,
    Op,
    Program,
    Reg,
    validate,
)

ARITH = (Op.ADD, Op.SUB, Op.MUL, Op.AND, Op.OR, Op.XOR, Op.SHL, Op.SHR)

# Offsets used for random loads and stores against a 24-byte allocation:
# a healthy mix of in-bounds, redzone, and far out-of-bounds targets.
OFFSETS = (0, 8, 16, 23, 24, 32, -1, -8, 100, 5000)


def _rand_value(rng: random.Random) -> int:
    return rng.choice((0, 1, 2, 7, 8, 16, 255, rng.randrange(1 << 16)))


DEPTH_REG = 10  # recursion depth register: only its set-up and the guard write it


class _FnGen:
    def __init__(self, rng: random.Random, name: str, callees: list[str], is_entry: bool,
                 counter: int | None = None, recursion: bool = False,
                 recursive: bool = False):
        self.rng = rng
        self.name = name
        self.callees = callees
        self.is_entry = is_entry
        self.counter = counter  # loop counter register, None without loops
        self.recursive = recursive  # this function calls itself
        # Registers instructions write: those below the loop counters and
        # the recursion depth register.
        if recursion:
            self.n_regs = DEPTH_REG
        else:
            self.n_regs = 14 if counter is None else 11
        self.alloc_regs: list[int] = []

    def _body_instr(self) -> list[Instruction]:
        rng = self.rng
        roll = rng.random()
        dst = rng.randrange(self.n_regs)
        if roll < 0.18:
            return [Instruction(Op.CONST, (Reg(dst), Imm(_rand_value(rng))))]
        if roll < 0.30:
            src = Reg(rng.randrange(14))
            third = Reg(rng.randrange(14)) if rng.random() < 0.5 else Imm(_rand_value(rng))
            return [Instruction(rng.choice(ARITH), (Reg(dst), src, third))]
        if roll < 0.40:
            return [Instruction(Op.INPUT, (Reg(dst), Imm(rng.randrange(8))))]
        if roll < 0.46:
            return [Instruction(Op.INPUTLEN, (Reg(dst),))]
        if roll < 0.54:
            self.alloc_regs.append(dst)
            return [Instruction(Op.ALLOC, (Reg(dst), Imm(24)))]
        if roll < 0.60:
            return [Instruction(Op.SETCC, (Reg(dst), Cond(rng.choice(CONDITIONS))))]
        if roll < 0.66 and rng.random() < 0.3:
            src = Reg(rng.randrange(14))
            return [Instruction(Op.DIV, (Reg(dst), src, Reg(rng.randrange(14))))]
        if roll < 0.85 and self.alloc_regs:
            base = rng.choice(self.alloc_regs)
            off = rng.choice(OFFSETS)
            if rng.random() < 0.5:
                return [Instruction(Op.LOAD, (Reg(dst), Reg(base), Imm(off)))]
            return [Instruction(Op.STORE, (Reg(dst), Reg(base), Imm(off)))]
        return [Instruction(Op.MOV, (Reg(dst), Reg(rng.randrange(14))))]

    def _compare(self) -> list[Instruction]:
        """A cmp whose left side usually carries an input byte."""
        rng = self.rng
        reg = rng.randrange(self.n_regs)
        out = []
        if rng.random() < 0.7:
            out.append(Instruction(Op.INPUT, (Reg(reg), Imm(rng.randrange(4)))))
        rhs = Imm(rng.choice((0, 1, 4, 8, 16))) if rng.random() < 0.7 else Reg(rng.randrange(14))
        out.append(Instruction(Op.CMP, (Reg(reg), rhs)))
        return out

    def _counter_init(self) -> list[Instruction]:
        rng, ctr = self.rng, Reg(self.counter)
        if rng.random() < 0.5:
            return [Instruction(Op.CONST, (ctr, Imm(rng.randrange(1, 4))))]
        return [Instruction(Op.INPUT, (ctr, Imm(rng.randrange(4)))),
                Instruction(Op.AND, (ctr, ctr, Imm(3))),
                Instruction(Op.ADD, (ctr, ctr, Imm(1)))]

    def _latch(self, body: str, exits: list[str]) -> list[Instruction]:
        rng, ctr = self.rng, Reg(self.counter)
        out = rng.choice(exits)
        br = (Instruction(Op.BR, (Cond("ne"), Lab(body), Lab(out))) if rng.random() < 0.5
              else Instruction(Op.BR, (Cond("eq"), Lab(out), Lab(body))))
        return [Instruction(Op.SUB, (ctr, ctr, Imm(1))),
                Instruction(Op.CMP, (ctr, Imm(0))), br]

    def _recursion_guard(self, body: str) -> list[BasicBlock]:
        """Blocks r and rc (see the module docstring), entering at r."""
        rng, depth = self.rng, Reg(DEPTH_REG)
        br = (Instruction(Op.BR, (Cond("eq"), Lab(body), Lab("rc"))) if rng.random() < 0.5
              else Instruction(Op.BR, (Cond("ne"), Lab("rc"), Lab(body))))
        rc = [Instruction(Op.SUB, (depth, depth, Imm(1)))]
        for _ in range(rng.randrange(3)):
            rc.extend(self._body_instr())
        rc += [Instruction(Op.CALL, (FnRef(self.name),)),
               Instruction(Op.ADD, (depth, depth, Imm(1))),
               Instruction(Op.JMP, (Lab(body),))]
        return [BasicBlock("r", [Instruction(Op.CMP, (depth, Imm(0))), br]),
                BasicBlock("rc", rc)]

    def build(self, n_blocks: int) -> list[BasicBlock]:
        rng = self.rng
        labels = [f"b{i}" for i in range(n_blocks)]
        # (header, latch) of this function's loop; the body is header+1..latch.
        loop = None
        if self.counter is not None and n_blocks >= 3 and rng.random() < 0.8:
            head = rng.randrange(n_blocks - 2)
            loop = (head, rng.randrange(head + 1, n_blocks - 1))
        blocks = []
        for i, label in enumerate(labels):
            instrs: list[Instruction] = []
            for _ in range(rng.randrange(1, 5)):
                instrs.extend(self._body_instr())
            if self.callees and rng.random() < 0.35:
                instrs.append(Instruction(Op.CALL, (FnRef(rng.choice(self.callees)),)))
            later = labels[i + 1 :]
            if loop is not None:
                head, latch = loop
                if i < head:
                    later = labels[i + 1 : head + 1] + labels[latch + 1 :]
                elif i == head:
                    later = labels[head + 1 : latch + 1]
                    instrs.extend(self._counter_init())
                elif i == latch:
                    instrs.extend(self._latch(labels[head + 1], later))
                    blocks.append(BasicBlock(label, instrs))
                    continue
            if not later:
                term = Instruction(Op.HALT) if self.is_entry else Instruction(Op.RET)
            else:
                roll = rng.random()
                if roll < 0.55:
                    instrs.extend(self._compare())
                    taken, fall = rng.choice(later), rng.choice(later)
                    term = Instruction(
                        Op.BR, (Cond(rng.choice(CONDITIONS)), Lab(taken), Lab(fall))
                    )
                elif roll < 0.70 and len(later) >= 2:
                    idx = rng.randrange(self.n_regs)
                    instrs.append(Instruction(Op.INPUT, (Reg(idx), Imm(0))))
                    instrs.append(Instruction(Op.AND, (Reg(idx), Reg(idx), Imm(1))))
                    targets = tuple(Lab(rng.choice(later)) for _ in range(2))
                    term = Instruction(Op.JTAB, (Reg(idx),) + targets)
                else:
                    term = Instruction(Op.JMP, (Lab(rng.choice(later)),))
            instrs.append(term)
            blocks.append(BasicBlock(label, instrs))
        if self.recursive:
            blocks[:0] = self._recursion_guard(labels[0])
        return blocks


def random_program(seed: int, loops: bool = False, recursion: bool = False) -> Program:
    """Deterministically generate a small, always-terminating program,
    with counted loops when loops is set and capped recursion when
    recursion is set.  The loop and recursion code draw nothing from the
    seeded generator when they are off, so such programs are unchanged."""
    rng = random.Random(seed)
    n_fns = rng.randrange(1, 4)
    recursive = None
    if recursion:
        n_fns = max(n_fns, 2)
        recursive = rng.randrange(1, n_fns)
    names = [f"f{i}" for i in range(n_fns)]
    functions = {}
    for i, name in enumerate(names):
        gen = _FnGen(rng, name, callees=names[i + 1 :], is_entry=(i == 0),
                     counter=13 - i if loops else None, recursion=recursion,
                     recursive=i == recursive)
        functions[name] = gen.build(rng.randrange(3, 7) if loops else rng.randrange(2, 5))
    if recursion:
        depth = Reg(DEPTH_REG)
        init = ([Instruction(Op.CONST, (depth, Imm(rng.randrange(1, 5))))]
                if rng.random() < 0.5 else
                [Instruction(Op.INPUT, (depth, Imm(rng.randrange(4)))),
                 Instruction(Op.AND, (depth, depth, Imm(3))),
                 Instruction(Op.ADD, (depth, depth, Imm(1)))])
        init.append(Instruction(Op.CALL, (FnRef(names[recursive]),)))
        functions[names[0]][0].instrs[:0] = init
    prog = Program(functions=functions, entry=names[0], data=bytes(rng.randrange(256) for _ in range(rng.randrange(0, 9))))
    problems = validate(prog)
    assert not problems, problems
    return prog


def random_input(seed: int) -> bytes:
    rng = random.Random(seed ^ 0x5EED)
    return bytes(rng.randrange(256) for _ in range(rng.randrange(0, 9)))
