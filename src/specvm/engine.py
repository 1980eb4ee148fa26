"""Speculation exposure: run a program and also execute what it would have
executed down mispredicted branches.

Every architectural conditional branch opens a simulation tree: first the
inverted outcome is followed speculatively (a checkpoint is pushed, the
write log rewinds memory afterwards), then execution resumes normally.
Inside a speculative path every further conditional branch forks the same
way while the tree is below its allowed nesting order, and the correct
outcome then continues at the same depth without a new frame.

A speculative path retires when it reaches a FENCE (before executing it),
executes HALT, faults, or exhausts the speculation window.  The window is
charged per basic block on entry, in chunks of at most ``stride``
instructions, and a chunk is admitted only while the counter is strictly
below the window.  A call suspends the rest of the caller's block
accounting and the matching return resumes it.

The window state lives in the frame of ``ExposureEngine._spec_run``, one
frame per speculative path: the counter, the unpaid rest of the current
block, the prepaid budget and the stack of accounting suspended by calls
are its locals.  A tree opens with the counter at zero; a nested path
starts from its parent's counter and a copy of its call stack, so sibling
paths do not consume each other's budget, and the parent's locals are all
the accounting a rollback must return to.  A checkpoint therefore holds
only a copy of the registers, the flags, pc, sp, the allocator's bump
pointer and allocation count, and the write-log length.  Rollback makes
the saved copy the registers, rewinds memory through the write log, and
truncates the allocation table only when the path allocated.

A path opens with one lookup in the image's branch table (``ExecImage.br``)
and its loop dispatches on the instruction kind (``ExecImage.kinds``): a
plain instruction is one handler call and one test of its outcome, FENCE
retires the path before the window is charged, a BR takes its successor
and the entered block's length from the branch table, and only the other
control kinds look up the block entered, at the new pc, and move the
block and call accounting.  The run loop dispatches the same way.  What
every path reads of the image and the configuration is bound once per
engine, in one tuple.

Runs do not start from a fresh Machine.  The program is run once, with no
input, up to the first instruction that could depend on the input or open
a tree: before the first BR (with simulation on, a BR opens a tree, whose
records carry the input id and whose order may bump BranchStats; with it
off, the prefix stops there as well, so that one rule serves both), INPUT
or INPUTLEN (the only readers of the input), or the step limit.  A HALT
or a fault in that prefix ends it before the instruction, which handlers
leave in place, so every run executes it itself.  Every run then starts
from a fork of the resulting machine, with the prefix's step count and
edges.  This is sound because no instruction in the prefix reads the
input, opens a tree or consults the statistics: each run would have
computed exactly that state first, architecturally, and the fork gives
each run its own copy of everything it can change.

That start state depends only on the image and the step limit, so it is
computed once per image and limit, by the first engine built with them,
and kept in ``ExecImage.start_states``.  Every later engine on the image,
for a fuzz session or shard, a ``run_with_exposure`` call or an input of
``verify_hardening``, forks the same machine.  The kept machine holds no
image, so the cache closes no reference cycle; each run's fork attaches
the engine's image.

How deep a tree may nest is rationed out by ``allowed_order``: the n-th
distinct input to reach a branch may nest up to 1 + max{j : n mod base^j
== 0} levels, so every input gets single-level simulation and ever rarer
inputs get ever deeper trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .detect import DEFAULT_IDENTITY, SpecContext, ViolationRecord, dedup_key
from .isa import Program
from .machine import (
    DEFAULT_MAX_STEPS,
    K_BR,
    K_CALL,
    K_FENCE,
    K_RET,
    O_INPUT,
    O_INPUTLEN,
    OUT_HALT,
    OUT_OK,
    ExecImage,
    Machine,
    RunResult,
    _result,
)

DEFAULT_WINDOW = 250
DEFAULT_STRIDE = 50
DEFAULT_MAX_ORDER = 6
DEFAULT_ORDER_BASE = 4

RETIRE_FENCE = "fence"
RETIRE_HALT = "halt"
RETIRE_FAULT = "fault"
RETIRE_WINDOW = "window"

_READS_INPUT = (O_INPUT, O_INPUTLEN)


class EngineError(RuntimeError):
    """Internal consistency failure of the exposure engine."""


@dataclass(frozen=True)
class SpecConfig:
    """Tuning knobs for the exposure engine."""

    window: int = DEFAULT_WINDOW
    stride: int = DEFAULT_STRIDE
    max_order: int = DEFAULT_MAX_ORDER
    order_base: int = DEFAULT_ORDER_BASE
    simulate: bool = True
    max_steps: int = DEFAULT_MAX_STEPS

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be at least 1")
        if self.stride < 1:
            raise ValueError("stride must be at least 1")
        if self.max_order < 1:
            raise ValueError("max_order must be at least 1")
        if self.order_base < 2:
            raise ValueError("order_base must be at least 2")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


def allowed_order(n: int, base: int = DEFAULT_ORDER_BASE,
                  cap: int = DEFAULT_MAX_ORDER) -> int:
    """Nesting order granted to the n-th distinct input reaching a branch.

    1 + the largest j with n divisible by base**j, clamped to [1, cap].
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    j = 0
    while n % base == 0:
        n //= base
        j += 1
    return min(1 + j, cap)


class BranchStats:
    """Count of distinct fuzzing inputs per conditional branch."""

    def __init__(self, counts: dict[str, int] | None = None):
        self._counts: dict[str, int] = dict(counts or {})

    def bump(self, branch: str) -> int:
        n = self._counts.get(branch, 0) + 1
        self._counts[branch] = n
        return n

    def count(self, branch: str) -> int:
        return self._counts.get(branch, 0)

    def to_dict(self) -> dict[str, int]:
        return dict(self._counts)


def full_order_stats(program: Program, config: SpecConfig | None = None) -> BranchStats:
    """Stats with counts set so the next input pushes every branch to the
    maximum nesting order.  Used when one run should simulate as deep as
    allowed."""
    cfg = config or SpecConfig()
    n = cfg.order_base ** (cfg.max_order - 1) - 1
    return BranchStats({str(iid): n for iid in program.branch_ids()})


@dataclass
class RunTrace:
    """Everything one exposed run produced."""

    result: RunResult
    records: list[ViolationRecord]
    edges: set[tuple[int, int]]
    max_order: dict[str, int]
    arch_steps: int
    spec_steps: int
    retired: dict[str, int] = field(default_factory=dict)

    def deduped(self, mode: str = DEFAULT_IDENTITY) -> dict[tuple, ViolationRecord]:
        """The first record of each dedup key, by key, in record order."""
        out = {}
        for r in self.records:
            k = dedup_key(r, mode)
            if k not in out:
                out[k] = r
        return out


class ExposureEngine:
    """Drives one Machine with simulation trees at conditional branches.

    The start state of every run is computed once per image and step
    limit, by the first engine built with them, and shared by the rest (see
    the module docstring): ``start`` is the machine after the program's
    input-independent prefix, with no image, ``start_steps`` the
    instructions that prefix executed, ``start_edges`` the edges it took
    and ``start_block`` the block it ended in.  ``run`` forks ``start`` for
    its input, attaches the image and continues from there.
    """

    def __init__(self, program: Program | ExecImage,
                 config: SpecConfig | None = None):
        self.image = program if isinstance(program, ExecImage) else ExecImage(program)
        self.cfg = config or SpecConfig()
        # What every speculative path reads, bound once for all of them.
        image = self.image
        self._tree = (image.handlers, image.kinds, image.br, image.block_of,
                      image.block_lens, image.iid_str, self.cfg.window,
                      self.cfg.stride)
        max_steps = self.cfg.max_steps
        start = image.start_states.get(max_steps)
        if start is None:
            start = image.start_states[max_steps] = _start_state(image, max_steps)
        self.start, self.start_steps, self.start_edges, self.start_block = start
        # Per-run state, reset in run()
        self.m: Machine | None = None
        self.ctx: SpecContext | None = None
        self.checkpoints: list[tuple] = []
        self.spec_steps = 0
        self.retired: dict[str, int] = {}

    # -- checkpointing -------------------------------------------------------

    def push_checkpoint(self, branch_iid: str) -> None:
        checkpoints = self.checkpoints
        if len(checkpoints) > self.cfg.max_order:
            raise EngineError("checkpoint-overflow")
        m = self.m
        alloc = m.alloc
        ctx = self.ctx
        checkpoints.append((
            m.regs[:], m.fa, m.fb, m.pc, m.sp,
            alloc.bump, len(alloc.recs), len(ctx.wlog),
        ))
        ctx.branches.append(branch_iid)

    def rollback(self) -> None:
        if not self.checkpoints:
            raise EngineError("internal-log-underflow")
        regs, fa, fb, pc, sp, bump, n_alloc, n_log = self.checkpoints.pop()
        m = self.m
        ctx = self.ctx
        wlog = ctx.wlog
        if len(wlog) != n_log:
            if len(wlog) < n_log:
                raise EngineError("internal-log-underflow")
            write = m.write_bytes
            while len(wlog) > n_log:
                addr, old = wlog.pop()
                write(addr, old)
        # The saved copy becomes the registers: the path's list is dropped.
        m.regs = regs
        m.fa = fa
        m.fb = fb
        m.pc = pc
        m.sp = sp
        alloc = m.alloc
        if len(alloc.recs) != n_alloc:
            # The bump pointer moves only with a new allocation.
            alloc.bump = bump
            del alloc.recs[n_alloc:]
            del alloc.bases[n_alloc:]
        ctx.branches.pop()

    # -- speculative execution ----------------------------------------------

    def _spec_run(self, depth: int, order: int, pc: int, counter: int,
                  acct: list[tuple[int, int]]) -> None:
        """Follow the inverted outcome of the BR at pc as one speculative
        path of nesting depth ``depth``, to retirement, then roll back to the
        branch.

        ``counter`` is the window already spent when the path opens and
        ``acct`` the (remaining, budget) pairs suspended by the calls still
        open; the path owns both and may change ``acct``.  Its own block
        accounting starts at the entered block, and every branch it nests
        below ``order`` opens a child path with its counter and a copy of
        its ``acct``, so these locals are exactly the state a rollback of
        the child returns to.
        """
        m = self.m
        ctx = self.ctx
        (handlers, kinds, br, block_of, block_lens, iid_str, window,
         stride) = self._tree
        self.push_checkpoint(iid_str[pc])
        cond, t_pc, t_blk, f_pc, f_blk = br[pc]
        if cond(m.fa, m.fb):
            m.pc = f_pc
            remaining = block_lens[f_blk]
        else:
            m.pc = t_pc
            remaining = block_lens[t_blk]
        budget = 0
        steps = 0
        while True:
            pc = m.pc
            kind = kinds[pc]
            if kind == K_FENCE:
                reason = RETIRE_FENCE
                break
            # Charge the window: a new chunk of the current block, at most
            # stride instructions, is admitted only while the counter is
            # below the window.
            if not budget:
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
            steps += 1
            if not kind:
                out = handlers[pc](m, ctx)
                if out:
                    reason = RETIRE_HALT if out == OUT_HALT else RETIRE_FAULT
                    break
                continue
            if kind == K_BR:
                if depth < order:
                    self._spec_run(depth + 1, order, pc, counter, acct[:])
                cond, t_pc, t_blk, f_pc, f_blk = br[pc]
                if cond(m.fa, m.fb):
                    m.pc, remaining = t_pc, block_lens[t_blk]
                else:
                    m.pc, remaining = f_pc, block_lens[f_blk]
                budget = 0
                continue
            out = handlers[pc](m, ctx)
            if out:
                reason = RETIRE_HALT if out == OUT_HALT else RETIRE_FAULT
                break
            if kind == K_RET:
                if acct:
                    remaining, budget = acct.pop()
                else:
                    remaining = budget = 0
                continue
            if kind == K_CALL:
                acct.append((remaining, budget))
            remaining = block_lens[block_of[m.pc]]
            budget = 0
        self.spec_steps += steps
        retired = self.retired
        retired[reason] = retired.get(reason, 0) + 1
        self.rollback()

    # -- the exposed run ------------------------------------------------------

    def run(self, input_bytes: bytes, stats: BranchStats | None = None,
            input_id: str | None = None, run_serial: int = 0) -> RunTrace:
        cfg = self.cfg
        image = self.image
        m = self.m = self.start.fork(input_bytes)
        m.image = image
        ctx = self.ctx = SpecContext(input_id=input_id, run_serial=run_serial)
        self.checkpoints = []
        self.spec_steps = 0
        self.retired = {}
        order_of: dict[str, int] = {}
        edges = set(self.start_edges)
        kinds = image.kinds
        handlers = image.handlers
        block_of = image.block_of
        simulate = cfg.simulate
        max_steps = cfg.max_steps
        cur_block = self.start_block
        steps = self.start_steps
        out = OUT_OK
        while steps < max_steps:
            pc = m.pc
            kind = kinds[pc]
            if kind <= K_FENCE:
                out = handlers[pc](m, None)
                steps += 1
                if out:
                    break
                continue
            if kind == K_BR and simulate:
                iid = image.iid_str[pc]
                order = order_of.get(iid)
                if order is None:
                    if stats is not None:
                        n = stats.bump(iid)
                        order = allowed_order(n, cfg.order_base, cfg.max_order)
                    else:
                        order = cfg.max_order
                    order_of[iid] = order
                self._spec_run(1, order, pc, 0, [])
            out = handlers[pc](m, None)
            steps += 1
            if out:
                break
            block = block_of[m.pc]
            if kind != K_RET:
                edges.add((cur_block, block))
            cur_block = block
        return RunTrace(_result(m, steps, out), ctx.records, edges, order_of,
                        steps, self.spec_steps, self.retired)


def _start_state(image: ExecImage, max_steps: int) -> tuple:
    """Run the image from a fresh Machine with no input up to the first BR,
    INPUT or INPUTLEN, HALT, fault or max_steps, and return the start state
    of every run: (machine, steps, edges, block).  The machine is detached
    from the image, which keeps it, and each run's fork attaches its own."""
    code = image.code
    kinds = image.kinds
    handlers = image.handlers
    block_of = image.block_of
    m = Machine(image, b"")
    edges: set[tuple[int, int]] = set()
    cur_block = image.entry_block
    steps = 0
    while steps < max_steps:
        pc = m.pc
        kind = kinds[pc]
        if kind == K_BR or code[pc][0] in _READS_INPUT:
            break
        if handlers[pc](m, None):
            # HALT and faults leave pc and the rest of the state in
            # place, so each run executes this instruction again.
            break
        steps += 1
        if kind >= K_RET:
            block = block_of[m.pc]
            if kind != K_RET:
                edges.add((cur_block, block))
            cur_block = block
    m.image = None
    return m, steps, frozenset(edges), cur_block


def run_with_exposure(program: Program | ExecImage, input_bytes: bytes = b"",
                      config: SpecConfig | None = None,
                      stats: BranchStats | None = None,
                      input_id: str | None = None, run_serial: int = 0) -> RunTrace:
    """Run one input with speculation exposure and return its trace."""
    return ExposureEngine(program, config).run(
        input_bytes, stats, input_id, run_serial)


__all__ = [
    "DEFAULT_WINDOW", "DEFAULT_STRIDE", "DEFAULT_MAX_ORDER", "DEFAULT_ORDER_BASE",
    "RETIRE_FENCE", "RETIRE_HALT", "RETIRE_FAULT", "RETIRE_WINDOW",
    "EngineError", "SpecConfig", "allowed_order", "BranchStats",
    "full_order_stats", "RunTrace", "ExposureEngine", "run_with_exposure",
]
