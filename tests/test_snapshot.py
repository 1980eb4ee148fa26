"""Exposed runs from the prefix snapshot against the reference run.

The first ExposureEngine built on an image runs the program's
input-independent prefix and keeps the machine it leaves in the image;
every engine on that image with the same step limit forks every run from
it (see the engine module docstring).  Here one long-lived engine and a
new engine per input run a sequence of inputs, and every RunTrace must
equal what refrun.reference_run, which starts each run from a fresh
Machine, produces for the same input and branch statistics.  The start
state itself is checked against a fresh machine stepped by the reference
stepper, Machine.fork against the machine it copies, and the cache for
what it shares, what it keys by and the reference cycle it must not make.
"""

import gc
import random
import weakref

import pytest

from genprog import random_input, random_program
from refrun import reference_run
from refspec import alloc_restore
from refstep import reference_step
from specvm.engine import BranchStats, ExposureEngine, SpecConfig
from specvm.gadgets import builtin_gadget, gadget_ids
from specvm.harden import fence_pass, slh_pass
from specvm.isa import parse_program
from specvm.machine import (
    O_BR,
    O_INPUT,
    O_INPUTLEN,
    O_RET,
    OUT_OK,
    STACK_HI,
    STACK_LO,
    ExecImage,
    Machine,
)


def _trace_fields(t) -> tuple:
    r = t.result
    return (r.state_fingerprint(), r.fault, r.steps, r.pc, t.records, t.edges,
            t.max_order, t.arch_steps, t.spec_steps, t.retired)


def check_runs(program, inputs, config=None) -> None:
    """Run inputs in order through one engine, through a new engine on the
    same image for each input, which forks the start state the first one
    computed, and through the reference, each side with its own
    BranchStats fed the same history, and compare every trace."""
    image = ExecImage(program)
    engine = ExposureEngine(image, config)
    ref = ExposureEngine(image, config)
    stats, later_stats, ref_stats = BranchStats(), BranchStats(), BranchStats()
    for serial, data in enumerate(inputs):
        iid = f"in{serial}"
        got = engine.run(data, stats, input_id=iid, run_serial=serial)
        later = ExposureEngine(image, config)
        assert later.start is engine.start
        got_later = later.run(data, later_stats, input_id=iid, run_serial=serial)
        want = reference_run(ref, data, ref_stats, input_id=iid, run_serial=serial)
        assert _trace_fields(got) == _trace_fields(want), (serial, data)
        assert _trace_fields(got_later) == _trace_fields(want), (serial, data)
    assert stats.to_dict() == later_stats.to_dict() == ref_stats.to_dict()


def heap_walk_source(allocs: int = 40, steps: int = 4, size: int = 24) -> str:
    """A straight-line set-up of allocs allocations, stored into a pointer
    table, then a guarded walk over them steered by three input bytes."""
    lines = ["fn main:", "entry:", f"  alloc r1, {8 * allocs}"]
    for k in range(allocs):
        lines += [f"  alloc r2, {size}", f"  store r2, r1, {8 * k}"]
    lines += [
        "  input r3, 0", "  input r4, 1", "  or r4, r4, 1", "  input r6, 2",
        "  and r6, r6, 31", "  const r7, 0", "  const r15, 0", "  jmp head",
        "head:", f"  cmp r7, {steps}", "  br lt, body, out",
        "body:", "  mul r8, r7, r4", "  add r8, r8, r3", f"  div r9, r8, {allocs}",
        f"  mul r9, r9, {allocs}", "  sub r8, r8, r9", "  shl r9, r8, 3",
        "  add r9, r1, r9", "  load r10, r9, 0", "  load r11, r10, 0",
        "  add r15, r15, r11", f"  cmp r6, {size - 8}", "  br le, ok, skip",
        "ok:", "  add r13, r10, r6", "  load r14, r13, 0", "  add r15, r15, r14",
        "  jmp skip",
        "skip:", "  add r7, r7, 1", "  jmp head",
        "out:", "  halt",
    ]
    return "\n".join(lines) + "\n"


# The prefix allocates and writes a heap page and holds static data; odd
# first bytes then overwrite both and allocate after the prefix's
# allocations, and even ones read the prefix's word back and allocate too.
# A run that leaks a write, or an allocation, into the snapshot changes what
# the runs after it see.
PREFIX_STATE = """data "abcdefgh"
fn main:
e:
  alloc r1, 24
  const r2, 0x1111
  store r2, r1, 0
  store r2, r1, 8
  alloc r3, 40
  store r1, r3, 0
  input r4, 0
  and r5, r4, 1
  cmp r5, 0
  br eq, even, odd
odd:
  store r4, r1, 8
  const r6, 0x10000
  store r4, r6, 0
  alloc r7, 16
  store r4, r7, 0
  load r8, r7, 0
  jmp out
even:
  load r8, r1, 8
  const r6, 0x10000
  load r9, r6, 0
  alloc r7, 32
  store r8, r7, 8
  cmp r8, 0x1111
  br eq, out, bad
bad:
  load r9, r1, 40
  halt
out:
  load r9, r3, 0
  halt
"""

# (name, source, config): programs whose prefix ends in each way
# it can end, and at each kind of control transfer.
CORNERS = [
    ("halt", "fn main:\ne:\n  alloc r1, 16\n  const r2, 7\n  store r2, r1, 0\n"
     "  halt\n", None),
    ("oob-store", "fn main:\ne:\n  alloc r1, 16\n  const r2, 7\n"
     "  store r2, r1, 64\n  halt\n", None),
    ("bad-ret", "fn main:\ne:\n  const r1, 3\n  ret\n", None),
    ("div-zero", "fn main:\ne:\n  const r1, 9\n  const r2, 0\n  div r3, r1, r2\n"
     "  halt\n", None),
    ("div-zero-imm", "fn main:\ne:\n  const r1, 9\n  div r3, r1, 0\n  halt\n",
     None),
    ("heap-exhausted", "fn main:\ne:\n  alloc r1, 16\n  alloc r2, 0x8000000\n"
     "  halt\n", None),
    ("stack-overflow", "fn main:\ne:\n  const r1, 1\n  call main\n  halt\n",
     None),
    ("max-steps-loop", "fn main:\ne:\n  add r1, r1, 1\n  jmp e\n",
     SpecConfig(max_steps=50)),
    ("max-steps-straight", "fn main:\ne:\n  const r1, 1\n  const r2, 2\n"
     "  const r3, 3\n  input r4, 0\n  cmp r4, 1\n  br eq, a, b\n"
     "a:\n  halt\nb:\n  halt\n", SpecConfig(max_steps=2)),
    ("max-steps-at-input", "fn main:\ne:\n  const r1, 1\n  const r2, 2\n"
     "  input r4, 0\n  cmp r4, 1\n  br eq, a, b\na:\n  halt\nb:\n  halt\n",
     SpecConfig(max_steps=2)),
    ("call-ret", "fn main:\ne:\n  call f\n  input r1, 0\n  cmp r1, 3\n"
     "  br lt, a, b\na:\n  load r2, r9, 0\n  halt\nb:\n  halt\n"
     "fn f:\ne:\n  alloc r9, 16\n  const r2, 5\n  store r2, r9, 8\n  ret\n",
     None),
    ("jmp", "fn main:\ne:\n  const r1, 1\n  jmp n\nn:\n  alloc r2, 8\n  jmp m\n"
     "m:\n  inputlen r3\n  cmp r3, 2\n  br gt, a, b\na:\n  load r4, r2, 16\n"
     "  halt\nb:\n  halt\n", None),
    ("inputlen-first", "fn main:\ne:\n  inputlen r1\n  const r2, 0\n"
     "  cmp r1, 2\n  br ge, a, b\na:\n  load r3, r2, 0x2000\n  halt\nb:\n  halt\n",
     None),
    ("prefix-state", PREFIX_STATE, None),
    ("heap-walk", heap_walk_source(), None),
]

CORNER_INPUTS = [b"\x01", b"\x02", b"\x03", b"", b"\x05\x06\x07", b"\x04\x00",
                 b"\x09\x01\x11", b"\x0b"]


@pytest.mark.parametrize("name,src,config", CORNERS,
                         ids=[c[0] for c in CORNERS])
def test_corner_programs_run_alike(name, src, config):
    check_runs(parse_program(src), CORNER_INPUTS, config)


def test_corner_prefixes_end_where_expected():
    """Each corner's prefix stops where its name says, so the cases above
    cover every way a prefix ends."""
    starts = {name: ExposureEngine(parse_program(src), config)
              for name, src, config in CORNERS}
    assert starts["halt"].start_steps == 3
    assert starts["oob-store"].start_steps == 2
    assert starts["bad-ret"].start_steps == 1
    assert starts["div-zero"].start_steps == 2
    assert starts["div-zero-imm"].start_steps == 1
    assert starts["heap-exhausted"].start_steps == 1
    # Two steps for each slot of the stack, and the const before the
    # overflowing call.
    assert starts["stack-overflow"].start_steps == (STACK_HI - STACK_LO) // 4 + 1
    assert starts["max-steps-loop"].start_steps == 50
    assert starts["max-steps-straight"].start_steps == 2
    assert starts["max-steps-at-input"].start_steps == 2
    assert starts["call-ret"].start_steps == 5
    assert starts["jmp"].start_steps == 4
    assert len(starts["jmp"].start_edges) == 2
    assert starts["inputlen-first"].start_steps == 0
    assert starts["prefix-state"].start_steps == 6
    assert starts["heap-walk"].start_steps == 81


def _gadget_programs():
    for gid in gadget_ids():
        g = builtin_gadget(gid)
        for program in (g.program, fence_pass(g.program).program,
                        slh_pass(g.program).program):
            yield gid, program, (g.trigger, g.safe)


def test_gadgets_and_hardened_gadgets_run_alike():
    for gid, program, (trigger, safe) in _gadget_programs():
        rng = random.Random(gid)
        extra = [bytes(rng.randrange(256) for _ in range(rng.randrange(8)))
                 for _ in range(5)]
        inputs = [trigger, safe, b""] + extra + [trigger]
        check_runs(program, inputs)
        check_runs(program, [trigger, safe], SpecConfig(simulate=False))
        check_runs(program, [trigger, safe], SpecConfig(max_order=2))


@pytest.mark.parametrize("loops,recursion", [(False, False), (True, False),
                                             (False, True), (True, True)])
def test_random_programs_run_alike(loops, recursion):
    for seed in range(40):
        inputs = [random_input(seed + k) for k in range(6)]
        check_runs(random_program(seed, loops, recursion), inputs)


def _reference_start(engine) -> tuple:
    """Step a fresh machine with the reference stepper for the engine's
    prefix length, tracking edges as the run loop does; returns the machine,
    its edges and its block."""
    image = engine.image
    m = Machine(image, b"")
    edges = set()
    block = image.entry_block
    for _ in range(engine.start_steps):
        op = image.code[m.pc][0]
        assert op not in (O_BR, O_INPUT, O_INPUTLEN)
        out, entered = reference_step(m, None)
        assert out == OUT_OK
        if entered >= 0:
            edges.add((block, entered))
            block = entered
        elif op == O_RET:
            block = image.block_of[m.pc]
    return m, edges, block


def _machine_state(m: Machine) -> tuple:
    return (m.regs, m.fa, m.fb, m.pc, m.sp, m.input, m.canonical_memory(),
            m.alloc.bump, m.alloc.recs, m.alloc.bases)


def _start_state_programs():
    for name, src, config in CORNERS:
        yield parse_program(src), config
    for _, program, _ in _gadget_programs():
        yield program, None
    for seed in range(20):
        yield random_program(seed, True, True), None


def test_start_state_is_the_state_after_the_prefix():
    """The snapshot is a fresh machine after start_steps reference steps,
    none of them a BR or an input read, and the prefix is as long as it may
    be: the next instruction reads the input, branches, halts or faults, or
    the step limit is reached."""
    for program, config in _start_state_programs():
        engine = ExposureEngine(program, config)
        m, edges, block = _reference_start(engine)
        assert _machine_state(engine.start) == _machine_state(m)
        assert engine.start_edges == edges
        assert engine.start_block == block
        if engine.start_steps < engine.cfg.max_steps:
            op = engine.image.code[m.pc][0]
            assert (op in (O_BR, O_INPUT, O_INPUTLEN)
                    or reference_step(m, None)[0] != OUT_OK)


# A Machine's fields: its architectural state and nothing else.
ARCHITECTURAL_SLOTS = ("image", "input", "regs", "fa", "fb", "pc", "sp",
                       "pages", "alloc")


def _slot_value(m: Machine, name: str):
    """A comparable value of one field of m."""
    value = getattr(m, name)
    if name == "pages":
        return m.canonical_memory()
    if name == "alloc":
        return (value.bump, value.recs, value.bases)
    return value


def test_fork_copies_everything_a_run_changes():
    assert Machine.__slots__ == ARCHITECTURAL_SLOTS
    program = parse_program(PREFIX_STATE)
    image = ExecImage(program)
    m = Machine(image, b"")
    for _ in range(6):
        m.step()
    before = _machine_state(m)

    f = m.fork(b"\x07")
    for name in Machine.__slots__:
        if name == "input":
            assert f.input == b"\x07"
        elif name == "image":
            assert f.image is image
        else:
            assert _slot_value(f, name) == _slot_value(m, name), name

    f.regs[1] = 99
    f.fa = f.fb = 5
    f.pc += 1
    f.sp -= 8
    for page in f.pages.values():
        page[0] ^= 0xFF
    f.raw_write8(0x5000, 1, None)
    f.alloc.alloc(64)
    alloc_restore(f.alloc, (f.alloc.bump, 1))
    assert _machine_state(m) == before


def test_engines_share_the_start_state_of_their_step_limit():
    """One start state per image and step limit: engines that differ only
    in other settings share it, and an engine with another limit runs its
    own prefix, also when a longer one is already cached."""
    image = ExecImage(parse_program(heap_walk_source()))
    first = ExposureEngine(image)
    assert first.start_steps == 81
    for config in (None, SpecConfig(max_order=2), SpecConfig(simulate=False),
                   SpecConfig(window=7, stride=3)):
        assert ExposureEngine(image, config).start is first.start
    short = ExposureEngine(image, SpecConfig(max_steps=40))
    assert short.start is not first.start
    assert short.start_steps == 40
    assert ExposureEngine(image, SpecConfig(max_steps=40)).start is short.start
    assert set(image.start_states) == {first.cfg.max_steps, 40}
    # The short engine stops at its own limit.
    data = b"\x01\x02\x03"
    assert short.run(data).arch_steps == 40
    ref = ExposureEngine(image, SpecConfig(max_steps=40))
    assert (_trace_fields(short.run(data))
            == _trace_fields(reference_run(ref, data)))
    assert (_trace_fields(first.run(data))
            == _trace_fields(reference_run(ExposureEngine(image), data)))


def test_an_image_with_a_cached_start_state_is_freed_by_reference_counting():
    gc.collect()
    gc.disable()
    try:
        image = ExecImage(parse_program(PREFIX_STATE))
        engine = ExposureEngine(image)
        trace = engine.run(b"\x01")
        assert image.start_states and engine.start.image is None
        alive = weakref.ref(image)
        del image, engine, trace
        assert alive() is None
    finally:
        gc.enable()
