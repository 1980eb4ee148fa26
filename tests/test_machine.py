"""Architectural interpreter: memory model, access rules, faults, calls."""

import gc

from hypothesis import given, settings, strategies as st

from refspec import alloc_restore, alloc_snapshot
from specvm.gadgets import builtin_gadget, gadget_ids
from specvm.isa import (
    WORD_MASK,
    BasicBlock,
    Cond,
    Imm,
    Instruction,
    Op,
    Program,
    Reg,
    emit_text,
    parse_program,
)
from specvm.machine import (
    A_REDZONE,
    A_SCRATCH,
    A_UNMAPPED,
    A_VALID,
    F_DIV,
    F_JTAB,
    F_OOB,
    F_RET,
    F_STACK,
    F_STEP,
    HEAP_BASE,
    HEAP_CEILING,
    OUT_OK,
    REDZONE,
    REFERENT_WINDOW,
    RET_ENC_BASE,
    SCRATCH_BASE,
    SCRATCH_SIZE,
    STACK_HI,
    STACK_LO,
    STATIC_BASE,
    AccessClass,
    ExecImage,
    Machine,
    run_architectural,
)


def run_src(src, data=b"", **kw):
    return run_architectural(parse_program(src), data, **kw)


def machine_for(src, data=b""):
    return Machine(ExecImage(parse_program(src)), data)


# -- arithmetic and flags ----------------------------------------------------

def test_const_mov_add():
    r = run_src("fn main:\ne:\n  const r0, 5\n  mov r1, r0\n  add r2, r1, 7\n  halt\n")
    assert r.halted and r.regs[2] == 12


def test_sub_wraps_unsigned():
    r = run_src("fn main:\ne:\n  const r0, 0\n  sub r1, r0, 1\n  halt\n")
    assert r.regs[1] == (1 << 64) - 1


def test_cmp_is_unsigned():
    # 2^64 - 1 compares greater than 1, not less.
    r = run_src(
        "fn main:\ne:\n  const r0, -1\n  cmp r0, 1\n  setcc r1, gt\n  setcc r2, lt\n  halt\n")
    assert (r.regs[1], r.regs[2]) == (1, 0)


def test_shift_amount_masked_to_six_bits():
    r = run_src(
        "fn main:\ne:\n  const r0, 1\n  shl r1, r0, 65\n  const r2, 8\n  shr r3, r2, 67\n  halt\n")
    assert r.regs[1] == 2  # 65 & 63 == 1
    assert r.regs[3] == 1  # 67 & 63 == 3


def test_div_is_floor_and_zero_faults():
    r = run_src("fn main:\ne:\n  const r0, 7\n  div r1, r0, 2\n  halt\n")
    assert r.regs[1] == 3
    r = run_src("fn main:\ne:\n  const r0, 0\n  div r1, r0, r2\n  halt\n")
    assert r.fault is not None and r.fault.kind == F_DIV


def test_input_and_inputlen():
    r = run_src(
        "fn main:\ne:\n  input r0, 1\n  input r1, 9\n  inputlen r2\n  halt\n",
        b"\x0a\x0b")
    assert (r.regs[0], r.regs[1], r.regs[2]) == (0x0B, 0, 2)


# -- memory layout and classification ----------------------------------------

def test_scratch_reads_and_writes():
    r = run_src(
        "fn main:\ne:\n  const r0, 64\n  const r1, 0x1234\n"
        "  store r1, r0, 0\n  load r2, r0, 0\n  halt\n")
    assert r.regs[2] == 0x1234


def test_static_data_is_mapped_and_readable():
    r = run_src('data "\\x2a\\x00\\x00\\x00\\x00\\x00\\x00\\x00"\n'
                "fn main:\ne:\n  const r0, 0x10000\n  load r1, r0, 0\n  halt\n")
    assert r.regs[1] == 0x2A


def test_read_past_static_end_faults():
    r = run_src('data "xy"\n'
                "fn main:\ne:\n  const r0, 0x10000\n  load r1, r0, 0\n  halt\n")
    assert r.fault is not None and r.fault.kind == F_OOB


def test_stack_region_is_directly_addressable():
    r = run_src(f"fn main:\ne:\n  const r0, {STACK_LO + 0xFFC}\n"
                "  const r1, -1\n  store r1, r0, 0\n  load r2, r0, 0\n  halt\n")
    assert r.regs[2] == (1 << 64) - 1  # write straddles a page boundary


def test_alloc_bases_are_aligned_and_spaced():
    m = machine_for("fn main:\ne:\n  halt\n")
    b0 = m.alloc.alloc(64)
    b1 = m.alloc.alloc(8)
    b2 = m.alloc.alloc(0)  # clamps to size 1
    assert b0 == HEAP_BASE
    assert b1 == b0 + 80  # round_up(64 + 16, 16)
    assert b2 == b1 + 32  # round_up(8 + 16, 16)
    assert m.alloc.recs == [(b0, 64), (b1, 8), (b2, 1)]


def test_access_classes_around_one_allocation():
    m = machine_for("fn main:\ne:\n  halt\n")
    base = m.alloc.alloc(64)
    assert m.check_access(base).kind == A_VALID
    assert m.check_access(base + 56).kind == A_VALID  # last full word
    rz = m.check_access(base + 64)
    assert rz.kind == A_REDZONE and rz.referent == (0, base, 64) and rz.offset == 64
    under = m.check_access(base - 8)
    assert under.kind == A_REDZONE and under.offset == -8
    far = m.check_access(base + 2048)
    assert far.kind == A_UNMAPPED and far.referent == (0, base, 64)
    assert m.check_access(base + 2048 + 4096).referent is None


def test_straddling_access_resolves_to_nearest_allocation():
    # foo+72 with a second allocation at foo+80: the next base is 1 byte
    # away while foo's end is 9 bytes away, so the referent is the second
    # allocation at offset -8.
    m = machine_for("fn main:\ne:\n  halt\n")
    b0 = m.alloc.alloc(64)
    b1 = m.alloc.alloc(64)
    acc = m.check_access(b0 + 72)
    assert acc.kind == A_REDZONE
    assert acc.referent == (1, b1, 64)
    assert acc.offset == -8


def test_redzone_zeroed_read_masks_only_redzone_bytes():
    m = machine_for("fn main:\ne:\n  halt\n")
    base = m.alloc.alloc(64)
    m.raw_write8(base + 56, 0x1111111111111111, None)
    m.raw_write8(base + 64, 0x2222222222222222, None)  # inside the redzone
    straddle = m._read8_redzone_zeroed(base + 60)
    assert straddle == 0x00000000_11111111  # top half zeroed
    assert m.raw_read8(base + 60) == 0x22222222_11111111


# Linear references for the bisecting classifier: every allocation is
# examined, so they need no assumption about allocation order.  The static
# data bound comes from the program, not from the machine.

def _linear_classify(m, program, addr, width):
    end = addr + width
    recs = m.alloc.recs
    if addr >= HEAP_BASE:
        for base, size in recs:
            if base <= addr and end <= base + size:
                return A_VALID, None, None
    elif addr >= STACK_LO:
        if end <= STACK_HI:
            return A_VALID, None, None
    elif addr >= STATIC_BASE:
        if end <= STATIC_BASE + len(program.data):
            return A_VALID, None, None
    elif addr >= SCRATCH_BASE and end <= SCRATCH_BASE + SCRATCH_SIZE:
        return A_SCRATCH, None, None
    best = None
    best_d = REFERENT_WINDOW + 1
    for ordn, (base, size) in enumerate(recs):
        if addr >= base + size:
            d = addr - (base + size - 1)
        elif end <= base:
            d = base - (end - 1)
        else:
            d = 0
        if d < best_d:
            best_d = d
            best = (ordn, base, size)
    if best is not None and best_d <= REDZONE:
        return A_REDZONE, best, addr - best[1]
    if best is not None:
        return A_UNMAPPED, best, addr - best[1]
    return A_UNMAPPED, None, None


def _linear_read8_redzone_zeroed(m, addr):
    rz = REDZONE
    v = 0
    for i in range(8):
        a = addr + i
        if not any(base - rz <= a < base + size + rz and not base <= a < base + size
                   for base, size in m.alloc.recs):
            p = m.pages.get(a >> 12)
            v |= (p[a & 0xFFF] if p is not None else 0) << (8 * i)
    return v


_sizes = st.lists(st.integers(min_value=0, max_value=80), max_size=10)


@given(
    kept=_sizes,
    dropped=_sizes,
    after=_sizes,
    width=st.sampled_from((8, 9, 16, 33, 64)),
)
@settings(max_examples=150, deadline=None)
def test_bisect_classification_matches_linear_scan(kept, dropped, after, width):
    program = parse_program('data "static data, 26 bytes long"\nfn main:\ne:\n  halt\n')
    m = Machine(ExecImage(program), b"")
    for size in kept:
        m.alloc.alloc(size)
    snap = alloc_snapshot(m.alloc)
    for size in dropped:
        m.alloc.alloc(size)
    alloc_restore(m.alloc, snap)  # the table is truncated, then grows again
    for size in after:
        m.alloc.alloc(size)
    # Nonzero bytes everywhere near the heap, so any wrongly zeroed byte shows.
    lo = HEAP_BASE - 128
    m.write_bytes(lo, bytes((i * 37 + 1) & 0xFF or 1 for i in range(m.alloc.bump + 128 - lo)))

    static_end = STATIC_BASE + len(program.data)
    edges = {static_end - width - 1, static_end - width, static_end - width + 1,
             HEAP_BASE - width - 1, HEAP_BASE - 8, HEAP_BASE - 1,
             m.alloc.bump, m.alloc.bump + REDZONE, m.alloc.bump + REFERENT_WINDOW + width}
    for base, size in m.alloc.recs:
        for edge in (base, base + size):
            for delta in (-REDZONE - width - 1, -REDZONE - width, -REDZONE - 1,
                          -REDZONE, -width - 1, -width, -8, -1, 0, 1, 7, 8,
                          REDZONE - 1, REDZONE, REDZONE + 1,
                          # the referent window's edges above and below
                          REFERENT_WINDOW - 1, REFERENT_WINDOW,
                          -REFERENT_WINDOW - width, -REFERENT_WINDOW - width + 1):
                edges.add(edge + delta)
    for addr in sorted(edges):
        want = _linear_classify(m, program, addr, width)
        assert m._classify(addr, width) == want, (addr, width)
        assert m.check_access(addr, width) == AccessClass(*want)
        assert m._read8_redzone_zeroed(addr) == _linear_read8_redzone_zeroed(m, addr), addr


def test_alloc_snapshot_restore():
    m = machine_for("fn main:\ne:\n  halt\n")
    m.alloc.alloc(8)
    snap = alloc_snapshot(m.alloc)
    m.alloc.alloc(8)
    alloc_restore(m.alloc, snap)
    assert len(m.alloc.recs) == 1 and m.alloc.bump == HEAP_BASE + 32


def test_heap_exhaustion_faults():
    heap = HEAP_CEILING - HEAP_BASE
    r = run_src(f"fn main:\ne:\n  alloc r0, {heap}\n  halt\n")
    assert r.fault is not None and r.fault.kind == "heap-exhausted"
    # The largest allocation that fits leaves no room for the next one.
    r = run_src(f"fn main:\ne:\n  alloc r0, {heap - REDZONE}\n  alloc r1, 1\n  halt\n")
    assert r.fault is not None and r.fault.kind == "heap-exhausted"
    assert r.regs[0] == HEAP_BASE and r.machine.alloc.bump == HEAP_CEILING


def test_oob_load_is_architectural_fault():
    r = run_src("fn main:\ne:\n  alloc r0, 8\n  load r1, r0, 8\n  halt\n")
    assert r.fault is not None and r.fault.kind == F_OOB
    assert r.fault.access.kind == A_REDZONE


def test_write_log_and_undo():
    m = machine_for("fn main:\ne:\n  halt\n")
    m.raw_write8(100, 0xAAAA, None)
    log = []
    m.raw_write8(100, 0xBBBB, log)
    assert m.raw_read8(100) == 0xBBBB
    addr, old = log[0]
    m.write_bytes(addr, old)
    assert m.raw_read8(100) == 0xAAAA


def test_page_straddling_write_logs_and_undoes_through_the_byte_pair():
    m = machine_for("fn main:\ne:\n  halt\n")
    addr = 0x5000 - 3  # 3 bytes on a written page, 5 on one never written
    m.write_bytes(addr, b"\x11\x22\x33")
    assert 0x5 not in m.pages
    assert m.read_bytes(addr, 8) == b"\x11\x22\x33" + bytes(5)
    assert 0x5 not in m.pages  # reading maps nothing
    log = []
    m.raw_write8(addr, 0x0807060504030201, log)
    assert log == [(addr, b"\x11\x22\x33" + bytes(5))]
    assert m.raw_read8(addr) == 0x0807060504030201
    assert m.read_bytes(addr, 8) == bytes(range(1, 9))
    m.write_bytes(*log[0])
    assert m.raw_read8(addr) == 0x332211


def test_canonical_memory_drops_zero_pages():
    m = machine_for("fn main:\ne:\n  halt\n")
    m.raw_write8(0, 5, None)
    m.raw_write8(0x5000, 0, None)  # touches a page but leaves it zero
    assert set(m.canonical_memory()) == {0}


# -- control flow -------------------------------------------------------------

def test_branch_both_directions():
    src = ("fn main:\ne:\n  input r0, 0\n  cmp r0, 5\n  br lt, a, b\n"
           "a:\n  const r1, 1\n  halt\nb:\n  const r1, 2\n  halt\n")
    assert run_src(src, b"\x03").regs[1] == 1
    assert run_src(src, b"\x07").regs[1] == 2


def test_jtab_dispatch_and_bad_index():
    src = ("fn main:\ne:\n  input r0, 0\n  jtab r0, a, b\n"
           "a:\n  const r1, 1\n  halt\nb:\n  const r1, 2\n  halt\n")
    assert run_src(src, b"\x01").regs[1] == 2
    r = run_src(src, b"\x02")
    assert r.fault is not None and r.fault.kind == F_JTAB


def test_call_ret_round_trip():
    src = ("fn main:\ne:\n  call twice\n  add r0, r0, 1\n  halt\n"
           "fn twice:\ne:\n  const r0, 10\n  ret\n")
    r = run_src(src)
    assert r.halted and r.regs[0] == 11
    assert r.sp == STACK_HI  # balanced


def test_ret_on_empty_stack_faults():
    r = run_src("fn main:\ne:\n  ret\n")
    assert r.fault is not None and r.fault.kind == F_RET


def test_smashed_return_slot_faults():
    src = ("fn main:\ne:\n  call f\n  halt\n"
           f"fn f:\ne:\n  const r0, {STACK_HI - 8}\n  const r1, 12345\n"
           "  store r1, r0, 0\n  ret\n")
    r = run_src(src)
    assert r.fault is not None and r.fault.kind == F_RET


def test_stack_overflow_faults():
    r = run_src("fn main:\ne:\n  call main\n  halt\n")
    assert r.fault is not None and r.fault.kind == F_STACK
    # Every one of the stack's slots holds a return word before the fault.
    assert r.sp == STACK_LO and r.steps == (STACK_HI - STACK_LO) // 8 + 1


def test_step_limit_reports_fault():
    r = run_src("fn main:\ne:\n  jmp e\n", max_steps=50)
    assert r.fault is not None and r.fault.kind == F_STEP
    assert r.steps == 50


def test_fence_is_a_no_op_architecturally():
    r = run_src("fn main:\ne:\n  const r0, 3\n  fence\n  add r0, r0, 1\n  halt\n")
    assert r.regs[0] == 4


def test_built_immediates_run_as_their_assembled_twin():
    # A built program may hold an immediate outside 0..2**64-1; decoding
    # reduces it mod 2**64 as the assembler does, so the built program and
    # its emit/parse twin end in the same state.
    built = Program({"main": [BasicBlock("e", [
        Instruction(Op.OR, (Reg(0), Reg(1), Imm(-1))),
        Instruction(Op.CMP, (Reg(0), Imm(7))),
        Instruction(Op.SETCC, (Reg(2), Cond("gt"))),
        Instruction(Op.CMP, (Reg(2), Imm(-1 << 64 | 1))),
        Instruction(Op.SETCC, (Reg(3), Cond("eq"))),
        Instruction(Op.INPUT, (Reg(4), Imm(-1))),
        Instruction(Op.HALT, ()),
    ])]}, "main", b"")
    twin = parse_program(emit_text(built))
    a = run_architectural(built, b"\x05")
    b = run_architectural(twin, b"\x05")
    assert a.state_fingerprint() == b.state_fingerprint()
    assert a.regs[:5] == (WORD_MASK, 0, 1, 1, 0)


# -- return slot encoding ------------------------------------------------------

RET_SRC = "fn main:\ne:\n  call f\n  halt\nfn f:\ne:\n  ret\n"


def _ret_with_word(image: ExecImage, word: int):
    """Step f's RET with word in the return slot: the machine and the
    outcome."""
    m = Machine(image, b"")
    m.sp = STACK_HI - 8
    m.raw_write8(m.sp, word, None)
    m.pc = len(image.code) - 1
    return m, image.handlers[m.pc](m, None)


def test_ret_encoding_round_trip():
    image = ExecImage(parse_program(RET_SRC))
    for flat in range(len(image.code)):
        m, out = _ret_with_word(image, image.encode_ret(flat))
        assert (out, m.pc, m.sp) == (OUT_OK, flat, STACK_HI)
    assert image.encode_ret(1) == RET_ENC_BASE + 8


def test_ret_decoding_rejects_garbage():
    image = ExecImage(parse_program(RET_SRC))
    for word in (0, RET_ENC_BASE + 4, RET_ENC_BASE + 8 * 100):  # misaligned, out of range
        _, out = _ret_with_word(image, word)
        assert out.kind == F_RET


# -- handler table -------------------------------------------------------------

def test_handlers_form_no_reference_cycle_with_their_image():
    # A cycle would keep every decoded image alive until a full collection.
    programs = [builtin_gadget(gid).program for gid in gadget_ids()]
    gc.collect()
    for program in programs:
        image = ExecImage(program)
        assert len(image.handlers) == len(image.code)
    del image
    assert gc.collect() == 0


# -- results -------------------------------------------------------------------

def test_fingerprint_is_reproducible_and_discriminating():
    src = "fn main:\ne:\n  input r0, 0\n  alloc r1, 8\n  store r0, r1, 0\n  halt\n"
    a = run_src(src, b"\x01").state_fingerprint()
    b = run_src(src, b"\x01").state_fingerprint()
    c = run_src(src, b"\x02").state_fingerprint()
    assert a == b
    assert a != c


def test_fingerprint_skip_options():
    src = "fn main:\ne:\n  call f\n  halt\nfn f:\ne:\n  const r15, 9\n  ret\n"
    r = run_src(src)
    full = r.state_fingerprint()
    no_r15 = r.state_fingerprint(skip_regs=(15,))
    assert full != no_r15
    kept = r.state_fingerprint(skip_stack=True)
    pages = {no for no, _ in kept[4]}
    assert not any(STACK_LO >> 12 <= no <= (STACK_HI - 1) >> 12 for no in pages)
