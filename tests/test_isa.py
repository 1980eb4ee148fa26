"""Assembler, emitter, and structural validation."""

import pytest
from hypothesis import given, strategies as st

from specvm.isa import (
    AsmError,
    BasicBlock,
    Cond,
    Imm,
    Instruction,
    InstructionId,
    Lab,
    Op,
    Program,
    Reg,
    emit_text,
    parse_program,
    validate,
)

GOOD = """\
data "abc\\x00\\xff"
fn main:
entry:
  const r0, 7
  cmp r0, 0x10
  br lt, low, high
low:
  call helper
  halt
high:
  jmp low
fn helper:
entry:
  alloc r1, 24
  store r0, r1, 8
  load r2, r1, 8
  ret
"""


def test_parse_good_program():
    p = parse_program(GOOD)
    assert p.entry == "main"
    assert set(p.functions) == {"main", "helper"}
    assert p.data == b"abc\x00\xff"
    assert [b.label for b in p.functions["main"]] == ["entry", "low", "high"]


def test_emit_parse_round_trip():
    p = parse_program(GOOD)
    q = parse_program(emit_text(p))
    assert q.data == p.data
    assert list(q.functions) == list(p.functions)
    for fn in p.functions:
        assert [b.instrs for b in q.functions[fn]] == [b.instrs for b in p.functions[fn]]


def test_entry_is_first_function():
    p = parse_program("fn aux:\ne:\n  halt\nfn other:\ne:\n  halt\n")
    assert p.entry == "aux"


def test_comment_stripping_keeps_semicolon_in_data():
    p = parse_program('data "a;b"\nfn main:\ne:\n  halt ; trailing\n')
    assert p.data == b"a;b"
    assert p.functions["main"][0].instrs == [Instruction(Op.HALT, ())]


def test_instruction_id_round_trip():
    iid = InstructionId("f", "blk", 3)
    assert str(iid) == "f:blk:3"
    assert InstructionId.parse("f:blk:3") == iid


def test_missing_terminator_is_diagnosed():
    with pytest.raises(AsmError) as ei:
        parse_program("fn main:\ne:\n  const r0, 1\n")
    assert any("terminator" in d.message for d in ei.value.diagnostics)


def test_terminator_mid_block_is_diagnosed():
    with pytest.raises(AsmError) as ei:
        parse_program("fn main:\ne:\n  halt\n  const r0, 1\n  halt\n")
    assert any("before block end" in d.message for d in ei.value.diagnostics)


def test_unresolved_label_is_diagnosed():
    with pytest.raises(AsmError) as ei:
        parse_program("fn main:\ne:\n  jmp nowhere\n")
    assert any("nowhere" in d.message for d in ei.value.diagnostics)


def test_unknown_function_call_is_diagnosed():
    with pytest.raises(AsmError) as ei:
        parse_program("fn main:\ne:\n  call ghost\n  halt\n")
    assert any("ghost" in d.message for d in ei.value.diagnostics)


def test_register_out_of_range():
    with pytest.raises(AsmError) as ei:
        parse_program("fn main:\ne:\n  const r16, 1\n  halt\n")
    assert any("out of range" in d.message for d in ei.value.diagnostics)


def test_operand_count_mismatch():
    with pytest.raises(AsmError) as ei:
        parse_program("fn main:\ne:\n  add r0, r1\n  halt\n")
    assert any("expects 3" in d.message for d in ei.value.diagnostics)


def test_diagnostics_carry_line_numbers():
    with pytest.raises(AsmError) as ei:
        parse_program("fn main:\ne:\n  const r0, 1\n  bogus r1\n  halt\n")
    lines = [d.line for d in ei.value.diagnostics]
    assert 4 in lines


def test_duplicate_label_is_diagnosed():
    with pytest.raises(AsmError) as ei:
        parse_program("fn main:\nentry:\n  halt\nentry:\n  halt\n")
    assert [(d.line, d.message) for d in ei.value.diagnostics] == [
        (4, "duplicate label 'entry' in fn main")]


def test_duplicate_function_is_diagnosed():
    with pytest.raises(AsmError) as ei:
        parse_program("fn main:\ne:\n  halt\nfn main:\ne:\n  halt\n")
    assert any("duplicate function" in d.message for d in ei.value.diagnostics)


def test_empty_program_is_rejected():
    with pytest.raises(AsmError):
        parse_program("; only a comment\n")


def test_jtab_needs_at_least_one_target():
    with pytest.raises(AsmError):
        parse_program("fn main:\ne:\n  jtab r0\n")
    p = parse_program("fn main:\ne:\n  jtab r0, one\none:\n  halt\n")
    assert p.functions["main"][0].instrs[0].op is Op.JTAB


@pytest.mark.parametrize("body, line, message", [
    ("e:\n  jtab r0\n", 3, "jtab needs at least 2 operands"),
    ("e:\n  const r0, 1\n  br lt, e\n", 4, "br expects 3 operand(s), got 2"),
    ("e:\n  bogus r1\n", 3, "unknown opcode 'bogus'"),
    ("e:\n  const r0, 1\n  bogus r1\n", 4, "unknown opcode 'bogus'"),
    ("e:\n  jmp\n  halt\n", 3, "jmp expects 1 operand(s), got 0"),
], ids=["jtab-alone", "br-short", "bogus-alone", "bogus-last", "jmp-mid-block"])
def test_a_bad_line_gives_one_diagnostic(body, line, message):
    # The bad line stays in its block (or, for an unknown opcode, the block
    # keeps no follow-on problem), so no second diagnostic appears.
    with pytest.raises(AsmError) as ei:
        parse_program("fn main:\n" + body)
    assert [(d.line, d.message) for d in ei.value.diagnostics] == [(line, message)]


def test_a_line_dropped_mid_block_leaves_the_block_checked():
    # Only a dropped last line excuses a missing terminator.
    with pytest.raises(AsmError) as ei:
        parse_program("fn main:\ne:\n  bogus r1\n  const r0, 1\n")
    assert [(d.line, d.message) for d in ei.value.diagnostics] == [
        (3, "unknown opcode 'bogus'"), (4, "missing terminator at block end")]


def test_validate_reports_operand_counts_as_the_assembler_does():
    p = Program({"main": [BasicBlock("e", [Instruction(Op.JMP, ())])]}, "main", b"")
    assert validate(p).problems == [(InstructionId("main", "e", 0),
                                     "jmp expects 1 operand(s), got 0")]


def test_data_string_characters_must_be_bytes():
    with pytest.raises(AsmError) as ei:
        parse_program('data "ok\u20ac\u0141"\nfn main:\ne:\n  halt\n')
    assert [(d.line, d.message) for d in ei.value.diagnostics] == [
        (1, "character '\u20ac' in data string is not a byte; write its bytes as \\xNN")]
    # Latin-1 characters are the byte of their code point.
    assert parse_program('data "\u00e9"\nfn main:\ne:\n  halt\n').data == b"\xe9"


def test_negative_immediate_wraps_to_two_complement():
    p = parse_program("fn main:\ne:\n  const r0, -1\n  halt\n")
    assert p.functions["main"][0].instrs[0].ops[1].v == (1 << 64) - 1


def test_validate_reports_empty_block():
    p = Program({"main": [BasicBlock("e", [])]}, "main", b"")
    report = validate(p)
    assert not report.ok
    assert any("empty block" in msg for _, msg in report.problems)


def test_validate_reports_missing_entry():
    p = Program({"f": [BasicBlock("e", [Instruction(Op.HALT, ())])]}, "main", b"")
    report = validate(p)
    assert any("entry" in msg for _, msg in report.problems)


def test_validate_accepts_built_program():
    blocks = [BasicBlock("e", [
        Instruction(Op.CONST, (Reg(0), Imm(5))),
        Instruction(Op.CMP, (Reg(0), Imm(1))),
        Instruction(Op.BR, (Cond("eq"), Lab("out"), Lab("out"))),
    ]), BasicBlock("out", [Instruction(Op.HALT, ())])]
    assert validate(Program({"main": blocks}, "main", b"")).ok


def test_branch_ids_enumeration():
    p = parse_program(GOOD)
    assert [str(i) for i in p.branch_ids()] == ["main:entry:2"]


@given(st.binary(max_size=64))
def test_data_bytes_survive_emit_parse(data):
    p = Program({"main": [BasicBlock("e", [Instruction(Op.HALT, ())])]},
                "main", data)
    assert parse_program(emit_text(p)).data == data


@given(st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_immediates_survive_emit_parse(value):
    blocks = [BasicBlock("e", [
        Instruction(Op.CONST, (Reg(3), Imm(value))),
        Instruction(Op.HALT, ()),
    ])]
    q = parse_program(emit_text(Program({"main": blocks}, "main", b"")))
    assert q.functions["main"][0].instrs[0].ops[1].v == value
