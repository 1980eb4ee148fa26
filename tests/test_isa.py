"""Assembler, emitter, and structural validation."""

import random
import re

import pytest
from hypothesis import given, strategies as st

from iidtools import parse_iid
from specvm.cli import main
from specvm.gadgets import builtin_gadget, gadget_ids
from specvm.isa import (
    AsmError,
    BasicBlock,
    Cond,
    FnRef,
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
    assert parse_iid("f:blk:3") == iid


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


# Every diagnostic the assembler gives, as the exact (line, message) list
# of a text that has only that fault.
DIAGNOSTICS = [
    ("reg-range", "fn main:\ne:\n  const r16, 1\n  halt\n",
     [(3, "register r16 out of range (r0..r15)")]),
    ("reg-form", "fn main:\ne:\n  mov r0, x\n  halt\n", [(3, "expected register, got 'x'")]),
    ("reg-digits", "fn main:\ne:\n  mov r\u00b2, r1\n  halt\n",
     [(3, "expected register, got 'r\u00b2'")]),
    ("reg-long", f"fn main:\ne:\n  mov r0, r{'1' * 5000}\n  halt\n",
     [(3, f"expected register, got 'r{'1' * 5000}'")]),
    ("imm", "fn main:\ne:\n  const r0, zz\n  halt\n", [(3, "expected immediate, got 'zz'")]),
    ("reg-or-imm", "fn main:\ne:\n  add r0, r1, zz\n  halt\n",
     [(3, "expected immediate, got 'zz'")]),
    ("reg-or-imm-range", "fn main:\ne:\n  cmp r0, r99\n  halt\n",
     [(3, "register r99 out of range (r0..r15)")]),
    ("condition", "fn main:\ne:\n  setcc r0, foo\n  halt\n",
     [(3, "unknown condition code 'foo'")]),
    ("br-condition", "fn main:\ne:\n  br xx, e, e\n", [(3, "unknown condition code 'xx'")]),
    ("label-form", "fn main:\ne:\n  jmp 1x\n", [(3, "bad label name '1x'")]),
    ("jtab-label-form", "fn main:\ne:\n  jtab r0, e, 2\n", [(3, "bad label name '2'")]),
    ("label-unresolved", "fn main:\ne:\n  jmp nowhere\n", [(3, "unresolved label 'nowhere'")]),
    ("fn-form", "fn main:\ne:\n  call 9f\n  halt\n", [(3, "bad function name '9f'")]),
    ("fn-missing", "fn main:\ne:\n  call ghost\n  halt\n",
     [(3, "call to missing function 'ghost'")]),
    ("count", "fn main:\ne:\n  add r0, r1\n  halt\n", [(3, "add expects 3 operand(s), got 2")]),
    ("jtab-count", "fn main:\ne:\n  jtab r0\n", [(3, "jtab needs at least 2 operands")]),
    ("opcode", "fn main:\ne:\n  bogus r1\n", [(3, "unknown opcode 'bogus'")]),
    ("mid-block", "fn main:\ne:\n  halt\n  halt\n", [(3, "control transfer before block end")]),
    ("no-terminator", "fn main:\ne:\n  const r0, 1\n", [(3, "missing terminator at block end")]),
    ("empty-block", "fn main:\ne:\nf:\n  halt\n", [(2, "empty block")]),
    ("dangling-escape", 'data "ab\\"\nfn main:\ne:\n  halt\n',
     [(1, "dangling escape in data string")]),
    ("truncated-escape", 'data "\\x4"\nfn main:\ne:\n  halt\n',
     [(1, "truncated \\x escape in data string")]),
    ("hex-escape", 'data "\\xzz"\nfn main:\ne:\n  halt\n', [(1, "bad hex escape \\xzz")]),
    # Exactly two hex digits: no sign, no space.
    ("hex-escape-sign", 'data "\\x+1\\x 2\\x-1"\nfn main:\ne:\n  halt\n',
     [(1, "bad hex escape \\x+1"), (1, "bad hex escape \\x 2"),
      (1, "bad hex escape \\x-1")]),
    ("unknown-escape", 'data "\\q"\nfn main:\ne:\n  halt\n', [(1, "unknown escape \\q")]),
    ("unquoted-data", "data abc\nfn main:\ne:\n  halt\n",
     [(1, "data directive expects a quoted string")]),
    ("data-in-fn", 'fn main:\ndata "a"\ne:\n  halt\n',
     [(2, "data directive must appear outside functions")]),
    ("fn-name", "fn 1x:\ne:\n  halt\n", [(1, "bad function name '1x'")]),
    ("fn-name-no-blocks", "fn 1x:\nfn main:\ne:\n  halt\n", [(1, "bad function name '1x'")]),
    ("duplicate-fn", "fn main:\ne:\n  halt\nfn main:\ne:\n  halt\n",
     [(4, "duplicate function 'main'")]),
    # The duplicate does not replace the first body: both are checked.
    ("duplicate-fn-first-body", "fn main:\ne:\n  jmp nowhere\nfn main:\ne:\n  halt\n",
     [(3, "unresolved label 'nowhere'"), (4, "duplicate function 'main'")]),
    ("duplicate-fn-second-body", "fn main:\ne:\n  halt\nfn main:\ne:\n  jmp nowhere\n",
     [(4, "duplicate function 'main'"), (6, "unresolved label 'nowhere'")]),
    ("duplicate-fn-no-blocks", "fn main:\ne:\n  halt\nfn main:\n",
     [(4, "duplicate function 'main'")]),
    # A placeholder is no name a source can write, so it meets no user's.
    ("duplicate-fn-placeholder-like", "fn __bad4:\ne:\n  jmp nowhere\nfn __bad4:\ne:\n  halt\n",
     [(3, "unresolved label 'nowhere'"), (4, "duplicate function '__bad4'")]),
    ("bad-fn-then-placeholder-like", "fn 1x:\nfn __bad1:\ne:\n  halt\n",
     [(1, "bad function name '1x'")]),
    ("block-name", "fn main:\n1x:\n  halt\n", [(2, "bad label name '1x'")]),
    ("label-outside-fn", "x:\nfn main:\ne:\n  halt\n", [(1, "label 'x' outside any function")]),
    ("outside-block", "halt\nfn main:\ne:\n  halt\n",
     [(1, "instruction outside a block: 'halt'")]),
    ("no-blocks", "fn main:\nfn other:\ne:\n  halt\n", [(1, "function 'main' has no blocks")]),
    ("no-blocks-then-instr", "fn main:\n  halt\nfn other:\ne:\n  halt\n",
     [(1, "function 'main' has no blocks"), (2, "instruction outside a block: 'halt'")]),
    ("no-functions", "; nothing\n", [(0, "program has no functions")]),
]


@pytest.mark.parametrize("text, expected", [c[1:] for c in DIAGNOSTICS],
                         ids=[c[0] for c in DIAGNOSTICS])
def test_each_diagnostic_exactly(text, expected):
    with pytest.raises(AsmError) as ei:
        parse_program(text)
    assert [(d.line, d.message) for d in ei.value.diagnostics] == expected


def test_validate_judges_built_operands_as_the_assembler_does():
    e = InstructionId("main", "e", 0)
    blocks = [BasicBlock("e", [
        Instruction(Op.ADD, (Imm(1), Reg(16), Cond("eq"))),
        Instruction(Op.CALL, (Lab("main"),)),
        Instruction(Op.BR, (Lab("e"), Reg(1), FnRef("main"))),
    ])]
    assert validate(Program({"main": blocks}, "main", b"")) == [
        (e, "expected register, got '1'"),
        (e, "register r16 out of range (r0..r15)"),
        (e, "expected immediate, got 'eq'"),
        (InstructionId("main", "e", 1), "bad function name 'main'"),
        (InstructionId("main", "e", 2), "unknown condition code 'e'"),
        (InstructionId("main", "e", 2), "bad label name 'r1'"),
        (InstructionId("main", "e", 2), "bad label name 'main'"),
    ]


def test_validate_places_problems():
    # A block and a function name their own place, the program None.
    p = Program({"main": [BasicBlock("e", []), BasicBlock("e", [Instruction(Op.HALT)])],
                 "f": []}, "nope", b"")
    assert validate(p) == [(None, "entry function 'nope' does not exist"),
                           (InstructionId("main", "e", 0), "duplicate label 'e'"),
                           (InstructionId("main", "e", 0), "empty block"),
                           ("f", "function 'f' has no blocks")]


TOKEN = re.compile(r"[^\s,]+")
JUNK = ("1x", "9f", "r16", "-1", "zz", "eq", "fn", "data", ":", '"', "\\", "x:", "")


def _corrupt(rng: random.Random, text: str, vocab: list[str]) -> str:
    """text with one to three random edits: a line dropped or doubled, or a
    token replaced by a word of vocab or by junk."""
    lines = text.split("\n")
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        toks = list(TOKEN.finditer(lines[i]))
        if not toks or rng.random() < 0.2:
            lines[i:i + 1] = [lines[i]] * rng.randrange(3)
            continue
        t = rng.choice(toks)
        new = rng.choice(vocab if rng.random() < 0.5 else JUNK)
        lines[i] = lines[i][:t.start()] + new + lines[i][t.end():]
    return "\n".join(lines)


def test_corrupted_sources_give_clean_diagnostics(tmp_path, capsys):
    sources = [builtin_gadget(g).source for g in gadget_ids()]
    vocab = sorted({t for s in sources for t in TOKEN.findall(s)})
    rng = random.Random(19)
    path = tmp_path / "p.sasm"
    for _ in range(200):
        text = _corrupt(rng, rng.choice(sources), vocab)
        try:
            parse_program(text)
            diagnostics = []
        except AsmError as e:
            diagnostics = e.diagnostics
        for d in diagnostics:
            assert d.line >= 1 or d.message == "program has no functions", (text, d)
            # Every name a diagnostic quotes is one the text holds.
            for name in re.findall(r"'([^']*)'", d.message):
                assert name in text, (text, d)
        path.write_text(text)
        assert main(["asm", str(path)]) == (1 if diagnostics else 0)
        assert "Traceback" not in capsys.readouterr().err


def test_a_line_dropped_mid_block_leaves_the_block_checked():
    # Only a dropped last line excuses a missing terminator.
    with pytest.raises(AsmError) as ei:
        parse_program("fn main:\ne:\n  bogus r1\n  const r0, 1\n")
    assert [(d.line, d.message) for d in ei.value.diagnostics] == [
        (3, "unknown opcode 'bogus'"), (4, "missing terminator at block end")]


def test_validate_reports_operand_counts_as_the_assembler_does():
    p = Program({"main": [BasicBlock("e", [Instruction(Op.JMP, ())])]}, "main", b"")
    assert validate(p) == [(InstructionId("main", "e", 0),
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
    problems = validate(p)
    assert problems
    assert any("empty block" in msg for _, msg in problems)


def test_validate_reports_missing_entry():
    p = Program({"f": [BasicBlock("e", [Instruction(Op.HALT, ())])]}, "main", b"")
    assert any("entry" in msg for _, msg in validate(p))


def test_validate_accepts_built_program():
    blocks = [BasicBlock("e", [
        Instruction(Op.CONST, (Reg(0), Imm(5))),
        Instruction(Op.CMP, (Reg(0), Imm(1))),
        Instruction(Op.BR, (Cond("eq"), Lab("out"), Lab("out"))),
    ]), BasicBlock("out", [Instruction(Op.HALT, ())])]
    assert validate(Program({"main": blocks}, "main", b"")) == []


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
