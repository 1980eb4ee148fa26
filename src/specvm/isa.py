"""Instruction set, program IR, text assembler, and structural validation.

The machine is a 16-register, 64-bit, unsigned, wrapping register machine.
Programs are containers of functions; a function is an ordered list of
basic blocks; every block ends in exactly one terminator (BR, JMP, JTAB,
RET, or HALT) and contains no other control transfer.

Text format (one instruction per line, ``;`` starts a comment)::

    data "static bytes"
    fn main:
    entry:
      const r0, 7
      halt

Registers are ``r0`` .. ``r15``.  Immediates are decimal or 0x-hex and may
be negative (stored two's-complement in 64 bits).  Condition codes are the
unsigned comparisons ``eq ne lt le gt ge``.  A data string is bytes: a
character stands for the byte of its code point, so one above U+00FF is
an error and its bytes are written as ``\\xNN`` escapes.

One operand table, read through ``operand_kinds``, says what operands each
opcode takes.  ``parse_program`` converts each operand token by its kind
without judging it, keeping the token text when it lacks that kind's form,
and reports only structure: directives, names of functions and blocks,
unknown opcodes, and lines outside a block.  ``validate`` checks every
instruction rule, operand counts and forms included, for assembled and
built programs alike, and its problems become the assembler's remaining
diagnostics.  ``machine.ExecImage`` decodes operands by the same table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

REG_COUNT = 16
WORD_BITS = 64
WORD_MASK = (1 << WORD_BITS) - 1


class Op(IntEnum):
    CONST = 0
    MOV = 1
    ADD = 2
    SUB = 3
    MUL = 4
    AND = 5
    OR = 6
    XOR = 7
    SHL = 8
    SHR = 9
    DIV = 10
    CMP = 11
    SETCC = 12
    BR = 13
    JMP = 14
    JTAB = 15
    LOAD = 16
    STORE = 17
    ALLOC = 18
    CALL = 19
    RET = 20
    FENCE = 21
    INPUT = 22
    INPUTLEN = 23
    HALT = 24


#: Opcodes that may only appear as the last instruction of a block.
TERMINATORS = frozenset({Op.BR, Op.JMP, Op.JTAB, Op.RET, Op.HALT})

#: Unsigned condition codes, in canonical order.
CONDITIONS = ("eq", "ne", "lt", "le", "gt", "ge")

#: Inverse condition, i.e. the code that holds exactly when the original does not.
INVERSE_CC = {"eq": "ne", "ne": "eq", "lt": "ge", "ge": "lt", "le": "gt", "gt": "le"}

# Operand shape per opcode.  Letters: r register, i immediate, x register or
# immediate, c condition code, l block label, f function name, L one or more
# block labels (JTAB tail).  Read it through operand_kinds.
_SHAPES = {
    Op.CONST: "ri",
    Op.MOV: "rr",
    Op.ADD: "rrx",
    Op.SUB: "rrx",
    Op.MUL: "rrx",
    Op.AND: "rrx",
    Op.OR: "rrx",
    Op.XOR: "rrx",
    Op.SHL: "rrx",
    Op.SHR: "rrx",
    Op.DIV: "rrx",
    Op.CMP: "rx",
    Op.SETCC: "rc",
    Op.BR: "cll",
    Op.JMP: "l",
    Op.JTAB: "rL",
    Op.LOAD: "rri",
    Op.STORE: "rri",
    Op.ALLOC: "rx",
    Op.CALL: "f",
    Op.RET: "",
    Op.FENCE: "",
    Op.INPUT: "ri",
    Op.INPUTLEN: "r",
    Op.HALT: "",
}

_OP_BY_NAME = {op.name.lower(): op for op in Op}


def operand_kinds(op: Op, n: int) -> tuple[str, str | None]:
    """The kinds of op's operands when it has n of them, one letter each as
    in _SHAPES (every label of a JTAB tail is an L), and None; or "" and
    the problem when op does not take n operands."""
    shape = _SHAPES[op]
    if shape.endswith("L"):
        fixed = shape[:-1]
        if n > len(fixed):
            return fixed + "L" * (n - len(fixed)), None
        return "", f"{op.name.lower()} needs at least {len(fixed) + 1} operands"
    if n != len(shape):
        return "", f"{op.name.lower()} expects {len(shape)} operand(s), got {n}"
    return shape, None


@dataclass(frozen=True)
class Reg:
    n: int

    def __str__(self) -> str:
        return f"r{self.n}"


@dataclass(frozen=True)
class Imm:
    v: int

    def __str__(self) -> str:
        return str(self.v)


@dataclass(frozen=True)
class Lab:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Cond:
    cc: str

    def __str__(self) -> str:
        return self.cc


@dataclass(frozen=True)
class FnRef:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Instruction:
    op: Op
    ops: tuple = ()

    def __str__(self) -> str:
        if not self.ops:
            return self.op.name.lower()
        return f"{self.op.name.lower()} " + ", ".join(str(o) for o in self.ops)


@dataclass
class BasicBlock:
    label: str
    instrs: list[Instruction] = field(default_factory=list)


@dataclass(frozen=True, order=True)
class InstructionId:
    """Stable address of one instruction: (function, block label, index)."""

    fn: str
    block: str
    idx: int

    def __str__(self) -> str:
        return f"{self.fn}:{self.block}:{self.idx}"


@dataclass
class Program:
    """A whole program: functions (name -> ordered blocks), entry, static data."""

    functions: dict[str, list[BasicBlock]] = field(default_factory=dict)
    entry: str = "main"
    data: bytes = b""

    def iter_instructions(self):
        for fn, blocks in self.functions.items():
            for block in blocks:
                for idx, ins in enumerate(block.instrs):
                    yield InstructionId(fn, block.label, idx), ins

    def branch_ids(self) -> list[InstructionId]:
        return [iid for iid, ins in self.iter_instructions() if ins.op is Op.BR]


@dataclass(frozen=True)
class Diagnostic:
    line: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}: {self.message}"


class AsmError(Exception):
    """Raised when assembly text cannot be turned into a valid Program."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(str(d) for d in diagnostics))


# The problems validate finds in a block that lost its last line, which
# parse_program leaves to that line's own diagnostic.
_EMPTY_BLOCK = "empty block"
_NO_TERMINATOR = "missing terminator at block end"


# ---------------------------------------------------------------------------
# Parsing


def _strip_comment(line: str) -> str:
    out = []
    in_str = False
    i = 0
    while i < len(line):
        ch = line[i]
        if in_str:
            out.append(ch)
            if ch == "\\" and i + 1 < len(line):
                out.append(line[i + 1])
                i += 2
                continue
            if ch == '"':
                in_str = False
        else:
            if ch == ";":
                break
            out.append(ch)
            if ch == '"':
                in_str = True
        i += 1
    return "".join(out)


_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")
_ESCAPES = {"n": b"\n", "t": b"\t", "r": b"\r", "0": b"\x00", "\\": b"\\", '"': b'"'}


def _parse_data_literal(text: str, lineno: int, diags: list[Diagnostic]) -> bytes:
    text = text.strip()
    if len(text) < 2 or not text.startswith('"') or not text.endswith('"'):
        diags.append(Diagnostic(lineno, "data directive expects a quoted string"))
        return b""
    body = text[1:-1]
    wide = next((ch for ch in body if ord(ch) > 0xFF), None)
    if wide is not None:
        diags.append(Diagnostic(lineno, f"character {wide!r} in data string is not "
                                        "a byte; write its bytes as \\xNN"))
    out = bytearray()
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            if i + 1 >= len(body):
                diags.append(Diagnostic(lineno, "dangling escape in data string"))
                break
            nxt = body[i + 1]
            if nxt == "x":
                if i + 3 >= len(body):
                    diags.append(Diagnostic(lineno, "truncated \\x escape in data string"))
                    break
                digits = body[i + 2 : i + 4]
                if all(d in _HEX_DIGITS for d in digits):
                    out.append(int(digits, 16))
                else:
                    diags.append(Diagnostic(lineno, f"bad hex escape \\x{digits}"))
                i += 4
                continue
            if nxt in _ESCAPES:
                out += _ESCAPES[nxt]
                i += 2
                continue
            diags.append(Diagnostic(lineno, f"unknown escape \\{nxt}"))
            i += 2
            continue
        out.append(ord(ch) & 0xFF)
        i += 1
    return bytes(out)


def _is_name(tok: str) -> bool:
    if not tok:
        return False
    if not (tok[0].isalpha() or tok[0] == "_"):
        return False
    return all(c.isalnum() or c in "_." for c in tok[1:])


def _placeholder(lineno: int) -> str:
    """The name given to a diagnosed fn or label line: not a name
    ``_is_name`` accepts, so no source text can define or reach it."""
    return f"<line {lineno}>"


def _operand(kind: str, tok: str):
    """tok as an operand of the given kind, unjudged (validate checks it), or
    tok itself when it lacks that kind's form."""
    try:
        if kind in "rx" and tok.startswith("r") and tok[1:].isdigit():
            return Reg(int(tok[1:]))
        if kind in "ix":
            return Imm(int(tok, 0) & WORD_MASK)
    except ValueError:  # not a number int() reads ("r²"), or too long a one
        return tok
    if kind == "c":
        return Cond(tok)
    if kind in "lL":
        return Lab(tok)
    if kind == "f":
        return FnRef(tok)
    return tok


def parse_program(text: str) -> Program:
    """Assemble source text into a Program.

    Raises AsmError carrying line-numbered diagnostics when the text is not
    syntactically well formed or the resulting program fails validation.
    Every diagnostic but "program has no functions" carries the line it is
    about: an instruction's, a block's label line, or a function's fn line.
    """
    diags: list[Diagnostic] = []
    prog = Program(functions={}, entry="", data=b"")
    data = bytearray()

    cur_fn: str | None = None
    cur_block: BasicBlock | None = None
    iid_lines: dict[InstructionId, int] = {}
    block_lines: dict[tuple[str, str], int] = {}
    fn_lines: dict[str, int] = {}
    lost_tail: set[tuple[str, str]] = set()  # blocks whose last line was dropped
    bad_fns: set[str] = set()  # placeholder names of diagnosed fn lines

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("fn ") and line.endswith(":"):
            name = line[3:-1].strip()
            if not _is_name(name):
                diags.append(Diagnostic(lineno, f"bad function name '{name}'"))
                name = _placeholder(lineno)
                bad_fns.add(name)
            if name in prog.functions:
                diags.append(Diagnostic(lineno, f"duplicate function '{name}'"))
                name = _placeholder(lineno)  # the first body keeps the name
                bad_fns.add(name)
            cur_block = None
            prog.functions[name] = []
            fn_lines[name] = lineno
            if not prog.entry:
                prog.entry = name
            cur_fn = name
            continue
        if line.startswith("data ") or line == "data":
            if cur_fn is not None:
                diags.append(Diagnostic(lineno, "data directive must appear outside functions"))
                continue
            data += _parse_data_literal(line[4:], lineno, diags)
            continue
        if line.endswith(":") and " " not in line:
            label = line[:-1]
            if cur_fn is None:
                diags.append(Diagnostic(lineno, f"label '{label}' outside any function"))
                continue
            if not _is_name(label):
                diags.append(Diagnostic(lineno, f"bad label name '{label}'"))
                label = _placeholder(lineno)
            if any(b.label == label for b in prog.functions[cur_fn]):
                diags.append(Diagnostic(lineno, f"duplicate label '{label}' in fn {cur_fn}"))
                label = _placeholder(lineno)  # diagnosed once, here
            cur_block = BasicBlock(label)
            prog.functions[cur_fn].append(cur_block)
            block_lines[(cur_fn, label)] = lineno
            continue
        # instruction line
        if cur_fn is None or cur_block is None:
            diags.append(Diagnostic(lineno, f"instruction outside a block: '{line}'"))
            continue
        parts = line.split(None, 1)
        opname = parts[0].lower()
        op = _OP_BY_NAME.get(opname)
        if op is None:
            diags.append(Diagnostic(lineno, f"unknown opcode '{parts[0]}'"))
            lost_tail.add((cur_fn, cur_block.label))
            continue
        rest = parts[1] if len(parts) > 1 else ""
        toks = [t.strip() for t in rest.split(",")] if rest.strip() else []
        kinds, problem = operand_kinds(op, len(toks))
        if problem is None:
            ops = tuple(_operand(k, tok) for k, tok in zip(kinds, toks))
        else:
            ops = tuple(toks)  # kept in its block; validate reports the count
        iid_lines[InstructionId(cur_fn, cur_block.label, len(cur_block.instrs))] = lineno
        cur_block.instrs.append(Instruction(op, ops))
        lost_tail.discard((cur_fn, cur_block.label))

    prog.data = bytes(data)
    if not prog.functions:
        diags.append(Diagnostic(0, "program has no functions"))
        raise AsmError(diags)

    for where, msg in validate(prog):
        if isinstance(where, InstructionId):
            block = (where.fn, where.block)
            if msg in (_EMPTY_BLOCK, _NO_TERMINATOR) and block in lost_tail:
                continue
            diags.append(Diagnostic(iid_lines.get(where) or block_lines[block], msg))
        elif where not in bad_fns:
            diags.append(Diagnostic(fn_lines.get(where, 0), msg))
    if diags:
        diags.sort(key=lambda d: d.line)
        raise AsmError(diags)
    return prog


# ---------------------------------------------------------------------------
# Emission


def _escape_data(data: bytes) -> str:
    out = []
    for b in data:
        ch = chr(b)
        if ch == "\\":
            out.append("\\\\")
        elif ch == '"':
            out.append('\\"')
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ch == "\r":
            out.append("\\r")
        elif 32 <= b < 127:
            out.append(ch)
        else:
            out.append(f"\\x{b:02x}")
    return "".join(out)


def emit_text(p: Program) -> str:
    """Render a Program in canonical text form.

    parse_program(emit_text(p)) reproduces p structurally.  The entry
    function is emitted first; remaining functions keep insertion order.
    """
    lines: list[str] = []
    if p.data:
        lines.append(f'data "{_escape_data(p.data)}"')
    names = [p.entry] + [n for n in p.functions if n != p.entry]
    for name in names:
        lines.append(f"fn {name}:")
        for block in p.functions[name]:
            lines.append(f"{block.label}:")
            for ins in block.instrs:
                lines.append(f"  {ins}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Validation


def _operand_problem(kind: str, opnd, labels: set[str], functions: dict) -> str | None:
    """What is wrong with opnd as an operand of the given kind, or None."""
    if kind == "c":
        if isinstance(opnd, Cond) and opnd.cc in CONDITIONS:
            return None
        return f"unknown condition code '{opnd}'"
    if kind in "lL":
        if not (isinstance(opnd, Lab) and _is_name(opnd.name)):
            return f"bad label name '{opnd}'"
        return None if opnd.name in labels else f"unresolved label '{opnd}'"
    if kind == "f":
        if not (isinstance(opnd, FnRef) and _is_name(opnd.name)):
            return f"bad function name '{opnd}'"
        return None if opnd.name in functions else f"call to missing function '{opnd}'"
    if kind in "rx" and isinstance(opnd, Reg):
        if 0 <= opnd.n < REG_COUNT:
            return None
        return f"register {opnd} out of range (r0..r{REG_COUNT - 1})"
    if kind in "ix" and isinstance(opnd, Imm):
        return None
    return f"expected {'register' if kind == 'r' else 'immediate'}, got '{opnd}'"


def validate(p: Program) -> list[tuple[InstructionId | str | None, str]]:
    """Every broken rule of p, as (where, message) pairs; empty when p is
    valid.  where is the InstructionId of the instruction, or of index 0
    of the block, that the problem is about; a function's name for a
    function-level problem; None for the program.  Deterministic and
    side-effect free."""
    problems: list[tuple[InstructionId | str | None, str]] = []
    if p.entry not in p.functions:
        problems.append((None, f"entry function '{p.entry}' does not exist"))
    for fn, blocks in p.functions.items():
        if not blocks:
            problems.append((fn, f"function '{fn}' has no blocks"))
            continue
        seen = set()
        for block in blocks:
            if block.label in seen:
                problems.append((InstructionId(fn, block.label, 0),
                                 f"duplicate label '{block.label}'"))
            seen.add(block.label)
        labels = {b.label for b in blocks}
        for block in blocks:
            if not block.instrs:
                problems.append((InstructionId(fn, block.label, 0), _EMPTY_BLOCK))
                continue
            for idx, ins in enumerate(block.instrs):
                iid = InstructionId(fn, block.label, idx)
                kinds, problem = operand_kinds(ins.op, len(ins.ops))
                if problem is not None:  # the one problem of this instruction
                    problems.append((iid, problem))
                    continue
                last = idx == len(block.instrs) - 1
                if ins.op in TERMINATORS and not last:
                    problems.append((iid, "control transfer before block end"))
                if last and ins.op not in TERMINATORS:
                    problems.append((iid, _NO_TERMINATOR))
                for kind, opnd in zip(kinds, ins.ops):
                    problem = _operand_problem(kind, opnd, labels, p.functions)
                    if problem is not None:
                        problems.append((iid, problem))
    return problems


__all__ = [
    "REG_COUNT",
    "WORD_MASK",
    "Op",
    "TERMINATORS",
    "CONDITIONS",
    "INVERSE_CC",
    "Reg",
    "Imm",
    "Lab",
    "Cond",
    "FnRef",
    "Instruction",
    "BasicBlock",
    "InstructionId",
    "Program",
    "Diagnostic",
    "AsmError",
    "operand_kinds",
    "parse_program",
    "emit_text",
    "validate",
]
