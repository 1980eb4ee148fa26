"""Instruction ids in tests: read their text and find what they name."""

from specvm.isa import Instruction, InstructionId, Program


def parse_iid(text: str) -> InstructionId:
    """The InstructionId whose text is "fn:block:idx"."""
    fn, block, idx = text.split(":")
    return InstructionId(fn, block, int(idx))


def resolve(program: Program, iid: InstructionId) -> Instruction:
    """The instruction iid names in program; KeyError when there is none."""
    for block in program.functions[iid.fn]:
        if block.label == iid.block:
            return block.instrs[iid.idx]
    raise KeyError(str(iid))
