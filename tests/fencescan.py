"""Static scan of a fence-hardened program, for checking the fence pass."""

from specvm.isa import InstructionId, Op, Program


def fence_guarded_branches(program: Program) -> set[str]:
    """Branch ids whose both edges begin with FENCE, found by static scan."""
    out: set[str] = set()
    for fn, blocks in program.functions.items():
        first_op = {b.label: b.instrs[0].op for b in blocks}
        for b in blocks:
            term = b.instrs[-1]
            if term.op is not Op.BR:
                continue
            if (first_op[term.ops[1].name] is Op.FENCE
                    and first_op[term.ops[2].name] is Op.FENCE):
                out.add(str(InstructionId(fn, b.label, len(b.instrs) - 1)))
    return out
