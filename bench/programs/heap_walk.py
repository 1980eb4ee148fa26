"""Generator for the heap-walk workload program.

Why: heap-walk measures allocation lookup.  Machine._classify scans the
allocation list linearly on every load and store, and a redzone miss scans it
again for each of the 8 bytes it reads, so its cost grows with the number of
live allocations.  The program makes ALLOCS allocations in straight-line code,
so the set-up phase opens no simulation trees, and then walks them with
guarded loads.  This is the workload where classification does most of the
work; fuzz-gadgets and deep-nest, with two allocations each, bypass it.

Input bytes: 0 start slot, 1 stride (forced odd), 2 offset into each
24-byte allocation (masked to 0..31).  The guard admits offsets up to 16, so
every architectural load is in bounds; a mispredicted guard loads at an
offset of 17..31, inside the allocation's redzone.
"""

ALLOCS = 300  # live allocations; fixed so that runs stay comparable
STEPS = 8  # walk iterations per run
SIZE = 24  # bytes per allocation


def source() -> str:
    """Assembly text of the heap-walk program."""
    lines = [
        "; svm {\"kind\": \"bench-workload\", \"name\": \"heap-walk\"}",
        "fn main:",
        "entry:",
        f"  alloc r1, {8 * ALLOCS}",  # pointer table, allocation #0
    ]
    for k in range(ALLOCS):
        lines += [f"  alloc r2, {SIZE}", f"  store r2, r1, {8 * k}"]
    lines += [
        "  input r3, 0",
        "  input r4, 1",
        "  or r4, r4, 1",
        "  input r6, 2",
        "  and r6, r6, 31",
        "  const r7, 0",
        "  const r15, 0",
        "  jmp head",
        "head:",
        f"  cmp r7, {STEPS}",
        "  br lt, body, out",
        "body:",
        "  mul r8, r7, r4",  # slot = (start + i * stride) mod ALLOCS
        "  add r8, r8, r3",
        f"  div r9, r8, {ALLOCS}",
        f"  mul r9, r9, {ALLOCS}",
        "  sub r8, r8, r9",
        "  shl r9, r8, 3",
        "  add r9, r1, r9",
        "  load r10, r9, 0",
        "  load r11, r10, 0",
        "  add r15, r15, r11",
        f"  cmp r6, {SIZE - 8}",
        "  br le, ok, skip",
        "ok:",
        "  add r13, r10, r6",
        "  load r14, r13, 0",
        "  add r15, r15, r14",
        "  jmp skip",
        "skip:",
        "  add r7, r7, 1",
        "  jmp head",
        "out:",
        "  halt",
    ]
    return "\n".join(lines) + "\n"
