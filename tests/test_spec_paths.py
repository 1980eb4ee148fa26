"""Exposed runs against the reference speculative paths.

ExposureEngine.run opens each path with one lookup in the branch table and
dispatches its path and run loops on the instruction kind.  Here every
RunTrace field it produces must equal what refrun.reference_run produces
when it drives refspec.ReferenceEngine, the plain opcode-dispatched path
loop with the full checkpoint: records with their branches and order,
speculative steps, retire reasons, nesting orders, architectural steps,
edges and the final state.
"""

import random

import pytest

from genprog import random_input, random_program
from refrun import reference_run
from refspec import ReferenceEngine
from specvm.engine import BranchStats, ExposureEngine, SpecConfig
from specvm.gadgets import builtin_gadget, gadget_ids
from specvm.harden import fence_pass, slh_pass
from specvm.isa import parse_program
from specvm.machine import ExecImage


def _trace_fields(t) -> tuple:
    r = t.result
    return (r.state_fingerprint(), r.fault, r.steps, r.pc, t.records, t.edges,
            t.max_order, t.arch_steps, t.spec_steps, t.retired)


def check_paths(program, inputs, config=None, scheduled=True) -> dict:
    """Run inputs in order through one engine and through the reference,
    each side with its own BranchStats fed the same history when
    ``scheduled`` (else every branch nests to the configured maximum), and
    compare every trace.  Returns the retire reasons summed over inputs."""
    image = ExecImage(program)
    engine = ExposureEngine(image, config)
    ref = ReferenceEngine(image, config)
    stats = BranchStats() if scheduled else None
    ref_stats = BranchStats() if scheduled else None
    retired: dict[str, int] = {}
    for serial, data in enumerate(inputs):
        iid = f"in{serial}"
        got = engine.run(data, stats, input_id=iid, run_serial=serial)
        want = reference_run(ref, data, ref_stats, input_id=iid, run_serial=serial)
        assert _trace_fields(got) == _trace_fields(want), (serial, data)
        for reason, n in want.retired.items():
            retired[reason] = retired.get(reason, 0) + n
    if scheduled:
        assert stats.to_dict() == ref_stats.to_dict()
    return retired


NESTED_FENCE_FIRST = """fn main:
e:
  alloc r9, 16
  input r2, 0
  cmp r2, 2
  br lt, a, b
a:
  cmp r2, 5
  br lt, fen, leak
b:
  cmp r2, 0
  br eq, leak, fen
fen:
  fence
  halt
leak:
  load r4, r9, 24
  halt
"""

# (name, source, config, retire reasons the reference must show): the
# corners of the path loop that neither the victims nor the random
# programs are sure to reach.
CORNERS = [
    # A nested path opens with its parent's counter already at the window
    # and meets a FENCE first: the FENCE retires it, not the window.
    ("fence-first-window-1",
     "fn main:\ne:\n  input r2, 0\n  cmp r2, 1\n  br eq, a, b\n"
     "a:\n  br ne, c, d\nb:\n  br ne, d, c\n"
     "c:\n  fence\n  halt\nd:\n  fence\n  halt\n",
     SpecConfig(window=1, stride=1, max_order=2), {"fence"}),
    # Nested paths whose mispredicted successor starts with FENCE, while
    # the correct one leaks (input 5 at a, 0 at b), and the other way
    # round (inputs 2, 3 at a, 1 at b; and every root path), so a test of
    # the wrong successor drops or keeps a path that leaks.
    ("nested-fence-first", NESTED_FENCE_FIRST, SpecConfig(max_order=2),
     {"fence", "halt"}),
    # Paths around a loop run out of a small window charged in chunks.
    ("window-loop",
     "fn main:\ne:\n  alloc r9, 16\n  input r1, 0\n  cmp r1, 3\n"
     "  br lt, loop, out\n"
     "loop:\n  add r2, r2, 1\n  add r3, r3, r2\n  load r4, r9, 8\n"
     "  cmp r2, 40\n  br lt, loop, out\n"
     "out:\n  load r5, r9, 24\n  halt\n",
     SpecConfig(window=10, stride=3, max_order=3), {"window", "halt"}),
    # Calls and returns inside nested paths suspend and resume the
    # caller's block accounting.
    ("call-ret-nested",
     "fn main:\ne:\n  alloc r1, 16\n  input r2, 0\n  cmp r2, 4\n"
     "  br lt, a, out\n"
     "a:\n  cmp r2, 2\n  br lt, b, c\n"
     "b:\n  call f\n  load r3, r1, 24\n  halt\n"
     "c:\n  call f\n  call f\n  add r7, r1, r5\n  load r4, r7, 0\n  halt\n"
     "out:\n  halt\n"
     "fn f:\ne:\n  add r5, r5, 8\n  cmp r5, 16\n  br gt, big, small\n"
     "big:\n  load r6, r1, 32\n  ret\nsmall:\n  ret\n",
     SpecConfig(window=14, stride=2, max_order=3), {"window", "halt", "fault"}),
    # Allocations made on a path are dropped on rollback, so the run's own
    # allocations land where they would without speculation.
    ("alloc-in-path",
     "fn main:\ne:\n  alloc r1, 16\n  input r2, 0\n  cmp r2, 3\n"
     "  br lt, a, out\n"
     "a:\n  alloc r3, 24\n  store r2, r3, 0\n  cmp r2, 1\n  br eq, b, c\n"
     "b:\n  alloc r4, 8\n  load r5, r4, 16\n  halt\n"
     "c:\n  load r5, r3, 4096\n  halt\n"
     "out:\n  alloc r6, 8\n  store r2, r6, 0\n  halt\n",
     SpecConfig(max_order=2), {"halt", "fault"}),
    # A jump table inside a path enters a new block and restarts the block
    # accounting, as any other transfer does.
    ("jtab-in-path",
     "fn main:\ne:\n  input r1, 0\n  and r1, r1, 1\n  cmp r1, 1\n"
     "  br eq, a, b\n"
     "a:\n  jtab r1, c, d\nb:\n  jtab r1, c, d\n"
     "c:\n" + "  add r2, r2, 1\n" * 8 + "  halt\n"
     "d:\n  add r3, r3, 1\n  halt\n",
     SpecConfig(window=4, stride=2), {"window", "halt"}),
]

CORNER_INPUTS = [b"\x00", b"\x01", b"\x02", b"\x03", b"\x05", b""]


@pytest.mark.parametrize("name,src,config,reasons", CORNERS,
                         ids=[c[0] for c in CORNERS])
def test_corner_paths_run_alike(name, src, config, reasons):
    retired = check_paths(parse_program(src), CORNER_INPUTS, config,
                          scheduled=False)
    assert reasons <= set(retired), retired


def _gadget_programs():
    for gid in gadget_ids():
        g = builtin_gadget(gid)
        for program in (g.program, fence_pass(g.program).program,
                        slh_pass(g.program).program):
            yield gid, program, (g.trigger, g.safe)


@pytest.mark.parametrize("max_order", [1, 2, 6])
def test_gadgets_and_hardened_gadgets_run_alike(max_order):
    for gid, program, (trigger, safe) in _gadget_programs():
        rng = random.Random(gid)
        extra = [bytes(rng.randrange(256) for _ in range(rng.randrange(8)))
                 for _ in range(3)]
        check_paths(program, [trigger, safe, b""] + extra,
                    SpecConfig(max_order=max_order), scheduled=False)


@pytest.mark.parametrize("loops,recursion", [(False, False), (True, False),
                                             (False, True), (True, True)])
def test_random_programs_run_alike(loops, recursion):
    small = SpecConfig(window=12, stride=3, max_order=2)
    for seed in range(40):
        program = random_program(seed, loops, recursion)
        inputs = [random_input(seed + k) for k in range(6)]
        check_paths(program, inputs)
        check_paths(program, inputs[:2], small, scheduled=False)
