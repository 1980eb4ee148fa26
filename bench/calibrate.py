"""Host-speed calibration.

The benchmark host is shared.  Its speed drifts by up to about 1.8x over
minutes, and whole runs can fall in a slow phase, so no statistic taken
inside one run filters the drift out.  Before every operation the benchmark
times KERNEL, a fixed pure-Python loop shaped like an interpreter step
(tuple unpacking, list and dict indexing, slot attributes, a method call)
that shares no code with specvm.  Each pass's operation times are then
scaled by REFERENCE_S / (the pass's mean kernel time).  The results read
as seconds on a host whose kernel takes REFERENCE_S.  A change to specvm
does not move the kernel, so it moves the scaled times exactly as it moves
the raw ones.

The mean, not the median: on the baseline host the kernel time is bimodal
from one call to the next (about 0.38 or 0.63 ms), and a pass spends some
share of its time in each mode.  The mean follows that share; the median
jumps to whichever mode holds the majority.
"""

from __future__ import annotations

import time

# A round figure near the median kernel time on the 2-CPU virtual machine
# where the baseline was taken (0.36 to 0.69 ms there).  Only the unit of
# the scaled times depends on it.
REFERENCE_S = 0.0005
ITERATIONS = 3000


class _Cell:
    __slots__ = ("pc", "acc")

    def __init__(self):
        self.pc = 0
        self.acc = 0

    def bump(self, v: int) -> None:
        self.acc = (self.acc + v) & 0xFFFFFFFF


_CODE = [(i % 5, i % 7, (i * 3) % 11) for i in range(64)]
_TABLE = {i: (i * 2654435761) & 0xFFFF for i in range(256)}


def kernel() -> int:
    cell = _Cell()
    regs = [0] * 16
    code = _CODE
    table = _TABLE
    for i in range(ITERATIONS):
        op, a, b = code[i & 63]
        if op == 0:
            regs[a] = (regs[b] + i) & 0xFFFF
        elif op == 1:
            regs[a] = table.get(regs[b] & 255, 0)
        elif op == 2:
            cell.bump(regs[a])
        elif op == 3:
            regs[b] = regs[a] ^ b
        else:
            cell.pc = (cell.pc + 1) & 63
    return cell.acc


def sample() -> float:
    """Seconds of one kernel call, the fastest of three to drop interrupts."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best
