"""Reference exposed run: the run loop without a start snapshot.

``reference_run(engine, data, ...)`` does what ``ExposureEngine.run`` must:
it starts from a fresh ``Machine(image, data)`` at the entry block,
with no steps and no edges, and drives the engine's own ``_spec_run`` at
every conditional branch.  It shares the trees with the engine and nothing
of the start state, so tests/test_snapshot.py can check that starting every
run from a fork of the engine's prefix snapshot changes no trace.
"""

from refspec import ENTERS_BLOCK, block_at
from specvm.detect import SpecContext
from specvm.engine import RunTrace, allowed_order
from specvm.machine import (
    F_STEP,
    O_BR,
    O_RET,
    OUT_HALT,
    OUT_OK,
    Fault,
    Machine,
    RunResult,
)


def reference_run(engine, input_bytes: bytes, stats=None,
                  input_id: str | None = None, run_serial: int = 0) -> RunTrace:
    cfg = engine.cfg
    image = engine.image
    m = engine.m = Machine(image, input_bytes)
    ctx = engine.ctx = SpecContext(input_id=input_id, run_serial=run_serial)
    engine.checkpoints = []
    engine.spec_steps = 0
    engine.retired = {}
    order_of: dict[str, int] = {}
    edges: set[tuple[int, int]] = set()
    code = image.code
    handlers = image.handlers
    starts = block_at(image)
    cur_block = image.entry_block
    steps = 0
    out = OUT_OK
    while steps < cfg.max_steps:
        pc = m.pc
        op = code[pc][0]
        if op == O_BR and cfg.simulate:
            iid = image.iid_str[pc]
            order = order_of.get(iid)
            if order is None:
                if stats is not None:
                    n = stats.bump(iid)
                    order = allowed_order(n, cfg.order_base, cfg.max_order)
                else:
                    order = cfg.max_order
                order_of[iid] = order
            engine._spec_run(1, order, pc, 0, [])
        out = handlers[pc](m, None)
        steps += 1
        if out:
            break
        if op in ENTERS_BLOCK:
            edges.add((cur_block, starts[m.pc]))
            cur_block = starts[m.pc]
        elif op == O_RET:
            cur_block = image.block_of[m.pc]
    if out == OUT_OK:  # the step limit
        out = Fault(F_STEP, image.iid_of[m.pc])
    result = RunResult(tuple(m.regs), (m.fa, m.fb), image.iid_of[m.pc], m.sp,
                       out == OUT_HALT, steps,
                       out if isinstance(out, Fault) else None, m)
    return RunTrace(result, ctx.records, edges, order_of, steps,
                    engine.spec_steps, engine.retired)
