"""Reference oracle: one full re-execution from program start per script.

``reference_enumerate`` does what ``oracle.enumerate_paths`` must, the slow
way.  A first architectural run lists every (branch, occurrence) root in
order.  Each script then builds a fresh ``Machine``, replays the
architectural prefix up to its root occurrence, and follows the
speculative path from there.  It never copies a machine, so it shares no
state between scripts, and it inverts a branch through refspec's
``force_branch``, not the branch table; what it shares with the oracle is
the handlers, which tests/test_stepper.py checks against refstep.

tests/test_oracle.py compares ``records``, ``keys`` and every
``ScriptOutcome`` field of the two.
"""

from refspec import ENTERS_BLOCK, block_at, force_branch
from specvm.detect import SpecContext
from specvm.engine import (
    DEFAULT_STRIDE,
    DEFAULT_WINDOW,
    RETIRE_FAULT,
    RETIRE_FENCE,
    RETIRE_HALT,
    RETIRE_WINDOW,
)
from specvm.machine import (
    DEFAULT_MAX_STEPS,
    O_BR,
    O_CALL,
    O_FENCE,
    O_RET,
    OUT_HALT,
    ExecImage,
    Machine,
)
from specvm.oracle import SCRIPT_LIMIT, OracleError, OracleOutcome, ScriptOutcome


def _arch_roots(image, input_bytes, max_steps):
    """Every (branch iid, occurrence) executed architecturally, in order."""
    m = Machine(image, input_bytes)
    roots = []
    seen = {}
    code = image.code
    handlers = image.handlers
    steps = 0
    while steps < max_steps:
        pc = m.pc
        if code[pc][0] == O_BR:
            iid = image.iid_str[pc]
            occ = seen.get(iid, 0) + 1
            seen[iid] = occ
            roots.append((iid, occ))
        if handlers[pc](m, None):
            break
        steps += 1
    return roots


def _run_script(image, input_bytes, root, occurrence, forced, window, stride,
                max_steps):
    """Re-execute from program start, invert the root's outcome at its given
    occurrence, then follow the speculative path applying the script."""
    m = Machine(image, input_bytes)
    code = image.code
    handlers = image.handlers
    iid_str = image.iid_str
    starts = block_at(image)

    # Architectural prefix up to the root occurrence.
    occ = 0
    steps = 0
    while True:
        if steps >= max_steps:
            raise OracleError(f"root {root}@{occurrence} not reached")
        pc = m.pc
        if code[pc][0] == O_BR and iid_str[pc] == root:
            occ += 1
            if occ == occurrence:
                break
        if handlers[pc](m, None):
            raise OracleError(f"root {root}@{occurrence} not reached")
        steps += 1

    # Speculative path.
    ctx = SpecContext()
    ctx.branches.append(root)
    forced_set = set(forced)
    target = force_branch(image, m, m.pc, invert=True)
    blocks = [target]
    counter = 0
    remaining = image.block_lens[target]
    budget = 0
    acct = []
    encounter = 0
    retire = RETIRE_WINDOW
    while True:
        pc = m.pc
        op = code[pc][0]
        if op == O_FENCE:
            retire = RETIRE_FENCE
            break
        if budget == 0:
            if counter >= window:
                retire = RETIRE_WINDOW
                break
            if remaining > 0:
                chunk = min(stride, remaining)
                remaining -= chunk
            else:
                chunk = 1  # resumed mid-block with no prepaid budget
            counter += chunk
            budget = chunk
        budget -= 1
        if op == O_BR:
            encounter += 1
            if encounter in forced_set:
                ctx.branches.append(iid_str[pc])
                target = force_branch(image, m, pc, invert=True)
                blocks.append(target)
                remaining = image.block_lens[target]
                budget = 0
                continue
        out = handlers[pc](m, ctx)
        if out == OUT_HALT:
            retire = RETIRE_HALT
            break
        if out:
            retire = RETIRE_FAULT
            break
        if op in ENTERS_BLOCK:
            if op == O_CALL:
                acct.append((remaining, budget))
            entered = starts[m.pc]
            blocks.append(entered)
            remaining = image.block_lens[entered]
            budget = 0
        elif op == O_RET:
            if acct:
                remaining, budget = acct.pop()
            else:
                remaining, budget = 0, 0
    outcome = ScriptOutcome(root, occurrence, forced, tuple(blocks), retire,
                            encounter)
    return outcome, ctx.records


def reference_enumerate(program, input_bytes=b"", max_order=1,
                        window=DEFAULT_WINDOW, stride=DEFAULT_STRIDE,
                        max_steps=DEFAULT_MAX_STEPS, identity="offset",
                        script_limit=SCRIPT_LIMIT):
    image = program if isinstance(program, ExecImage) else ExecImage(program)
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    records = []
    keys = set()
    scripts = []
    total = 0
    for root, occurrence in _arch_roots(image, input_bytes, max_steps):
        frontier = [()]
        while frontier:
            forced = frontier.pop()
            total += 1
            if total > script_limit:
                raise OracleError("enumeration-too-large")
            outcome, recs = _run_script(image, input_bytes, root, occurrence,
                                        forced, window, stride, max_steps)
            scripts.append(outcome)
            for r in recs:
                k = (r.offending, r.branches, r.kind, r.identity(identity))
                if k not in keys:
                    keys.add(k)
                    records.append(r)
            if 1 + len(forced) < max_order:
                start = forced[-1] + 1 if forced else 1
                for k in range(start, outcome.encounters + 1):
                    frontier.append(forced + (k,))
    return OracleOutcome(records, keys, scripts)
