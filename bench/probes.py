"""Outside-in probes of single layers.

Each probe times one public call of one layer in isolation, on the running
workload's own programs and inputs where it has them, and reports the median
of five batches.  They run in the traced run only, with the tracer off.
"""

from __future__ import annotations

import random
import statistics
import time

import specvm.engine as engine
import specvm.fuzzing as fuzzing
import specvm.gadgets as gadgets
import specvm.isa as isa
import specvm.machine as machine

ALLOC_COUNTS = (1, 10, 100, 1000)
BATCHES = 5
BATCH_SECONDS = 0.01
THREAD_GADGET = 11
THREAD_PAIRS = 5
THREAD_RUNS = 300


def per_call(fn) -> float:
    """Median over BATCHES of the mean seconds per call of fn(), each batch
    repeating the call until it has run for BATCH_SECONDS."""
    fn()
    means = []
    for _ in range(BATCHES):
        n = 0
        t0 = time.perf_counter()
        while True:
            fn()
            n += 1
            dt = time.perf_counter() - t0
            if dt >= BATCH_SECONDS:
                break
        means.append(dt / n)
    return statistics.median(means)


def _spec_config(full_order: bool):
    cfg = engine.SpecConfig()
    return cfg, (lambda image: engine.full_order_stats(image.program, cfg)
                 if full_order else engine.BranchStats())


def run_probes(workload) -> dict[str, float]:
    out: dict[str, float] = {}
    texts = workload.programs()
    programs = [isa.parse_program(t) for t in texts]
    out["isa.parse_ms"] = 1e3 * statistics.mean(
        per_call(lambda t=t: isa.parse_program(t)) for t in texts[:4])
    out["machine.decode_us_per_instr"] = 1e6 * statistics.mean(
        per_call(lambda p=p: machine.ExecImage(p)) / sum(1 for _ in p.iter_instructions())
        for p in programs[:4])

    samples = workload.probe_inputs()
    image, data, _ = samples[0]
    out["machine.init_us"] = 1e6 * per_call(lambda: machine.Machine(image, data))
    steps = sum(machine.run_architectural(im, d).steps for im, d, _ in samples)
    out["machine.arch_ns_per_step"] = 1e9 * per_call(
        lambda: [machine.run_architectural(im, d) for im, d, _ in samples]) / steps

    for n in ALLOC_COUNTS:
        m = machine.Machine(image, b"")
        for _ in range(n):
            m.alloc.alloc(24)
        base, size = m.alloc.recs[-1]
        out[f"machine.check_access_ns.n{n}"] = 1e9 * per_call(
            lambda: m.check_access(base))
        out[f"machine.check_access_rz_ns.n{n}"] = 1e9 * per_call(
            lambda: m.check_access(base + size))

    # Speculative cost: the exposed run minus the same run with simulate=False,
    # per speculative step.
    exposed = plain = 0.0
    spec_steps = 0
    for im, d, full in samples[:4]:
        cfg, stats = _spec_config(full)
        off = engine.SpecConfig(simulate=False)
        spec_steps += engine.run_with_exposure(im, d, cfg, stats(im)).spec_steps
        exposed += per_call(lambda: engine.run_with_exposure(im, d, cfg, stats(im)))
        plain += per_call(lambda: engine.run_with_exposure(im, d, off))
    out["engine.spec_ns_per_step"] = 1e9 * (exposed - plain) / max(spec_steps, 1)

    eng = engine.ExposureEngine(image)
    eng.run(data)

    def pair():
        eng.push_checkpoint("probe")
        eng.rollback()
    out["engine.checkpoint_rollback_ns"] = 1e9 * per_call(pair)

    rng = random.Random(workload.seed)
    corpus = [d for _, d, _ in samples]
    out["fuzzing.mutate_us"] = 1e6 * per_call(
        lambda: fuzzing.mutate(data, rng, corpus, 64))
    out["fuzzing.threads2_per_run_ratio"] = threads_ratio()
    return out


def threads_ratio() -> float:
    """Host time per exposed run with workers=2 over workers=1 on gadget
    THREAD_GADGET, the median of THREAD_PAIRS alternating sessions; above 1
    means the worker threads cost time.  The same on every workload."""
    image = machine.ExecImage(gadgets.builtin_gadget(THREAD_GADGET).program)
    ratios = []
    for _ in range(THREAD_PAIRS):
        per_run = []
        for workers in (1, 2):
            cfg = fuzzing.FuzzConfig(runs=THREAD_RUNS, seed=1, workers=workers)
            t0 = time.perf_counter()
            result = fuzzing.fuzz_loop(image, cfg)
            per_run.append((time.perf_counter() - t0) / result.runs)
        ratios.append(per_run[1] / per_run[0])
    return statistics.median(ratios)
