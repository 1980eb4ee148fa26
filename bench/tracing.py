"""Step counting and span tracing around specvm's public functions.

Both work from outside the package: they replace module and class attributes
with wrappers for the length of a run and put the originals back afterwards,
so src/ is never edited.  Callers inside specvm that look a function up
through its module at call time (fuzz_loop -> mutate, verify_hardening ->
run_with_exposure, ...) see the wrapper; the benchmark itself calls every
traced function through its module for the same reason.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from collections import Counter

import specvm.analyze as analyze
import specvm.detect as detect
import specvm.engine as engine
import specvm.fuzzing as fuzzing
import specvm.harden as harden
import specvm.isa as isa
import specvm.machine as machine
import specvm.oracle as oracle

# (owner, attribute, span name).  analyze.read_lines is artifacts.read_lines
# as bound by `from .artifacts import read_lines` in analyze.
TRACED = (
    (isa, "parse_program", "parse_program"),
    (machine, "run_architectural", "run_architectural"),
    (machine.ExecImage, "__init__", "ExecImage"),
    (engine, "run_with_exposure", "run_with_exposure"),
    (engine.ExposureEngine, "run", "ExposureEngine.run"),
    (engine.RunTrace, "deduped", "RunTrace.deduped"),
    (fuzzing, "fuzz_loop", "fuzz_loop"),
    (fuzzing, "mutate", "mutate"),
    (fuzzing, "write_artifacts", "write_artifacts"),
    (analyze, "read_lines", "read_lines"),
    (analyze, "load_trace", "load_trace"),
    (analyze, "aggregate", "aggregate"),
    (analyze, "build_whitelist", "build_whitelist"),
    (analyze, "render_report", "render_report"),
    (harden, "fence_pass", "fence_pass"),
    (harden, "slh_pass", "slh_pass"),
    (harden, "verify_hardening", "verify_hardening"),
    (oracle, "enumerate_paths", "enumerate_paths"),
)
SPAN_NAMES = ("op",) + tuple(name for _, _, name in TRACED)


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class StepCounter:
    """What the exposed runs did, read from each RunTrace at
    ExposureEngine.run.  It takes no timestamps, so it stays installed in
    untraced runs; the end-to-end step rates and the simulated-statistics
    digest come from it."""

    def __init__(self):
        self.collect_keys = False
        self.counting = False  # runs are counted only while set
        self.reset()

    def reset(self) -> None:
        self.runs = 0
        self.arch_steps = 0
        self.spec_steps = 0
        self.records = 0
        self.retired: Counter = Counter()
        self.keys: set = set()

    def observe(self, trace) -> None:
        if not self.counting:
            return
        self.runs += 1
        self.arch_steps += trace.arch_steps
        self.spec_steps += trace.spec_steps
        self.records += len(trace.records)
        self.retired.update(trace.retired)
        if self.collect_keys:
            self.keys.update(detect.dedup_key(r) for r in trace.records)

    def signature(self) -> tuple:
        """Exact counts that a speed-only change must leave unchanged."""
        return (self.runs, self.arch_steps, self.spec_steps, self.records,
                tuple(sorted(self.retired.items())))

    def install(self, patches: Patches) -> None:
        def make(run):
            @functools.wraps(run)
            def counted_run(eng, *args, **kwargs):
                trace = run(eng, *args, **kwargs)
                self.observe(trace)
                return trace
            return counted_run
        patches.replace(engine.ExposureEngine, "run", make)


class Tracer:
    """Spans (id, name, start, end, parent id) held in memory.  Every
    workload runs on one thread, so one stack of open spans suffices."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._stack: list[int] = []
        self.active = False  # spans are recorded only while set

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        if not self.active:
            return fn(*args, **kwargs)
        stack = self._stack
        parent = stack[-1] if stack else 0
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent))

    def install(self, patches: Patches) -> None:
        for owner, attr, name in TRACED:
            def make(fn, name=name):
                @functools.wraps(fn)
                def traced(*args, **kwargs):
                    return self.span(name, fn, *args, **kwargs)
                return traced
            patches.replace(owner, attr, make)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0,
                                     "end": t1, "parent": parent}) + "\n")

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds.  Self time is
        the span's duration minus its children's durations."""
        child_s: Counter = Counter()
        for _, _, t0, t1, parent in self.spans:
            if parent:
                child_s[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {
            n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in SPAN_NAMES}
        for sid, name, t0, t1, _ in self.spans:
            row = out[name]
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += t1 - t0 - child_s[sid]
        return out
