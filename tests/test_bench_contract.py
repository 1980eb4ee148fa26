"""The benchmark's calls into specvm still work.

bench/ drives specvm from outside, through names such as
``Machine.check_access``, ``ExposureEngine.push_checkpoint`` and
``rollback``, ``full_order_stats``, ``FuzzConfig(workers=...)`` and the
functions its tracer wraps.  This test imports bench/'s modules
read-only (no bytecode is written under bench/), runs the first
operation of every workload with its check under the step counter and
the tracer, and runs the layer probes once on deep-nest.  A change that
removes or breaks one of those calls then fails here, not in a benchmark
run.  It checks that the calls work, not the figures they give; the
benchmark's own seed-dependent checks are outside it.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tree_state(root: Path) -> dict:
    return {str(p.relative_to(root)): p.stat().st_mtime_ns
            for p in sorted(root.rglob("*"))}


@pytest.fixture(scope="module")
def bench():
    before = _tree_state(BENCH)
    saved_path, saved_flag = sys.path[:], sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))
    try:
        mods = [importlib.import_module(n) for n in ("tracing", "workloads", "probes")]
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
    for mod in mods:
        assert Path(mod.__file__).resolve().parent == BENCH, mod.__file__
    yield mods
    assert _tree_state(BENCH) == before, "something was written under bench/"


def test_first_op_of_every_workload_runs_and_passes_its_check(bench, tmp_path):
    tracing, workloads, _ = bench
    import specvm.engine as engine

    original_run = engine.ExposureEngine.__dict__["run"]
    patches = tracing.Patches()
    counter = tracing.StepCounter()
    tracer = tracing.Tracer()
    counter.install(patches)
    tracer.install(patches)
    try:
        for name, cls in workloads.WORKLOADS.items():
            work_dir = tmp_path / name
            work_dir.mkdir()
            workload = cls(1, work_dir)
            op = workload.ops()[0]
            counter.reset()
            counter.counting = tracer.active = True
            try:
                info = tracer.span("op", op.run)
            finally:
                counter.counting = tracer.active = False
            op.check(info)
            assert counter.runs > 0, name
    finally:
        patches.undo()
    assert engine.ExposureEngine.__dict__["run"] is original_run
    spans = tracer.summary()
    assert spans["op"]["calls"] == len(workloads.WORKLOADS)
    assert spans["fuzz_loop"]["calls"] > 0


def test_layer_probes_run_on_deep_nest(bench, tmp_path):
    tracing, workloads, probes = bench
    patches = tracing.Patches()
    tracing.StepCounter().install(patches)
    tracing.Tracer().install(patches)  # installed but off, as in a traced run
    try:
        out = probes.run_probes(workloads.WORKLOADS["deep-nest"](1, tmp_path))
    finally:
        patches.undo()
    assert {"machine.check_access_ns.n1000", "engine.checkpoint_rollback_ns",
            "fuzzing.threads2_per_run_ratio"} <= set(out)
