"""specvm benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload deep-nest --seed 1 --seconds 22 --trace 0

Run from the root of a checkout; specvm is imported from its src/ directory.
With --trace 0 the last line of standard output is a JSON object whose
metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1 it is a
separate traced run whose metrics are the per-layer ones.  The line before it
carries what the metrics do not: the tail percentile and its sample count,
the failure fraction and the simulated-statistics digest.  A summary goes to
standard error.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

import calibrate

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
SETUP_PROBES = 11
SETUP_KERNEL_SAMPLES = 20  # calibration samples per set-up process


def import_specvm():
    """Import specvm from the checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "specvm" / "__init__.py").is_file():
        sys.exit(f"run.py: no specvm sources under {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    import specvm

    if Path(specvm.__file__).resolve().parent != (src / "specvm").resolve():
        sys.exit(f"run.py: imported specvm from {specvm.__file__}, not {src}")


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it: the
    11th-largest value, and the percentile it stands at."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def digest(counter, infos: list[dict]) -> dict:
    """The simulated statistics of one pass and their sha256."""
    stats = {
        "arch_steps": counter.arch_steps,
        "spec_steps": counter.spec_steps,
        "paths": sum(counter.retired.values()),
        "retired": dict(sorted(counter.retired.items())),
        "keys": sorted(repr(k) for k in counter.keys),
        "corpus_ids": sorted(cid for info in infos for cid in info.get("corpus_ids", ())),
    }
    blob = json.dumps(stats, sort_keys=True).encode()
    return {"sha256": hashlib.sha256(blob).hexdigest(),
            "arch_steps": stats["arch_steps"], "spec_steps": stats["spec_steps"],
            "paths": stats["paths"], "retired": stats["retired"],
            "keys": len(stats["keys"]), "corpus_ids": len(stats["corpus_ids"])}


class Runner:
    """Runs passes of one workload's operations and keeps, for each
    operation, its scaled time in every timed repetition (see
    calibrate.py)."""

    def __init__(self, workload, counter, tracer=None):
        self.counter = counter
        self.tracer = tracer
        self.ops = workload.ops()
        self.attempted = 0
        self.failures: list[str] = []
        self.times: list[list[float]] = [[] for _ in self.ops]
        self.raw_seconds = 0.0  # unscaled
        self.scales: list[float] = []  # one per timed pass
        self.passes = 0  # complete timed passes
        self.signatures: set[tuple] = set()
        self.tally: Counter = Counter()  # numeric op results over timed passes

    def one_op(self, op) -> tuple[float, dict | None]:
        """Run and check one operation; returns (seconds, info)."""
        tracer = self.tracer
        self.attempted += 1
        self.counter.counting = True
        t0 = time.perf_counter()
        try:
            if tracer is None:
                info = op.run()
            else:
                tracer.active = True
                try:
                    info = tracer.span("op", op.run)
                finally:
                    tracer.active = False
        except Exception:
            self.counter.counting = False
            self.failures.append(f"{op.name}: {traceback.format_exc(limit=3)}")
            return time.perf_counter() - t0, None
        dt = time.perf_counter() - t0
        self.counter.counting = False
        try:
            op.check(info)
        except Exception as exc:  # a check that raises is a failed operation
            self.failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
        return dt, info

    def one_pass(self, timed: bool, seconds: float = float("inf")) -> list[dict]:
        """Run the pass.  A timed pass stops early once the run's timed
        operations add up to `seconds` (unscaled) and one pass is complete."""
        self.counter.reset()
        infos = []
        done: list[tuple[int, float]] = []
        kernel_s: list[float] = []
        patches = tracing.Patches()
        if self.tracer is not None:
            self.tracer.install(patches)
        try:
            for i, op in enumerate(self.ops):
                if timed and self.passes and self.raw_seconds >= seconds:
                    break
                if timed:
                    kernel_s.append(calibrate.sample())
                dt, info = self.one_op(op)
                if info is None:
                    continue
                infos.append(info)
                if timed:
                    done.append((i, dt))
                    self.raw_seconds += dt
                    self.tally.update({k: v for k, v in info.items()
                                       if type(v) is int})
            else:
                if timed:
                    self.passes += 1
                    self.signatures.add(self.counter.signature())
        finally:
            patches.undo()
        if done:
            scale = calibrate.REFERENCE_S / statistics.mean(kernel_s)
            self.scales.append(scale)
            for i, dt in done:
                self.times[i].append(dt * scale)
        return infos

    def op_times(self) -> list[float]:
        """Per operation, the median of its scaled repetitions."""
        return [statistics.median(t) for t in self.times if t]


def end_to_end(runner: Runner, setup: list[float], first: dict, pass_runs: int) -> dict:
    """The rates divide one pass's simulated work (the same in every pass)
    by the pass time, the sum of the operations' median latencies, so a
    slow phase in one repetition does not move them."""
    times = runner.op_times()
    pass_s = sum(times)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup), "s"),
        "execs_per_s": (pass_runs / pass_s, "1/s"),
        "spec_steps_per_s": (first["spec_steps"] / pass_s, "1/s"),
        "run_ms_p50": (1e3 * statistics.median(times), "ms"),
        "run_ms_tail": (1e3 * tail(times)[0], "ms"),
        "verdict_s": (pass_s, "s"),
        "peak_rss_mb": (rss_kib / 1024, "MiB"),
    }


def setup_times(args) -> list[float]:
    """Scaled set-up time of fresh processes: from just before the process
    is started to the moment its workload is ready for the first operation.
    Each process times the calibration kernel itself, once it is ready, so
    the scale reflects the CPU it ran on; it takes the mean of
    SETUP_KERNEL_SAMPLES samples, as a pass does (see calibrate.py)."""
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        ready, kernel_s = map(float, proc.stdout.split()[-2:])
        out.append((ready - t0) * calibrate.REFERENCE_S / kernel_s)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed seconds; default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set the workload up, print the monotonic clock and a "
                         "calibration time, exit")
    args = ap.parse_args(argv)

    import_specvm()
    sys.path.insert(0, str(BENCH))
    global tracing  # imports specvm, so only after import_specvm()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    if args.setup_probe:
        with tempfile.TemporaryDirectory(dir=work_root) as tmp:
            cls(args.seed, Path(tmp))
            ready = time.monotonic()
        print(ready, statistics.mean(calibrate.sample() for _ in range(SETUP_KERNEL_SAMPLES)))
        return 0

    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        args.seconds = float(spec["run_seconds"])
    setup = setup_times(args)
    work_dir = Path(tempfile.mkdtemp(dir=work_root))
    patches = tracing.Patches()
    counter = tracing.StepCounter()
    counter.install(patches)
    try:
        workload = cls(args.seed, work_dir)
        runner = Runner(workload, counter)
        # The digest pass: a warm-up that also records the simulated
        # statistics of one pass.
        counter.collect_keys = True
        first_infos = runner.one_pass(timed=False)
        counter.collect_keys = False
        first = digest(counter, first_infos)
        first_signature = counter.signature()
        first_counts = {"runs": counter.runs, "records": counter.records}

        runners = [runner]
        if args.trace:
            import layers
            import probes

            # Untraced and traced passes alternate, so both meet the same
            # host conditions; the overhead is the difference of their
            # scaled pass times.
            tracer = tracing.Tracer()
            traced = Runner(workload, counter, tracer)
            runners.append(traced)
            while not traced.passes or runner.raw_seconds + traced.raw_seconds < args.seconds:
                runner.one_pass(timed=True)
                traced.one_pass(timed=True)
            untraced_s, traced_s = sum(runner.op_times()), sum(traced.op_times())
            metrics = layers.per_layer(
                tracer.summary(), first, first_infos, first_counts, traced.tally,
                probes.run_probes(workload), traced_s, untraced_s, len(tracer.spans))
            spans_path = work_root / f"spans-{args.workload}-s{args.seed}.jsonl"
            tracer.write(spans_path)
        else:
            while not runner.passes or runner.raw_seconds < args.seconds:
                runner.one_pass(timed=True, seconds=args.seconds)
            metrics = end_to_end(runner, setup, first, first_counts["runs"])
        failures = [msg for r in runners for msg in r.failures]
        failures += [f"final: {msg}" for msg in workload.final_checks()]
    finally:
        patches.undo()
        shutil.rmtree(work_dir, ignore_errors=True)

    if any(r.signatures - {first_signature} for r in runners):
        failures.append("simulated statistics differ between passes")
    attempted = sum(r.attempted for r in runners)
    sample = runners[-1]
    _, pct = tail(sample.op_times())
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops_per_pass": len(sample.ops), "passes": sample.passes,
        "repetitions_min": min(len(t) for t in sample.times),
        "samples": len(sample.op_times()), "tail_percentile": round(pct, 2),
        "host_scale": statistics.median(sample.scales),
        "raw_timed_s": sample.raw_seconds,
        "fail_frac": len(failures) / attempted,
        "setup_samples_s": setup,
        "digest": first,
    }
    if args.trace:
        info["spans_file"] = str(spans_path.relative_to(ROOT))
    for msg in failures[:5]:
        print(f"FAILED {msg}", file=sys.stderr)
    width = max(len(k) for k in metrics)
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"passes={info['passes']} samples={info['samples']} "
          f"tail=p{info['tail_percentile']} fail_frac={info['fail_frac']:.4f}",
          file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:14.6g} {unit}", file=sys.stderr)
    print(f"  digest {first['sha256'][:16]}", file=sys.stderr)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
