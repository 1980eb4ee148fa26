"""Run every workload over several seeds and record the baseline.

    python3 bench/baseline.py --runs 10 --out bench/baseline.json

Run from the root of a checkout.  For each workload it makes --runs untraced
runs, one seed each, and one traced run on the first seed.  It prints every
end-to-end metric by name and unit with its median, quartiles and spread (the
interquartile range as a share of the median) against the bound in
BENCHMARK.json, plus fail_frac, and writes the record to --out: environment,
figures, simulated-statistics digests, the traced run's per-layer metrics and
the layer -> end-to-end map.  Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
RUN = Path(__file__).resolve().parent / "run.py"

# Which end-to-end metric each layer's metrics should move, and where.
LAYER_MAP = {
    "isa": "setup_s on every workload; verdict_s on harden-verify, which parses in each operation",
    "machine (decode, init, arch step)": "setup_s on every workload; verdict_s on harden-verify, "
                                         "whose verify_hardening decodes on every call; "
                                         "execs_per_s on fuzz-gadgets",
    "machine (check_access)": "execs_per_s on heap-walk; no change on fuzz-gadgets or deep-nest",
    "engine (spec step, checkpoint/rollback)": "spec_steps_per_s and run_ms_* on deep-nest; "
                                               "execs_per_s on heap-walk; little change on "
                                               "harden-verify",
    "engine (counts)": "none: exact counts that a speed-only change must not move",
    "detect": "execs_per_s on fuzz-gadgets",
    "fuzzing": "execs_per_s on fuzz-gadgets; verdict_s on harden-verify",
    "artifacts": "execs_per_s on fuzz-gadgets (small share)",
    "analyze": "execs_per_s on fuzz-gadgets (small share)",
    "harden": "verdict_s on harden-verify",
    "oracle": "verdict_s on harden-verify (small share; the oracle is the reference)",
}

LIMITS = [
    "Host time only (time.perf_counter); there are no hardware counters.",
    "Measured on a shared virtual machine with 2 CPUs; other tenants add noise.",
    "Operation times are scaled by a calibration kernel timed before each "
    "operation (calibrate.py), which cancels most, not all, of the host's drift.",
    "peak_rss_mb is ru_maxrss from getrusage of the process that runs one workload.",
    "setup_s is the median of 11 fresh processes, timed from before the process "
    "starts to the moment its workload is ready, interpreter start-up included.",
    "Fuzzing runs one worker: threads made timings swing by up to 2x; the "
    "threads cost is the per-layer probe fuzzing.threads2_per_run_ratio.",
    "A warm-up pass (the digest pass) runs before timing in every run.",
]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if result["failed"]:
        sys.stderr.writelines(f"{workload} seed {seed}: {ln}\n"
                              for ln in proc.stderr.splitlines() if ln.startswith("FAILED"))
    result["info"] = json.loads(lines[-2])["info"]
    result["wall_s"] = wall
    return result


def spread_row(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def git_revision() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                             cwd=ROOT, capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", help="write the record to this JSON file")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2 to give quartiles")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    record = {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "seconds": args.seconds,
        "runs_per_workload": args.runs,
        "seeds": seeds,
        "layer_map": LAYER_MAP,
        "limits": LIMITS,
        "workloads": {},
    }
    rows = []
    for name in (w["name"] for w in spec["workloads"]):
        results = [run_once(name, seed, args.seconds, 0) for seed in seeds]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        entry = {
            "end_to_end": {}, "fail_frac": failed / attempted,
            "tail_percentiles": [r["info"]["tail_percentile"] for r in results],
            "samples": [r["info"]["samples"] for r in results],
            "wall_s": [round(r["wall_s"], 2) for r in results],
            "digest": results[0]["info"]["digest"],
        }
        for metric, bound in bounds.items():
            row = spread_row([r["metrics"][metric]["value"] for r in results])
            row.update(unit=results[0]["metrics"][metric]["unit"], bound=bound)
            entry["end_to_end"][metric] = row
            rows.append((name, metric, row))
        rows.append((name, "fail_frac", {"unit": "ratio", "median": entry["fail_frac"]}))
        traced = run_once(name, args.first_seed, args.seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["traced_failed"] = traced["failed"]
        # Two processes on the same seed must see the same statistics.
        entry["digest_repeatable"] = traced["info"]["digest"] == entry["digest"]
        record["workloads"][name] = entry
        print(f"{name}: {len(seeds)} runs, fail_frac {entry['fail_frac']}, "
              f"digest repeatable {entry['digest_repeatable']}", file=sys.stderr)

    print(f"{'workload':<14} {'metric':<17} {'unit':<6} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}")
    for name, metric, row in rows:
        if "q1" in row:
            print(f"{name:<14} {metric:<17} {row['unit']:<6} {row['median']:12.5g} "
                  f"{row['q1']:12.5g} {row['q3']:12.5g} {row['spread']:7.4f} "
                  f"{row['bound']:6.2f}")
        else:
            print(f"{name:<14} {metric:<17} {row['unit']:<6} {row['median']:12.5g}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
