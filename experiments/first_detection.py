"""Runs to first detection: how soon a fuzzing session finds each gadget.

For each built-in gadget and each session seed, run one in-memory
``fuzz_loop`` session and report the ``run`` number of the first record
whose offending instruction and kind are the gadget's expected ones, or
"not found" when the session ends without it.  Per gadget it prints the
sessions that found the leak, and the median and maximum first run over
those sessions.

A change to the fuzzer (mutator, keep policy, order schedule) must not
make any gadget slower to find; compare this script's output before and
after it.

    PYTHONPATH=src python experiments/first_detection.py
    PYTHONPATH=src python experiments/first_detection.py --gadgets 11 13 --sessions 5 --runs 500
"""

from __future__ import annotations

import argparse
import statistics
import sys

from specvm.fuzzing import FuzzConfig, fuzz_loop
from specvm.gadgets import builtin_gadget, gadget_ids

SEEDS = (b"", b"\x00")


def first_detection(gid: int, session: int, runs: int) -> int | None:
    """The run number of the session's first record of the gadget's
    expected violation, or None."""
    g = builtin_gadget(gid)
    want = (g.expected.offending, g.expected.kind)
    result = fuzz_loop(g.program, FuzzConfig(runs=runs, seed=session), SEEDS)
    for rec in result.records:
        if (rec.offending, rec.kind) == want:
            return rec.run
    return None


def summarize(gid: int, found: list[int | None]) -> str:
    hits = [r for r in found if r is not None]
    if hits:
        spread = f"median {statistics.median(hits):g}  max {max(hits)}"
    else:
        spread = "median -  max -"
    runs = " ".join("not-found" if r is None else str(r) for r in found)
    return f"g{gid:02d}  found {len(hits)}/{len(found)}  {spread}  runs: {runs}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--gadgets", type=int, nargs="+", default=list(gadget_ids()))
    ap.add_argument("--sessions", type=int, default=20,
                    help="session seeds 0 to N-1 (default 20)")
    ap.add_argument("--runs", type=int, default=2000,
                    help="fuzzing runs per session (default 2000)")
    args = ap.parse_args(argv)
    missed = 0
    for gid in args.gadgets:
        found = [first_detection(gid, s, args.runs) for s in range(args.sessions)]
        missed += found.count(None)
        print(summarize(gid, found))
    print(f"{missed} of {len(args.gadgets) * args.sessions} sessions found nothing")
    return 0


if __name__ == "__main__":
    sys.exit(main())
