"""The four benchmark workloads.

Each workload is a closed loop over operations: the next operation starts when
the previous one has finished and been checked.  One pass is a fixed list of
operations built from the seed in set-up; a run repeats that pass, so every
pass does the same simulated work.  The seed is the only source of
randomness, and the programs receive only the generated inputs.

Every traced specvm function is called through its module (fuzzing.fuzz_loop,
not a name imported from it) so that the tracer's wrappers see the call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import specvm.analyze as analyze
import specvm.engine as engine
import specvm.fuzzing as fuzzing
import specvm.gadgets as gadgets
import specvm.harden as harden
import specvm.isa as isa
import specvm.machine as machine
import specvm.oracle as oracle
from programs import heap_walk

PROGRAMS = Path(__file__).resolve().parent / "programs"


class CheckFailed(Exception):
    """An operation's output is wrong."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Op:
    """One timed operation and the check of what it returned."""

    name: str
    run: Callable[[], dict]
    check: Callable[[dict], None]


def _bytes(rng: random.Random, n: int) -> bytes:
    return bytes(rng.randrange(256) for _ in range(n))


def _instr_count(program) -> int:
    return sum(1 for _ in program.iter_instructions())


def _session_info(result) -> dict:
    return {"attempts": result.attempts, "runs": result.runs,
            "corpus": len(result.corpus), "keys": len(result.keys),
            "corpus_ids": [cid for cid, _, _ in result.corpus]}


class Workload:
    name = ""

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def final_checks(self) -> list[str]:
        """Checks made once per run, after timing; returns failure messages."""
        return []

    def probe_inputs(self) -> list[tuple[machine.ExecImage, bytes, bool]]:
        """(image, input, full order) samples for the machine and engine
        probes, taken from this workload's own programs and inputs."""
        raise NotImplementedError

    def programs(self) -> list[str]:
        """Program texts parsed in set-up; the parse and decode probes use
        them."""
        raise NotImplementedError


# ---------------------------------------------------------------------------

class FuzzGadgets(Workload):
    """One single-worker fuzz_loop session on a built-in gadget, writing
    artifacts, then the analyze pass over the trace read back.

    Why: the main user loop on small programs.  Per-run fixed costs dominate
    (Machine init, mutate, input ids, dedup, the fuzzer's lock, the corpus
    copy per attempt).  Two allocations per gadget: allocation lookup is
    barely used.  The sessions use one worker: two worker threads made the
    same session's time swing by up to 2x between runs on a shared 2-CPU
    host, wider than any bound, so threads against processes is a probe of
    the traced run (fuzzing.threads2_per_run_ratio) instead."""

    name = "fuzz-gadgets"
    RUNS = 200  # mutated attempts per session
    SESSIONS = 5  # sessions per gadget and pass, each with its own seeds

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        rng = random.Random(seed)
        self.items = []
        for gid in gadgets.gadget_ids():
            fixture = gadgets.builtin_gadget(gid)
            program = isa.parse_program(fixture.source)
            image = machine.ExecImage(program)
            for k in range(self.SESSIONS):
                seeds = tuple(_bytes(rng, rng.randint(1, 4)) for _ in range(2))
                self.items.append((fixture, k, image, seeds))

    def programs(self):
        return [fixture.source for fixture, k, _, _ in self.items if k == 0]

    def probe_inputs(self):
        return [(image, seeds[0], False) for _, k, image, seeds in self.items if k == 0]

    def ops(self):
        return [Op(f"g{f.id:02d}.{k}", self._session(f, k, image, seeds),
                   self._check(f)) for f, k, image, seeds in self.items]

    def _session(self, fixture, k, image, seeds):
        cfg = fuzzing.FuzzConfig(runs=self.RUNS,
                                 seed=self.seed * 1000 + fixture.id * 10 + k)

        # Each session writes into its own directory, and later repetitions
        # overwrite the same files.  Creating and deleting that many small
        # files made write times grow several-fold within a minute on the
        # baseline host, which would have measured the file system's state.
        out = self.work_dir / f"g{fixture.id:02d}.{k}"

        def run():
            out.mkdir(exist_ok=True)
            result = fuzzing.fuzz_loop(image, cfg, seeds, out_dir=out)
            _, records = analyze.load_trace(out / "trace.jsonl")
            findings = analyze.aggregate(records, cfg.identity)
            analyze.build_whitelist(findings, result.stats.to_dict())
            analyze.render_report(findings)
            info = _session_info(result)
            info.update(out=out, found=set(findings), records=len(result.records),
                        read_back=len(records))
            return info
        return run

    def _check(self, fixture):
        want = (fixture.expected.offending, fixture.expected.kind)

        def check(info):
            trace = info["out"] / "trace.jsonl"
            info["trace_bytes"] = trace.stat().st_size
            # Emptied in place, so the next repetition passes only if it
            # writes the trace again.
            trace.write_bytes(b"")
            require(want in info["found"], f"g{fixture.id:02d}: {want} not found")
            require(info["read_back"] == info["records"],
                    f"g{fixture.id:02d}: trace read back has {info['read_back']} "
                    f"records, the session {info['records']}")
        return check


# ---------------------------------------------------------------------------

def deep_nest_inputs(seed: int) -> list[bytes]:
    """One pass of deep-nest inputs: every pattern of guard depths (0..3) over
    the loop's bytes exactly once, 64 patterns of 3 bytes (length 3 to 5, in
    turn) and 16 of 2 bytes (length 2).  Tree size follows the pattern, so
    every pass, whatever the seed, has the same mix of small and exploding
    trees; the seed picks the byte values inside each pattern, the extra key
    bytes and the order."""
    rng = random.Random(seed)

    def byte_at_depth(depth: int, key: int) -> int:
        while True:
            x = rng.randrange(256)
            d = 0
            if x < 200:
                d = 1
                if (x + key) & 15 < 8:
                    d = 2 if x >= 160 else 3
            if d == depth:
                return x

    out = []
    for loop_bytes in (2, 3):
        for pattern in range(4 ** loop_bytes):
            n = 2 if loop_bytes == 2 else 3 + pattern % 3
            extra = _bytes(rng, n - 3) if n > 3 else b""
            key = (extra[0] if extra else 0) ^ (extra[1] if len(extra) > 1 else 0)
            depths = [(pattern >> (2 * i)) & 3 for i in range(loop_bytes)]
            out.append(bytes(byte_at_depth(d, key) for d in depths) + extra)
    rng.shuffle(out)
    return out


class DeepNest(Workload):
    """One `svm run`-equivalent exposed run per input at full nesting order."""

    name = "deep-nest"
    ORACLE_INPUTS = 8  # inputs cross-checked against the oracle per run

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.text = (PROGRAMS / "deep_nest.sasm").read_text(encoding="utf-8")
        self.program = isa.parse_program(self.text)
        self.image = machine.ExecImage(self.program)
        self.cfg = engine.SpecConfig()
        self.inputs = deep_nest_inputs(seed)

    def programs(self):
        return [self.text]

    def probe_inputs(self):
        return [(self.image, data, True) for data in self.inputs[:8]]

    def ops(self):
        return [Op(f"in{i:02d}", self._run(data), self._check(data))
                for i, data in enumerate(self.inputs)]

    def _run(self, data):
        def run():
            stats = engine.full_order_stats(self.program, self.cfg)
            trace = engine.run_with_exposure(self.image, data, self.cfg, stats)
            return {"trace": trace}
        return run

    def _check(self, data):
        plain = machine.run_architectural(self.image, data)
        want = (plain.state_fingerprint(), plain.fault is None)

        def check(info):
            exposed = info["trace"].result
            require((exposed.state_fingerprint(), exposed.fault is None) == want,
                    f"{data.hex()}: exposure changed the architectural state")
        return check

    def final_checks(self):
        failures = []
        cfg = engine.SpecConfig(max_order=2)
        for data in self.inputs[:self.ORACLE_INPUTS]:
            trace = engine.run_with_exposure(self.image, data, cfg)
            keys = {(r.offending, r.branches, r.kind, r.identity())
                    for r in trace.records}
            ref = oracle.enumerate_paths(self.image, data, max_order=2)
            if keys != ref.keys:
                failures.append(f"{data.hex()}: engine and oracle disagree at order 2")
        return failures


# ---------------------------------------------------------------------------

class HeapWalk(Workload):
    """Single-worker fuzz sessions on the 300-allocation walk."""

    name = "heap-walk"
    SESSIONS = 32  # sessions per pass
    RUNS = 8  # mutated attempts per session

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.text = heap_walk.source()
        self.program = isa.parse_program(self.text)
        self.image = machine.ExecImage(self.program)
        rng = random.Random(seed)
        self.sessions = [(seed * 1000 + i, (_bytes(rng, 3), _bytes(rng, 3)))
                         for i in range(self.SESSIONS)]
        self.replayed: set[bytes] = set()

    def programs(self):
        return [self.text]

    def probe_inputs(self):
        return [(self.image, s, False) for _, seeds in self.sessions for s in seeds][:4]

    def ops(self):
        return [Op(f"s{i:02d}", self._session(fseed, seeds), self._check)
                for i, (fseed, seeds) in enumerate(self.sessions)]

    def _session(self, fseed, seeds):
        cfg = fuzzing.FuzzConfig(runs=self.RUNS, seed=fseed, workers=1)

        def run():
            result = fuzzing.fuzz_loop(self.image, cfg, seeds)
            info = _session_info(result)
            info["inputs"] = [data for _, data, _ in result.corpus]
            return info
        return run

    def _check(self, info):
        # Replays are deterministic, so each distinct kept input is replayed
        # once per run; a later pass keeping it again needs no new replay.
        for data in set(info["inputs"]) - self.replayed:
            self.replayed.add(data)
            plain = machine.run_architectural(self.image, data)
            exposed = engine.run_with_exposure(self.image, data,
                                               stats=engine.BranchStats()).result
            require(plain.state_fingerprint() == exposed.state_fingerprint(),
                    f"{data.hex()}: replay changed the architectural state")


# ---------------------------------------------------------------------------

class HardenVerify(Workload):
    """Harden, verify and fuzz each main gadget in both modes, then check the
    engine against the oracle on the original program."""

    name = "harden-verify"
    RUNS = 600  # fuzz attempts per hardened program

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        rng = random.Random(seed)
        self.items = []
        for gid in gadgets.MAIN_IDS:
            fixture = gadgets.builtin_gadget(gid)
            isa.parse_program(fixture.source)  # set-up validates every text
            seeds = tuple(_bytes(rng, rng.randint(1, 4)) for _ in range(2))
            self.items.append((fixture, seeds))

    def programs(self):
        return [fixture.source for fixture, _ in self.items]

    def probe_inputs(self):
        return [(machine.ExecImage(isa.parse_program(f.source)), f.trigger, False)
                for f, _ in self.items[:4]]

    def ops(self):
        out = []
        for fixture, seeds in self.items:
            for mode in harden.MODES:
                out.append(Op(f"g{fixture.id:02d}-{mode}",
                              self._harden(fixture, seeds, mode), self._check_hardened))
            out.append(Op(f"g{fixture.id:02d}-oracle", self._oracle(fixture),
                          self._check_oracle))
        return out

    def _harden(self, fixture, seeds, mode):
        cfg = fuzzing.FuzzConfig(runs=self.RUNS, seed=self.seed * 1000 + fixture.id,
                                 workers=1)
        passes = {harden.FENCE_MODE: "fence_pass", harden.SLH_MODE: "slh_pass"}

        def run():
            program = isa.parse_program(fixture.source)
            result = getattr(harden, passes[mode])(program)
            verdict = harden.verify_hardening(program, result,
                                              [fixture.trigger, fixture.safe])
            fuzzed = fuzzing.fuzz_loop(result.program, cfg, seeds)
            info = _session_info(fuzzed)
            info.update({"mode": mode, "verdict": verdict,
                         f"instrs.{mode}": _instr_count(program),
                         f"hardened_instrs.{mode}": _instr_count(result.program)})
            return info
        return run

    def _oracle(self, fixture):
        cfg = engine.SpecConfig(max_order=2)

        def run():
            program = isa.parse_program(fixture.source)
            pairs = []
            scripts = 0
            for data in (fixture.trigger, fixture.safe):
                trace = engine.run_with_exposure(program, data, cfg)
                ref = oracle.enumerate_paths(program, data, max_order=2)
                scripts += len(ref.scripts)
                pairs.append(({(r.offending, r.branches, r.kind, r.identity())
                               for r in trace.records}, ref.keys))
            return {"pairs": pairs, "scripts": scripts}
        return run

    @staticmethod
    def _check_hardened(info):
        verdict = info["verdict"]
        require(verdict["preserved"], f"{info['mode']}: architectural state changed")
        require(not verdict["residual_keys"], f"{info['mode']}: residual keys")
        require(info["keys"] == 0, f"{info['mode']}: fuzzing found violation keys")

    @staticmethod
    def _check_oracle(info):
        for keys, ref in info["pairs"]:
            require(keys == ref, "engine and oracle disagree at order 2")


WORKLOADS = {w.name: w for w in (FuzzGadgets, DeepNest, HeapWalk, HardenVerify)}
