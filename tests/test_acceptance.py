"""End-to-end acceptance checks.

Each test exercises one externally visible guarantee of the toolchain and
prints a single PASS or FAIL line to the terminal, bypassing capture, so a
full run always shows ten verdict lines.
"""

import random
import time
from pathlib import Path

import pytest

from fencescan import fence_guarded_branches
from genprog import random_input, random_program
from specvm.analyze import (
    CLASS_CONTROLLED,
    CLASS_UNCONTROLLED,
    CLASS_UNKNOWN,
    aggregate,
    build_whitelist,
    load_trace,
)
from specvm.detect import ViolationRecord
from specvm.engine import (
    SpecConfig,
    allowed_order,
    full_order_stats,
    run_with_exposure,
)
from specvm.fuzzing import FuzzConfig, fuzz_loop
from specvm.gadgets import MAIN_IDS, builtin_gadget, gadget_ids
from specvm.harden import (
    fence_pass,
    slh_pass,
    verify_hardening,
)
from specvm.isa import Op, parse_program
from specvm.machine import ExecImage, run_architectural
from specvm.oracle import enumerate_paths


@pytest.fixture
def report(capsys):
    def _run(num, label, body):
        detail = ""
        try:
            ok = bool(body())
        except Exception as e:
            ok = False
            detail = f" ({type(e).__name__}: {e})"
        with capsys.disabled():
            print(f"acceptance {num:02d} [{'PASS' if ok else 'FAIL'}] {label}{detail}")
        assert ok, f"acceptance criterion {num}: {label}{detail}"
    return _run


def test_01_gadget_corpus_is_detected(report):
    def body():
        t0 = time.monotonic()
        for gid in gadget_ids():
            g = builtin_gadget(gid)
            cfg = SpecConfig()
            trace = run_with_exposure(g.program, g.trigger, cfg,
                                      full_order_stats(g.program, cfg))
            found = {(r.offending, r.kind) for r in trace.records}
            assert (g.expected.offending, g.expected.kind) in found, gid
            assert trace.result.fault is None
            clean = run_with_exposure(g.program, g.safe, cfg,
                                      full_order_stats(g.program, cfg))
            assert clean.records == [], gid
            if g.expected.min_order > 1:
                shallow = enumerate_paths(g.program, g.trigger,
                                          max_order=g.expected.min_order - 1)
                assert not any(r.offending == g.expected.offending
                               for r in shallow.records), gid
        return time.monotonic() - t0 < 60

    report(1, "all 18 built-in victims leak exactly as catalogued, and only "
              "on their trigger inputs", body)


def test_02_hardening_is_sound(report):
    def body():
        t0 = time.monotonic()
        for gid in MAIN_IDS:
            g = builtin_gadget(gid)
            for harden in (fence_pass, slh_pass):
                result = harden(g.program)
                rep = verify_hardening(g.program, result, [g.trigger, g.safe])
                assert rep["preserved"], (gid, harden.__name__)
                assert rep["residual_keys"] == [], (gid, harden.__name__)
                fz = fuzz_loop(result.program,
                               FuzzConfig(runs=10_000, seed=11, spec=SpecConfig()))
                assert not fz.keys, (gid, harden.__name__, sorted(fz.keys)[:2])
        return time.monotonic() - t0 < 300

    report(2, "fence and mask hardening of the 15-victim corpus survive "
              "trigger replay plus 10000-run fuzzing with zero violations "
              "in under five minutes", body)


# (loops, recursion, programs): random program kinds for checks 03 and 04.
# Programs that both loop and recurse run far longer, with many more
# speculative paths per run, so 03 takes fewer of them.
KINDS_03 = ((False, False, 200), (True, False, 200), (False, True, 200),
            (True, True, 50))
KINDS_04 = ((False, False, 500), (True, False, 500), (False, True, 500),
            (True, True, 500))
# Random programs of each kind that 03 also checks fence- and mask-hardened,
# each under its own random whitelist, at depths 1 and 2.
HARDENED_03 = 125


def _random_whitelist(program, seed):
    """Each conditional branch of program, kept with probability 1/2."""
    rng = random.Random(seed)
    return {str(iid) for iid, ins in program.iter_instructions()
            if ins.op == Op.BR and rng.random() < 0.5}


def _engine_matches_oracle(image, data, order):
    cfg = SpecConfig(max_order=order, window=64, stride=16)
    trace = run_with_exposure(image, data, cfg)
    engine_keys = {(r.offending, r.branches, r.kind, r.identity())
                   for r in trace.records}
    oracle = enumerate_paths(image, data, max_order=order, window=64, stride=16)
    return engine_keys == oracle.keys


def test_03_engine_matches_exhaustive_enumeration(report):
    def body():
        for loops, recursion, n in KINDS_03:
            for seed in range(n):
                image = ExecImage(random_program(seed, loops, recursion))
                data = random_input(seed)
                for order in (1, 2, 3):
                    assert _engine_matches_oracle(image, data, order), \
                        (seed, loops, recursion, order)
        for loops, recursion, _ in KINDS_03:
            for seed in range(HARDENED_03):
                p = random_program(seed, loops, recursion)
                data = random_input(seed)
                for harden in (fence_pass, slh_pass):
                    image = ExecImage(harden(p, _random_whitelist(p, seed)).program)
                    for order in (1, 2):
                        assert _engine_matches_oracle(image, data, order), \
                            (seed, loops, recursion, harden.__name__, order)
        return True

    report(3, "checkpointing engine and script-enumeration oracle agree on "
              "every violation across 200 acyclic, 200 looping, 200 recursive "
              "and 50 looping recursive random programs at depths 1 to 3, and "
              f"on {HARDENED_03} of each kind fence- and mask-hardened under "
              "random whitelists at depths 1 and 2", body)


def test_04_simulation_is_architecturally_transparent(report):
    def body():
        for loops, recursion, n in KINDS_04:
            for seed in range(n):
                p = random_program(seed, loops, recursion)
                data = random_input(seed * 31 + 7)
                plain = run_architectural(p, data)
                exposed = run_with_exposure(p, data,
                                            SpecConfig(max_order=3, window=64,
                                                       stride=16)).result
                where = (seed, loops, recursion)
                assert plain.state_fingerprint() == exposed.state_fingerprint(), where
                pk = plain.fault.kind if plain.fault else None
                ek = exposed.fault.kind if exposed.fault else None
                assert pk == ek, where
        return True

    report(4, "speculation exposure never perturbs the architectural result "
              "on 500 each of acyclic, looping, recursive and looping "
              "recursive random program and input pairs", body)


def test_05_speculation_window_boundary(report):
    def chain(n, call):
        """A mispredicted path of n one-instruction blocks before an
        out-of-bounds load.  With call, its last three instructions are a
        call, the callee's ret and a jmp after the return."""
        jumps = n - 3 if call else n
        lines = ["fn main:", "e:", "  alloc r1, 8", "  cmp r0, 0",
                 "  br eq, out, c0"]
        for i in range(jumps):
            nxt = f"c{i + 1}" if i + 1 < jumps or call else "load"
            lines += [f"c{i}:", f"  jmp {nxt}"]
        if call:
            lines += [f"c{jumps}:", "  call g", "  jmp load"]
        lines += ["load:", "  load r2, r1, 8", "  halt", "out:", "  halt"]
        if call:
            lines += ["fn g:", "g0:", "  ret"]
        return parse_program("\n".join(lines) + "\n")

    def body():
        for call in (False, True):
            outcomes = {}
            for n in (249, 250, 251):
                trace = run_with_exposure(chain(n, call), b"", SpecConfig(max_order=1))
                oracle = enumerate_paths(chain(n, call), b"", max_order=1)
                assert bool(trace.records) == bool(oracle.records), (n, call)
                outcomes[n] = bool(trace.records)
            assert outcomes == {249: True, 250: False, 251: False}, call
        return True

    report(5, "a leak 249 speculative instructions deep is found and one "
              "250 or 251 deep is not, on both engine and oracle, also when "
              "the leak comes after a call returns", body)


def test_06_nesting_depth_schedule(report):
    def body():
        orders = [allowed_order(n) for n in range(1, 1025)]
        assert sum(1 for o in orders if o >= 2) == 256
        assert sum(1 for o in orders if o >= 3) == 64
        assert min(orders) == 1 and max(orders) == 6
        p = builtin_gadget(13).program
        cfg = SpecConfig()
        stats = full_order_stats(p, cfg)
        for iid in p.branch_ids():
            n = stats.bump(str(iid))
            assert allowed_order(n, cfg.order_base, cfg.max_order) == cfg.max_order
        return True

    report(6, "per-branch depth rationing: 256 of the first 1024 inputs get "
              "depth 2 or more and 64 get depth 3 or more", body)


def test_07_fuzzer_sees_through_architecturally_dead_blocks(report):
    ghost = """\
fn main:
e:
  alloc r1, 8
  input r0, 0
  cmp r0, 256
  br lt, cont, S
cont:
  halt
S:
  load r2, r1, 8
  cmp r2, 1
  br eq, S2, S2
S2:
  halt
"""

    def body():
        p = parse_program(ghost)
        image = ExecImage(p)
        ghost_blocks = {i for i, (_, _, fn, lab) in enumerate(image.blocks)
                        if lab in ("S", "S2")}
        res = fuzz_loop(image, FuzzConfig(runs=2000, seed=5, spec=SpecConfig()))
        touched = {b for edge in res.edges for b in edge}
        assert not (touched & ghost_blocks)  # never reached architecturally
        assert any(k[0] == "main:S:0" for k in res.keys)  # leak found anyway
        oracle = enumerate_paths(p, b"\x00", max_order=1)
        assert any(r.offending == "main:S:0" for r in oracle.records)
        return True

    report(7, "a leak in a block no input can architecturally reach is found "
              "by fuzzing although branch coverage never touches the block", body)


def test_08_controllability_classification(report):
    def synth(n, offsets=(-8,)):
        return [ViolationRecord(
            kind="data-oob", offending="main:a:2", addr=0x100000 + off,
            referent=(0, 0x100000, 64), offset=off, branches=("main:e:3",),
            order=1, input_id=f"inp{i:05d}")
            for i in range(n) for off in offsets]

    def body():
        f99 = aggregate(synth(99))[("main:a:2", "data-oob")]
        f100 = aggregate(synth(100))[("main:a:2", "data-oob")]
        assert f99.classify(min_triggers=100) == CLASS_UNKNOWN
        assert f100.classify(min_triggers=100) == CLASS_UNCONTROLLED
        spread = aggregate(synth(100, offsets=(-8, 16)))[("main:a:2", "data-oob")]
        assert spread.classify(min_triggers=100) == CLASS_CONTROLLED
        g = builtin_gadget(1)
        res = fuzz_loop(g.program, FuzzConfig(runs=400, seed=3,
                                              spec=SpecConfig(max_order=2)))
        finding = aggregate(res.records)[(g.expected.offending, g.expected.kind)]
        assert len(finding.inputs) >= 50
        assert finding.classify(min_triggers=50) == CLASS_CONTROLLED
        return True

    report(8, "evidence thresholds split unknown from classified findings at "
              "exactly 100 inputs and attacker-steered offsets rank as "
              "controlled", body)


def test_09_whitelist_guided_hardening(report, tmp_path):
    two_branch = """\
fn main:
e:
  alloc r1, 64
  input r4, 1
  cmp r4, 8
  br lt, acc, out
acc:
  shl r6, r4, 3
  add r6, r1, r6
  load r5, r6, 0
  jmp tail
out:
  jmp tail
tail:
  input r0, 0
  cmp r0, 1
  br eq, t1, t2
t1:
  halt
t2:
  halt
"""

    def body():
        p = parse_program(two_branch)
        out = tmp_path / "session"
        res = fuzz_loop(p, FuzzConfig(runs=2000, seed=9, spec=SpecConfig()),
                        out_dir=out)
        _, records = load_trace(Path(out) / "trace.jsonl")
        findings = aggregate(records)
        wl = build_whitelist(findings, res.stats.to_dict(), min_inputs=50)
        assert wl == {"main:tail:2"}  # benign branch cleared, leaky one kept
        result = fence_pass(p, wl)
        assert result.summary["branches_hardened"] == 1
        assert result.summary["whitelisted"] == 1
        assert fence_guarded_branches(result.program) == \
            {result.branch_map["main:e:3"]}
        probes = [bytes([0, x]) for x in (5, 9, 20, 200)]
        rep = verify_hardening(p, result, probes)
        assert rep["preserved"] and rep["residual_keys"] == []
        wrong = verify_hardening(p, fence_pass(p, {"main:e:3"}), probes)
        assert wrong["residual_keys"]  # whitelisting the guard leaves the leak
        return True

    report(9, "fuzz evidence whitelists exactly the benign branch and the "
              "remaining instrumentation still removes every violation", body)


def test_10_fuzzing_is_reproducible(report, tmp_path):
    def session(workers, tag):
        out = tmp_path / f"w{workers}{tag}"
        fuzz_loop(builtin_gadget(8).program,
                  FuzzConfig(runs=300, seed=7, workers=workers,
                             spec=SpecConfig(max_order=2)),
                  out_dir=out)
        corpus = {p.name: p.read_bytes() for p in (out / "corpus").iterdir()}
        crashes = {p.name: p.read_bytes() for p in (out / "crashes").iterdir()}
        return ((out / "trace.jsonl").read_bytes(),
                (out / "branch_stats.json").read_bytes(), corpus, crashes)

    def body():
        return all(session(workers, "a") == session(workers, "b")
                   for workers in (1, 2))

    report(10, "two fuzzing sessions with the same seed and worker count (1 or "
               "2) produce byte-identical traces, statistics, corpora, and "
               "crash sets", body)
