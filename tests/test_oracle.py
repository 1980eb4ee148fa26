"""Exhaustive path enumeration and cross-checks against the live engine
and against the from-start reference oracle (tests/reforacle.py)."""

import inspect
from dataclasses import replace

import pytest

from genprog import random_input, random_program
from reforacle import reference_enumerate
from specvm import cli
from specvm.cli import build_parser
from specvm.analyze import aggregate
from specvm.detect import DEFAULT_IDENTITY, ViolationRecord, dedup_key
from specvm.engine import RunTrace, SpecConfig, run_with_exposure
from specvm.fuzzing import FuzzConfig, fuzz_loop
from specvm.gadgets import builtin_gadget, gadget_ids
from specvm.isa import parse_program
from specvm.machine import (
    DEFAULT_MAX_STEPS,
    STACK_HI,
    ExecImage,
    Machine,
    run_architectural,
)
from specvm.oracle import (
    ORACLE_MAX_ORDER,
    SCRIPT_LIMIT,
    OracleError,
    enumerate_paths,
)

CENSUS = """\
fn main:
A:
  cmp r0, 0
  br eq, B, C
B:
  br eq, D, B
C:
  br eq, B, C
D:
  halt
"""


def _paths(names):
    return {tuple(f"main:{c}" for c in word) for word in names}


def block_names(image, blocks):
    """The "fn:label" names of a script's block indices."""
    return tuple(f"{image.blocks[b][2]}:{image.blocks[b][3]}" for b in blocks)


def block_paths(image, out, root, occurrence=1):
    """Census of speculative block paths for one tree, as names."""
    return {block_names(image, s.blocks) for s in out.scripts
            if s.root == root and s.occurrence == occurrence}


def test_census_tree_of_the_first_branch():
    image = ExecImage(parse_program(CENSUS))
    out = enumerate_paths(image, b"", max_order=3, window=16)
    got = block_paths(image, out, "main:A:1", 1)
    assert got == _paths(["CBD", "CCBD", "CBBD", "CCCBD", "CCBBD", "CBBBD"])


def test_census_tree_of_the_second_branch():
    image = ExecImage(parse_program(CENSUS))
    out = enumerate_paths(image, b"", max_order=3, window=16)
    assert block_paths(image, out, "main:B:0", 1) == _paths(["BD", "BBD", "BBBD"])


def test_census_script_count_matches_engine_retirement():
    out = enumerate_paths(parse_program(CENSUS), b"", max_order=3, window=16)
    trace = run_with_exposure(parse_program(CENSUS), b"",
                              SpecConfig(max_order=3, window=16))
    assert len(out.scripts) == sum(trace.retired.values()) == 9
    assert {s.retire for s in out.scripts} == {"halt"}


def test_lower_order_prunes_the_tree():
    image = ExecImage(parse_program(CENSUS))
    out = enumerate_paths(image, b"", max_order=1, window=16)
    assert block_paths(image, out, "main:A:1", 1) == _paths(["CBD"])
    assert block_paths(image, out, "main:B:0", 1) == _paths(["BD"])


def test_occurrences_get_separate_trees():
    src = ("fn main:\ne:\n  const r1, 2\n  jmp loop\n"
           "loop:\n  cmp r1, 0\n  br eq, out, body\n"
           "body:\n  sub r1, r1, 1\n  jmp loop\n"
           "out:\n  halt\n")
    out = enumerate_paths(parse_program(src), b"", max_order=1)
    occurrences = {(s.root, s.occurrence) for s in out.scripts}
    assert occurrences == {("main:loop:1", 1), ("main:loop:1", 2),
                           ("main:loop:1", 3)}


def test_fence_ends_scripts():
    src = ("fn main:\ne:\n  cmp r0, 0\n  br eq, out, guarded\n"
           "guarded:\n  fence\n  halt\nout:\n  halt\n")
    out = enumerate_paths(parse_program(src), b"", max_order=2)
    assert [s.retire for s in out.scripts] == ["fence"]
    assert out.records == []


def test_window_retirement_matches_engine():
    # 300 one-instruction blocks overflow the default window on both sides.
    lines = ["fn main:", "e:", "  cmp r0, 0", "  br eq, out, c0"]
    for i in range(300):
        lines += [f"c{i}:", f"  jmp c{i + 1}" if i < 299 else "  jmp out"]
    lines += ["out:", "  halt"]
    p = parse_program("\n".join(lines) + "\n")
    out = enumerate_paths(p, b"", max_order=1)
    assert [s.retire for s in out.scripts] == ["window"]
    trace = run_with_exposure(p, b"", SpecConfig(max_order=1))
    assert trace.retired == {"window": 1}


def test_script_limit_guards_enumeration():
    with pytest.raises(OracleError, match="enumeration-too-large"):
        enumerate_paths(parse_program(CENSUS), b"", max_order=3, window=16,
                        script_limit=4)


def test_max_order_must_be_positive():
    with pytest.raises(ValueError):
        enumerate_paths(parse_program(CENSUS), b"", max_order=0)


@pytest.mark.parametrize("bound", ["window", "stride"])
def test_window_and_stride_must_be_positive(bound):
    # The same bounds and messages as SpecConfig.  The program has no loop,
    # so an unchecked bound would end the call rather than hang it.
    program = builtin_gadget(1).program
    with pytest.raises(ValueError, match=f"^{bound} must be at least 1$"):
        enumerate_paths(program, b"\x09", **{bound: 0})
    with pytest.raises(ValueError, match=f"^{bound} must be at least 1$"):
        SpecConfig(**{bound: 0})


def test_identity_mode_is_checked_before_enumerating():
    # A program with no branch records nothing, so only the up-front check
    # can reject the mode.
    with pytest.raises(ValueError, match="^unknown identity mode 'bogus'$"):
        enumerate_paths(parse_program("fn main:\ne:\n  halt\n"), identity="bogus")
    with pytest.raises(ValueError, match="^unknown identity mode 'bogus'$"):
        enumerate_paths(builtin_gadget(1).program, b"\x09", identity="bogus")


def test_max_steps_must_be_positive():
    # SpecConfig checks the oracle's bounds, so max_steps too.
    with pytest.raises(ValueError, match="^max_steps must be at least 1$"):
        enumerate_paths(builtin_gadget(1).program, b"\x09", max_steps=0)


def test_keys_match_engine_on_gadgets():
    for gid in (1, 11, 13, 17, 18):
        g = builtin_gadget(gid)
        for data in (g.trigger, g.safe):
            for order in (1, 2, 3):
                cfg = SpecConfig(max_order=order)
                trace = run_with_exposure(g.program, data, cfg)
                engine_keys = {(r.offending, r.branches, r.kind, r.identity())
                               for r in trace.records}
                oracle = enumerate_paths(g.program, data, max_order=order)
                assert engine_keys == oracle.keys, (gid, data, order)


def test_records_carry_the_forcing_chain():
    g = builtin_gadget(13)
    out = enumerate_paths(g.program, g.trigger, max_order=2)
    rec = [r for r in out.records if r.offending == g.expected.offending]
    assert rec and all(r.order == 2 and len(r.branches) == 2 for r in rec)


def test_looping_programs_repeat_roots_and_blocks():
    # Acceptance 03 runs the generator's looping programs; they must really
    # repeat architectural roots and revisit blocks inside one tree.
    repeated_roots = revisited_blocks = 0
    for seed in range(50):
        out = enumerate_paths(random_program(seed, loops=True), random_input(seed),
                              window=64, stride=16)
        repeated_roots += any(s.occurrence > 1 for s in out.scripts)
        revisited_blocks += any(len(set(s.blocks)) < len(s.blocks) for s in out.scripts)
    assert repeated_roots >= 10 and revisited_blocks >= 10


def test_recursive_programs_nest_calls_on_both_paths():
    # Acceptance 03 and 04 run the generator's recursive programs; they must
    # really nest calls architecturally and re-enter the recursion guard on
    # speculative paths.
    nested = spec_recursion = 0
    for seed in range(50):
        image = ExecImage(random_program(seed, recursion=True))
        data = random_input(seed)
        m = Machine(image, data)
        lowest = m.sp
        for _ in range(10_000):
            if m.step(None) != 0:
                break
            lowest = min(lowest, m.sp)
        nested += STACK_HI - lowest >= 3 * 8
        out = enumerate_paths(image, data, window=64, stride=16)
        spec_recursion += any(
            sum(b.endswith(":r") for b in block_names(image, s.blocks)) >= 2
            for s in out.scripts)
    assert nested >= 10 and spec_recursion >= 10


def _assert_same_as_reference(image, data, **kw):
    got = enumerate_paths(image, data, **kw)
    ref = reference_enumerate(image, data, **kw)
    assert got.scripts == ref.scripts
    assert got.records == ref.records
    assert got.keys == ref.keys


def test_gadgets_enumerate_as_the_reference():
    for gid in gadget_ids():
        g = builtin_gadget(gid)
        image = ExecImage(g.program)
        for data in (g.trigger, g.safe):
            for order in (1, 2, 3):
                _assert_same_as_reference(image, data, max_order=order)


@pytest.mark.parametrize("loops,recursion", [(False, False), (True, False),
                                             (False, True), (True, True)])
def test_random_programs_enumerate_as_the_reference(loops, recursion):
    # Forking at each root must give the scripts, in order, that replaying
    # the prefix from program start gives; looping programs repeat roots.
    for seed in range(30):
        image = ExecImage(random_program(seed, loops, recursion))
        _assert_same_as_reference(image, random_input(seed), max_order=2,
                                  window=64, stride=16)


def test_oracle_and_interpreter_defaults_match_the_engine(tmp_path, monkeypatch):
    cfg = SpecConfig()
    oracle = inspect.signature(enumerate_paths).parameters
    for name in ("window", "stride", "max_steps"):
        assert oracle[name].default == getattr(cfg, name), name
    # One identity default, read by every caller that takes a mode.
    assert FuzzConfig().identity == DEFAULT_IDENTITY
    for fn, name in ((enumerate_paths, "identity"), (aggregate, "identity"),
                     (ViolationRecord.identity, "mode"), (dedup_key, "mode"),
                     (RunTrace.deduped, "mode")):
        assert inspect.signature(fn).parameters[name].default == DEFAULT_IDENTITY, fn
    arch = inspect.signature(run_architectural).parameters
    assert arch["max_steps"].default == cfg.max_steps == DEFAULT_MAX_STEPS
    # The CLI's fallbacks come from the same sources.
    assert oracle["script_limit"].default == SCRIPT_LIMIT
    assert build_parser().parse_args(["oracle", "p.sasm"]).limit == SCRIPT_LIMIT
    src = tmp_path / "p.sasm"
    src.write_text(CENSUS)
    seen = []

    def no_runs(program, config, out_dir):
        seen.append(config)
        return fuzz_loop(program, replace(config, runs=0), out_dir=out_dir)
    monkeypatch.setattr(cli, "fuzz_loop", no_runs)
    monkeypatch.delenv("SVM_SEED", raising=False)
    assert cli.main(["fuzz", str(src)]) == 0
    assert seen == [FuzzConfig()]
    calls = []

    def recording(program, data, **kw):
        calls.append(kw)
        return enumerate_paths(program, data, **kw)
    monkeypatch.setattr(cli, "enumerate_paths", recording)
    assert cli.main(["oracle", str(src)]) == 0
    assert oracle["max_order"].default == ORACLE_MAX_ORDER
    assert calls == [{name: oracle[name].default for name in calls[0]}]
