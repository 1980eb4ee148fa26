"""Exposure engine: nesting schedule, window accounting, checkpointing."""

import pytest

from specvm.detect import SpecContext, dedup_key
from specvm.engine import (
    BranchStats,
    EngineError,
    ExposureEngine,
    SpecConfig,
    allowed_order,
    full_order_stats,
    run_with_exposure,
)
from specvm.isa import parse_program
from specvm.machine import ExecImage, Machine, run_architectural

# Two nested loops hanging off one diamond: a compact program whose
# simulation tree shape is easy to enumerate by hand.
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


def chain_program(n):
    """A branch whose mispredicted path runs n one-instruction blocks and
    then a block with an out-of-bounds load."""
    lines = ["fn main:", "e:", "  alloc r1, 8", "  cmp r0, 0", "  br eq, out, c0"]
    for i in range(n):
        nxt = f"c{i + 1}" if i + 1 < n else "load"
        lines += [f"c{i}:", f"  jmp {nxt}"]
    lines += ["load:", "  load r2, r1, 8", "  halt", "out:", "  halt"]
    return parse_program("\n".join(lines) + "\n")


# -- nesting order schedule ---------------------------------------------------

def test_allowed_order_values():
    assert [allowed_order(n) for n in (1, 2, 3, 4, 8, 16, 64, 256, 1024)] == \
        [1, 1, 1, 2, 2, 3, 4, 5, 6]
    assert allowed_order(4096) == 6  # capped
    assert allowed_order(3, base=3) == 2


def test_allowed_order_rejects_nonpositive():
    with pytest.raises(ValueError):
        allowed_order(0)


def test_schedule_frequencies_over_1024_inputs():
    orders = [allowed_order(n) for n in range(1, 1025)]
    assert sum(1 for o in orders if o >= 2) == 256
    assert sum(1 for o in orders if o >= 3) == 64
    assert sum(1 for o in orders if o >= 4) == 16
    assert orders.count(6) == 1


def test_full_order_stats_grants_maximum_depth_next_run():
    p = parse_program(CENSUS)
    cfg = SpecConfig()
    stats = full_order_stats(p, cfg)
    for iid in p.branch_ids():
        n = stats.bump(str(iid))
        assert allowed_order(n, cfg.order_base, cfg.max_order) == cfg.max_order


def test_branch_stats_counting():
    s = BranchStats()
    assert s.count("x") == 0
    assert s.bump("x") == 1
    assert s.bump("x") == 2
    s = BranchStats({**s.to_dict(), "y": 10})
    assert s.bump("y") == 11
    assert BranchStats(s.to_dict()).count("x") == 2


def test_stats_bump_once_per_run_even_in_loops():
    src = ("fn main:\ne:\n  const r1, 3\n  jmp loop\n"
           "loop:\n  cmp r1, 0\n  br eq, out, body\n"
           "body:\n  sub r1, r1, 1\n  jmp loop\n"
           "out:\n  halt\n")
    p = parse_program(src)
    stats = BranchStats()
    run_with_exposure(p, b"", SpecConfig(max_order=1), stats)
    assert stats.to_dict() == {"main:loop:1": 1}


def test_spec_config_validation():
    for bad in (dict(window=0), dict(stride=0), dict(max_order=0),
                dict(order_base=1), dict(max_steps=0)):
        with pytest.raises(ValueError):
            SpecConfig(**bad)


# -- window accounting ---------------------------------------------------------

def test_window_admits_paths_up_to_the_boundary():
    detected = {}
    for n in (249, 250, 251):
        trace = run_with_exposure(chain_program(n), b"", SpecConfig(max_order=1))
        detected[n] = bool(trace.records)
    assert detected == {249: True, 250: False, 251: False}


def test_window_is_configurable():
    trace = run_with_exposure(chain_program(20), b"",
                              SpecConfig(max_order=1, window=10))
    assert not trace.records
    trace = run_with_exposure(chain_program(5), b"",
                              SpecConfig(max_order=1, window=10))
    assert trace.records


def test_fence_retires_speculative_paths():
    src = ("fn main:\ne:\n  alloc r1, 8\n  cmp r0, 0\n  br eq, out, leak\n"
           "leak:\n  fence\n  load r2, r1, 8\n  halt\n"
           "out:\n  halt\n")
    trace = run_with_exposure(parse_program(src), b"", SpecConfig(max_order=3))
    assert not trace.records
    assert trace.retired.get("fence") == 1


# -- checkpointing and rollback -------------------------------------------------

def _primed_engine():
    eng = ExposureEngine(parse_program("fn main:\ne:\n  halt\n"),
                         SpecConfig(max_order=1))
    eng.m = Machine(eng.image, b"")
    eng.ctx = SpecContext()
    return eng


def test_checkpoint_depth_is_bounded():
    eng = _primed_engine()
    eng.push_checkpoint("a")
    eng.push_checkpoint("b")
    with pytest.raises(EngineError, match="checkpoint-overflow"):
        eng.push_checkpoint("c")


def test_rollback_without_checkpoint_is_an_error():
    eng = _primed_engine()
    with pytest.raises(EngineError, match="internal-log-underflow"):
        eng.rollback()


def test_rollback_detects_truncated_write_log():
    eng = _primed_engine()
    eng.ctx.wlog.append((64, bytes(8)))
    eng.push_checkpoint("a")
    eng.ctx.wlog.clear()
    with pytest.raises(EngineError, match="internal-log-underflow"):
        eng.rollback()


def test_rollback_restores_machine_state():
    eng = _primed_engine()
    m = eng.m
    m.regs[3] = 77
    m.alloc.alloc(8)
    eng.push_checkpoint("a")
    m.regs[3] = 99
    m.alloc.alloc(8)
    m.raw_write8(128, 0xDEAD, eng.ctx.wlog)
    eng.rollback()
    assert m.regs[3] == 77
    assert len(m.alloc.recs) == 1
    assert m.raw_read8(128) == 0
    assert eng.ctx.branches == []


# -- whole-run behaviour ---------------------------------------------------------

def test_census_of_retired_speculative_paths():
    trace = run_with_exposure(parse_program(CENSUS), b"",
                              SpecConfig(max_order=3, window=16))
    assert trace.retired == {"halt": 9}


def test_arch_result_untouched_by_simulation():
    for gid_src in (CENSUS,):
        p = parse_program(gid_src)
        plain = run_architectural(p, b"")
        exposed = run_with_exposure(p, b"", SpecConfig(max_order=3, window=16))
        assert exposed.result.state_fingerprint() == plain.state_fingerprint()
        assert exposed.result.steps == plain.steps


def test_edges_cover_only_architectural_transfers():
    p = chain_program(3)
    image = ExecImage(p)
    bi = {(fn, lab): i for i, (_, _, fn, lab) in enumerate(image.blocks)}
    trace = run_with_exposure(image, b"", SpecConfig(max_order=1))
    assert trace.edges == {(bi[("main", "e")], bi[("main", "out")])}
    assert trace.records  # the leak was seen anyway


def test_simulate_off_runs_purely_architecturally():
    trace = run_with_exposure(chain_program(3), b"",
                              SpecConfig(max_order=1, simulate=False))
    assert trace.spec_steps == 0
    assert not trace.records
    assert trace.retired == {}


def test_nesting_order_gates_detection():
    # The deep gadget needs two nested inversions: invisible at order 1,
    # found once the schedule grants order 2.
    from specvm.gadgets import builtin_gadget

    g = builtin_gadget(13)
    fresh = BranchStats()
    first = run_with_exposure(g.program, g.trigger, SpecConfig(), fresh)
    assert not first.records
    deep = run_with_exposure(g.program, g.trigger, SpecConfig(),
                             full_order_stats(g.program, SpecConfig()))
    keys = {dedup_key(r) for r in deep.records}
    assert any(k[0] == g.expected.offending for k in keys)


def test_order_defaults_to_maximum_without_stats():
    g_src = ("fn main:\ne:\n  alloc r1, 8\n  cmp r0, 0\n  br eq, out, leak\n"
             "leak:\n  load r2, r1, 8\n  halt\nout:\n  halt\n")
    trace = run_with_exposure(parse_program(g_src), b"", SpecConfig(max_order=4))
    assert trace.max_order == {"main:e:2": 4}


def test_run_trace_dedup_collapses_repeats():
    src = ("fn main:\ne:\n  const r3, 2\n  alloc r1, 8\n  jmp loop\n"
           "loop:\n  cmp r3, 0\n  br eq, out, body\n"
           "body:\n  sub r3, r3, 1\n  jmp loop\n"
           "out:\n  cmp r0, 0\n  br eq, fin, leak\n"
           "leak:\n  load r2, r1, 8\n  jmp fin\n"
           "fin:\n  halt\n")
    trace = run_with_exposure(parse_program(src), b"", SpecConfig(max_order=2))
    assert len(trace.deduped()) == 1
