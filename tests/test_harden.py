"""Hardening passes: fences, address masking, and their soundness."""

import pytest

from fencescan import fence_guarded_branches
from iidtools import parse_iid, resolve
from specvm.engine import SpecConfig, full_order_stats, run_with_exposure
from specvm.gadgets import builtin_gadget, gadget_ids
from specvm.harden import (
    MASK_REG,
    SCRATCH_REG,
    HardenError,
    fence_pass,
    slh_pass,
    verify_hardening,
)
from specvm.isa import InstructionId, Op, parse_program
from specvm.machine import ExecImage


@pytest.mark.parametrize("gid", gadget_ids())
def test_fence_pass_removes_all_violations(gid):
    g = builtin_gadget(gid)
    result = fence_pass(g.program)
    report = verify_hardening(g.program, result, [g.trigger, g.safe])
    assert report["preserved"], gid
    assert report["residual_keys"] == [], gid


@pytest.mark.parametrize("gid", gadget_ids())
def test_slh_pass_masks_data_leaks(gid):
    g = builtin_gadget(gid)
    result = slh_pass(g.program)
    report = verify_hardening(g.program, result, [g.trigger, g.safe])
    assert report["preserved"], gid
    if g.expected.kind == "data-oob":
        assert report["residual_keys"] == [], gid
    else:
        # Corrupted control transfers are outside the masking threat model.
        assert report["residual_keys"], gid
        assert all(k[1] == "code-ptr" for k in report["residual_keys"])


@pytest.mark.parametrize("gid", gadget_ids())
def test_fence_static_scan_sees_every_hardened_branch(gid):
    g = builtin_gadget(gid)
    result = fence_pass(g.program)
    guarded = fence_guarded_branches(result.program)
    assert guarded == set(result.branch_map.values())
    assert len(guarded) == result.summary["branches_hardened"]


def test_summary_counts_are_consistent():
    for gid in gadget_ids():
        s = fence_pass(builtin_gadget(gid).program).summary
        assert s["branches_total"] == s["branches_hardened"] + s["whitelisted"]
        assert s["edges_in_place"] + s["trampolines"] == 2 * s["branches_hardened"]


def test_branch_map_points_at_branches():
    g = builtin_gadget(2)
    for result in (fence_pass(g.program), slh_pass(g.program)):
        assert set(result.branch_map) == {str(i) for i in g.program.branch_ids()}
        for hardened_iid in result.branch_map.values():
            ins = resolve(result.program, parse_iid(hardened_iid))
            assert ins.op is Op.BR


def test_whitelisted_branch_is_left_alone():
    g = builtin_gadget(1)
    branch = str(g.program.branch_ids()[0])
    result = fence_pass(g.program, {branch})
    assert result.summary["branches_hardened"] == 0
    assert result.summary["whitelisted"] == 1
    assert fence_guarded_branches(result.program) == set()
    report = verify_hardening(g.program, result, [g.trigger])
    assert report["preserved"]
    assert report["residual_keys"]  # the leak survives


def test_whitelisting_one_of_two_branches():
    g = builtin_gadget(13)  # two stacked checks
    branches = [str(i) for i in g.program.branch_ids()]
    assert len(branches) == 2
    result = fence_pass(g.program, {branches[1]})
    assert result.summary["branches_hardened"] == 1
    guarded = fence_guarded_branches(result.program)
    assert guarded == {result.branch_map[branches[0]]}


def test_slh_rejects_programs_using_reserved_registers():
    for reg in (MASK_REG, SCRATCH_REG):
        src = f"fn main:\ne:\n  const r{reg}, 1\n  halt\n"
        with pytest.raises(HardenError, match="mask-register-in-use"):
            slh_pass(parse_program(src))
    fence_pass(parse_program(f"fn main:\ne:\n  const r{MASK_REG}, 1\n  halt\n"))


def test_slh_reserves_registers_only_when_masking():
    g = builtin_gadget(1)
    result = slh_pass(g.program)
    text_ops = [ins for _, ins in result.program.iter_instructions()]
    assert any(ins.op is Op.CONST and ins.ops[0].n == MASK_REG
               and ins.ops[1].v == (1 << 64) - 1 for ins in text_ops)
    assert result.summary["loads_masked"] >= 1


def test_mask_is_initialized_once_at_program_entry():
    g = builtin_gadget(17)  # multi-function gadget
    result = slh_pass(g.program)
    inits = [iid for iid, ins in result.program.iter_instructions()
             if ins.op is Op.CONST and ins.ops[0].n == MASK_REG]
    assert len(inits) == 1
    entry_fn = result.program.entry
    entry_block = result.program.functions[entry_fn][0]
    assert inits[0] == InstructionId(entry_fn, entry_block.label, 0)


def test_trampolines_get_fresh_labels():
    g = builtin_gadget(1)
    result = fence_pass(g.program)
    labels = [b.label for b in result.program.functions["main"]]
    assert result.summary["trampolines"] >= 1
    assert any("__v" in lab for lab in labels)
    assert len(labels) == len(set(labels))


def test_hardened_programs_round_trip_through_text():
    from specvm.isa import emit_text

    g = builtin_gadget(3)
    result = slh_pass(g.program)
    back = parse_program(emit_text(result.program))
    assert [b.label for b in back.functions["main"]] == \
        [b.label for b in result.program.functions["main"]]


def test_fence_and_slh_also_stop_the_engine_finding_leaks():
    for gid in (1, 11, 13):
        g = builtin_gadget(gid)
        for harden in (fence_pass, slh_pass):
            result = harden(g.program)
            cfg = SpecConfig()
            trace = run_with_exposure(result.program, g.trigger, cfg,
                                      full_order_stats(result.program, cfg))
            assert trace.records == [], (gid, harden.__name__)


@pytest.mark.parametrize("n_inputs", [2, 4])
def test_verify_hardening_decodes_each_program_once(n_inputs, monkeypatch):
    built = []
    init = ExecImage.__init__

    def counting_init(self, program):
        built.append(program)
        init(self, program)
    monkeypatch.setattr(ExecImage, "__init__", counting_init)
    g = builtin_gadget(1)
    result = slh_pass(g.program)
    inputs = [g.trigger, g.safe, b"", b"\x05\x01"][:n_inputs]
    report = verify_hardening(g.program, result, inputs)
    assert report["preserved"]
    assert built == [g.program, result.program]


@pytest.mark.parametrize("gid", [11, 13, 17])
def test_verify_hardening_runs_every_input_at_full_order(gid):
    # The leak needs two nested mispredictions and survives hardening with
    # every branch whitelisted; verification finds it whichever input runs
    # first.
    g = builtin_gadget(gid)
    assert g.expected.min_order == 2
    result = fence_pass(g.program, {str(i) for i in g.program.branch_ids()})
    assert result.summary["branches_hardened"] == 0
    report = verify_hardening(g.program, result, [g.safe, g.trigger])
    assert g.expected.offending in {key[0] for key in report["residual_keys"]}
