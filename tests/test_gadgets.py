"""The built-in victim corpus: every fixture leaks exactly as catalogued."""

import pytest

from iidtools import parse_iid, resolve
from specvm.engine import SpecConfig, full_order_stats, run_with_exposure
from specvm.gadgets import AUX_IDS, MAIN_IDS, GadgetError, builtin_gadget, gadget_ids
from specvm.isa import validate
from specvm.machine import run_architectural
from specvm.oracle import enumerate_paths

# gid -> (referent ordinal, referent size, offset, detail) of the expected
# violation, as established by exhaustive enumeration at min_order.
DETAILS = {
    1: (1, 64, -8, "redzone"),
    2: (1, 64, -8, "redzone"),
    3: (1, 64, -8, "redzone"),
    4: (1, 64, -8, "redzone"),
    5: (2, 64, -8, "redzone"),
    6: (0, 64, 72, "redzone"),
    7: (0, 64, 64, "redzone"),
    8: (1, 64, 64, "redzone"),
    9: (1, 64, -8, "redzone"),
    10: (1, 64, -8, "redzone"),
    11: (0, 64, 64, "redzone"),
    12: (1, 64, 2048, "unmapped"),
    13: (1, 64, -8, "redzone"),
    14: (1, 1032, 2048, "unmapped"),
    15: (2, 64, 72, "redzone"),
    16: (0, 80, 87, "redzone"),
    17: (1, 64, -8, "redzone"),
    18: (None, None, None, "bad-jtab-index"),
}


def test_catalog_shape():
    assert gadget_ids() == tuple(range(1, 19))
    assert MAIN_IDS == tuple(range(1, 16))
    assert AUX_IDS == (16, 17, 18)
    assert set(MAIN_IDS) | set(AUX_IDS) == set(gadget_ids())


def test_unknown_id_raises():
    with pytest.raises(GadgetError):
        builtin_gadget(99)


@pytest.mark.parametrize("gid", gadget_ids())
def test_source_is_valid_and_self_describing(gid):
    g = builtin_gadget(gid)
    assert g.source.startswith("; svm ")
    assert validate(g.program) == []
    assert resolve(g.program, parse_iid(g.expected.offending)) is not None


@pytest.mark.parametrize("gid", gadget_ids())
def test_both_inputs_are_architecturally_clean(gid):
    g = builtin_gadget(gid)
    for data in (g.trigger, g.safe):
        r = run_architectural(g.program, data)
        assert r.halted and r.fault is None, (gid, data)


@pytest.mark.parametrize("gid", gadget_ids())
def test_trigger_leaks_exactly_as_catalogued(gid):
    g = builtin_gadget(gid)
    k = g.expected.min_order
    out = enumerate_paths(g.program, g.trigger, max_order=k)
    matching = [r for r in out.records
                if r.offending == g.expected.offending and r.kind == g.expected.kind]
    assert matching, gid
    ordn, size, offset, detail = DETAILS[gid]
    rec = matching[0]
    assert rec.detail == detail
    assert rec.offset == offset
    if ordn is None:
        assert rec.referent is None
    else:
        assert rec.referent[0] == ordn and rec.referent[2] == size


@pytest.mark.parametrize("gid", [gid for gid in gadget_ids()
                                 if builtin_gadget(gid).expected.min_order > 1])
def test_deep_gadgets_hide_below_their_order(gid):
    g = builtin_gadget(gid)
    out = enumerate_paths(g.program, g.trigger, max_order=g.expected.min_order - 1)
    assert not any(r.offending == g.expected.offending for r in out.records), gid


@pytest.mark.parametrize("gid", gadget_ids())
def test_safe_input_is_speculatively_clean(gid):
    g = builtin_gadget(gid)
    out = enumerate_paths(g.program, g.safe, max_order=3)
    assert out.records == [], gid


@pytest.mark.parametrize("gid", gadget_ids())
def test_engine_finds_every_gadget_at_full_depth(gid):
    g = builtin_gadget(gid)
    cfg = SpecConfig()
    trace = run_with_exposure(g.program, g.trigger, cfg,
                              full_order_stats(g.program, cfg))
    found = {(r.offending, r.kind) for r in trace.records}
    assert (g.expected.offending, g.expected.kind) in found


def test_trigger_and_safe_inputs_differ():
    for gid in gadget_ids():
        g = builtin_gadget(gid)
        assert g.trigger != g.safe
