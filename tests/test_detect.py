"""Violation records, identities, and the speculative fault policy."""

import pytest
from hypothesis import given, strategies as st

from specvm.detect import (
    KIND_CODE,
    KIND_DATA,
    SpecContext,
    ViolationRecord,
    dedup_key,
)
from specvm.machine import (
    A_REDZONE,
    A_UNMAPPED,
    F_DIV,
    F_JTAB,
    F_RET,
    F_STACK,
)


def record(**kw):
    base = dict(kind=KIND_DATA, offending="main:e:0", addr=0x100050,
                referent=(1, 0x100050 + 8, 64), offset=-8,
                branches=("main:e:2",), order=1)
    base.update(kw)
    return ViolationRecord(**base)


def test_identity_offset_mode_uses_referent():
    assert record().identity("offset") == ("ref", 1, -8)


def test_identity_raw_mode_uses_address():
    assert record().identity("raw") == ("addr", 0x100050)


def test_identity_offset_falls_back_to_address_without_referent():
    r = record(referent=None, offset=None)
    assert r.identity("offset") == ("addr", 0x100050)


def test_identity_rejects_unknown_mode():
    with pytest.raises(ValueError):
        record().identity("fancy")


def test_wire_round_trip():
    r = record(input_id="c0ffee", run=3, detail="redzone")
    d = r.to_wire()
    assert d["addr"] == "0x100050"
    assert d["referent"] == {"ord": 1, "base": 0x100058, "size": 64}
    assert ViolationRecord.from_wire(d) == r


def test_wire_round_trip_without_referent():
    r = record(referent=None, offset=None, kind=KIND_CODE, detail=F_JTAB)
    assert ViolationRecord.from_wire(r.to_wire()) == r


@given(st.integers(min_value=0, max_value=(1 << 63)),
       st.integers(min_value=-4096, max_value=4096))
def test_wire_round_trip_arbitrary_numbers(addr, offset):
    r = record(addr=addr, referent=(0, addr - offset, 8), offset=offset)
    assert ViolationRecord.from_wire(r.to_wire()) == r


def test_dedup_key_ignores_branch_chain_and_input():
    a = record(branches=("x:y:0",), input_id="aa", run=1)
    b = record(branches=("p:q:1", "x:y:0"), order=2, input_id="bb", run=9)
    assert dedup_key(a) == dedup_key(b)


def test_dedup_key_separates_identities():
    assert dedup_key(record()) != dedup_key(record(offset=16))
    assert dedup_key(record()) != dedup_key(record(offending="main:e:1"))


def test_dedup_key_raw_mode_separates_addresses():
    a = record(addr=0x100050)
    b = record(addr=0x100058, offset=0)
    assert dedup_key(a, "raw") != dedup_key(b, "raw")


# -- policy hooks -------------------------------------------------------------

def test_redzone_access_records_and_proceeds():
    ctx = SpecContext(input_id="ii", run_serial=4)
    ctx.branches.append("main:e:9")
    ok = ctx.on_speculative_access("main:e:0", A_REDZONE, 0x100040, (0, 0x100000, 64), 64)
    assert ok is True
    r = ctx.records[0]
    assert r.kind == KIND_DATA and r.detail == "redzone" and r.offending == "main:e:0"
    assert r.branches == ("main:e:9",) and r.order == 1
    assert r.input_id == "ii" and r.run == 4


def test_unmapped_access_records_and_abandons():
    ctx = SpecContext()
    ok = ctx.on_speculative_access("main:e:0", A_UNMAPPED, 0x500000, None, None)
    assert ok is False
    assert ctx.records[0].detail == "unmapped"


def test_corrupted_control_transfers_record_code_ptr():
    ctx = SpecContext()
    ctx.on_speculative_fault("main:e:0", F_RET, 12345)
    ctx.on_speculative_fault("main:e:0", F_JTAB, 7)
    kinds = [(r.kind, r.detail, r.addr) for r in ctx.records]
    assert kinds == [(KIND_CODE, F_RET, 12345), (KIND_CODE, F_JTAB, 7)]


def test_resource_faults_stay_silent():
    ctx = SpecContext()
    ctx.on_speculative_fault("main:e:0", F_DIV, 0)
    ctx.on_speculative_fault("main:e:0", F_STACK, 0)
    ctx.on_speculative_fault("main:e:0", "heap-exhausted", 0)
    assert ctx.records == []


def test_context_order_tracks_branch_stack():
    ctx = SpecContext()
    ctx.branches += ["a:b:0", "c:d:1"]
    ctx.on_speculative_access("main:e:0", A_REDZONE, 0x100040, (0, 0x100000, 64), 64)
    ctx.branches.pop()
    ctx.on_speculative_fault("main:e:1", F_RET, 7)
    assert [(r.branches, r.order) for r in ctx.records] == [
        (("a:b:0", "c:d:1"), 2), (("a:b:0",), 1)]
