"""Violation records, identities, and the speculative fault policy."""

import json

import pytest
from hypothesis import given, strategies as st

from specvm.detect import (
    KIND_CODE,
    KIND_DATA,
    SpecContext,
    ViolationRecord,
    dedup_key,
)
from specvm.fuzzing import FuzzConfig, fuzz_loop
from specvm.gadgets import builtin_gadget, gadget_ids
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
                branches=("main:e:2",), order=1, detail="redzone")
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


@pytest.mark.parametrize("referent, offset, message", [
    ((0, 0x100000, 64), 999, "offset 999 is not addr - referent base, 64"),
    ((0, 0x100000, 64), None, "offset None is not addr - referent base, 64"),
    (None, 64, "offset 64 without a referent"),
])
def test_from_wire_rejects_an_offset_no_run_records(referent, offset, message):
    # A run gives an offset exactly with a referent, and always addr - base.
    d = record(addr=0x100040, referent=referent, offset=offset).to_wire()
    with pytest.raises(ValueError, match=f"^bad record value: {message}$"):
        ViolationRecord.from_wire(d)


@pytest.mark.parametrize("fields, message", [
    (dict(referent=(-1, 0x100000, 64)), "referent ordinal -1 is negative"),
    (dict(referent=(0, 0x100000, 0)), "referent size 0 is below 1"),
    (dict(kind=KIND_CODE, detail=F_RET), "a code-ptr record with a referent"),
    (dict(detail=F_RET), "detail 'bad-ret' for data-oob, not redzone or unmapped"),
    (dict(kind=KIND_CODE, referent=None, offset=None, detail="redzone"),
     "detail 'redzone' for code-ptr, not bad-ret or bad-jtab-index"),
], ids=["referent-ordinal", "referent-size", "code-ptr-referent", "data-oob-detail",
        "code-ptr-detail"])
def test_from_wire_rejects_a_record_no_run_produces(fields, message):
    # Ordinals count allocations from 0, sizes are at least 1, a code-ptr
    # record names no allocation, and each kind has its own details.
    d = record(**{"addr": 0x100040, "referent": (0, 0x100000, 64), "offset": 64,
                  **fields}).to_wire()
    with pytest.raises(ValueError, match=f"^bad record value: {message}$"):
        ViolationRecord.from_wire(d)


@given(st.integers(min_value=0, max_value=(1 << 63)),
       st.integers(min_value=-4096, max_value=4096))
def test_wire_round_trip_arbitrary_numbers(addr, offset):
    r = record(addr=addr, referent=(0, addr - offset, 8), offset=offset)
    assert ViolationRecord.from_wire(r.to_wire()) == r


# -- record semantics and the trace line codec ----------------------------------

def test_records_are_immutable_hashable_values():
    r = record(input_id="c0ffee", run=3)
    with pytest.raises(AttributeError):
        r.run = 4
    twin = record(input_id="c0ffee", run=3)
    assert twin == r and hash(twin) == hash(r) and len({r, twin}) == 1
    moved = r._replace(run=9)
    assert moved.run == 9 and r.run == 3 and moved != r
    assert moved._replace(run=3) == r


def assert_codec(r: ViolationRecord) -> None:
    """to_line is json.dumps of to_wire, and reads back as the record when
    from_wire accepts it."""
    line = r.to_line()
    assert line == json.dumps(r.to_wire(), sort_keys=True, separators=(",", ":"))
    assert json.loads(line) == r.to_wire()
    try:
        back = ViolationRecord.from_wire(json.loads(line))
    except ValueError as e:
        assert str(e).startswith("bad record value: "), e
    else:
        assert back == r


def test_trace_lines_of_fuzz_sessions_are_json_dumps():
    records = []
    for gid in gadget_ids():
        records += fuzz_loop(builtin_gadget(gid).program,
                             FuzzConfig(runs=200, seed=gid)).records
    kinds = {r.kind for r in records}
    assert kinds == {KIND_DATA, KIND_CODE} and len(records) > 500
    for r in records:
        assert_codec(r)
        assert ViolationRecord.from_wire(json.loads(r.to_line())) == r


# A quote, a backslash, control characters and non-ASCII text, including a
# character outside the BMP (escaped as a surrogate pair) and a lone surrogate.
ODD = ['"', "\\", "\x00\x1f\n\t\x7f", "\u00e9\u2028\U0001f600\ud800", 'a"b\\c\x01\u00ffd']


@pytest.mark.parametrize("odd", ODD)
@pytest.mark.parametrize("field", ["kind", "offending", "branches", "input_id", "detail"])
def test_trace_line_escapes_every_string_field(field, odd):
    value = (odd, "main:e:2" + odd) if field == "branches" else odd
    fields = {field: value, "order": 2} if field == "branches" else {field: value}
    assert_codec(record(**fields))
    assert_codec(record(**{"kind": KIND_CODE, "referent": None, "offset": None,
                           "detail": F_RET, **fields}))


@pytest.mark.parametrize("fields", [
    dict(input_id=None),
    dict(input_id="c0ffee", run=12),
    dict(offset=-8),
    dict(addr=0, referent=(0, 0x40, 16), offset=-0x40),
    dict(addr=(1 << 64) - 1, referent=None, offset=None, detail="unmapped"),
    dict(kind=KIND_CODE, addr=0, referent=None, offset=None, detail=F_JTAB),
    dict(kind=KIND_CODE, addr=(1 << 64) - 1, referent=None, offset=None,
         detail=F_RET, branches=(), order=0),
    dict(branches=("a:b:0", "c:d:1", "e:f:2"), order=3),
])
def test_trace_line_of_edge_values(fields):
    r = record(**fields)
    assert ViolationRecord.from_wire(r.to_wire()) == r
    assert_codec(r)


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
