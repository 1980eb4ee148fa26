"""Finding aggregation, controllability classes, and whitelist construction."""

from specvm.analyze import (
    CLASS_CODE,
    CLASS_CONTROLLED,
    CLASS_UNCONTROLLED,
    CLASS_UNKNOWN,
    SEVERITY,
    aggregate,
    build_whitelist,
    load_trace,
    read_whitelist,
    render_report,
    write_whitelist,
)
from specvm.artifacts import write_lines
from specvm.detect import KIND_CODE, KIND_DATA, ViolationRecord


def rec(offending="main:a:2", kind=KIND_DATA, offset=-8, input_id="i0",
        order=1, branches=("main:e:4",), ordn=1):
    return ViolationRecord(
        kind=kind, offending=offending, addr=0x100000 + offset,
        referent=None if kind == KIND_CODE else (ordn, 0x100000, 64),
        offset=None if kind == KIND_CODE else offset,
        branches=branches, order=order, input_id=input_id)


def many(n, prefix="inp", **kw):
    return [rec(input_id=f"{prefix}{i:04d}", **kw) for i in range(n)]


def test_aggregate_folds_by_offending_and_kind():
    records = many(3) + many(2, offending="main:b:1") + [rec(kind=KIND_CODE)]
    f = aggregate(records)
    assert set(f) == {("main:a:2", KIND_DATA), ("main:b:1", KIND_DATA),
                      ("main:a:2", KIND_CODE)}
    assert len(f[("main:a:2", KIND_DATA)].inputs) == 3
    assert f[("main:a:2", KIND_DATA)].occurrences == 3


def test_min_order_is_the_smallest_seen():
    f = aggregate([rec(order=3, branches=("a", "b", "c")),
                   rec(order=1), rec(order=2, branches=("a", "b"))])
    assert f[("main:a:2", KIND_DATA)].min_order == 1


def test_classification_boundaries():
    f99 = aggregate(many(99))[("main:a:2", KIND_DATA)]
    f100 = aggregate(many(100))[("main:a:2", KIND_DATA)]
    assert f99.classify(min_triggers=100) == CLASS_UNKNOWN
    assert f100.classify(min_triggers=100) == CLASS_UNCONTROLLED


def test_multiple_identities_mean_controlled():
    records = many(60) + many(60, prefix="oth", offset=16)
    f = aggregate(records)[("main:a:2", KIND_DATA)]
    assert len(f.identities) == 2
    assert f.classify(min_triggers=100) == CLASS_CONTROLLED


def test_code_ptr_is_always_the_code_class():
    f = aggregate([rec(kind=KIND_CODE)])[("main:a:2", KIND_CODE)]
    assert f.classify(min_triggers=100) == CLASS_CODE


def test_severity_ranks_code_worst():
    assert SEVERITY[CLASS_CODE] < SEVERITY[CLASS_CONTROLLED]
    assert SEVERITY[CLASS_CONTROLLED] < SEVERITY[CLASS_UNKNOWN]
    assert SEVERITY[CLASS_UNKNOWN] < SEVERITY[CLASS_UNCONTROLLED]


def test_whitelist_requires_evidence_and_innocence():
    findings = aggregate(many(10, branches=("main:e:4",)))
    counts = {"main:e:4": 500, "main:g:1": 500, "main:h:3": 99}
    wl = build_whitelist(findings, counts, min_inputs=100)
    assert wl == {"main:g:1"}  # e:4 implicated, h:3 under-exercised


def test_whitelist_on_clean_run_admits_all_exercised_branches():
    wl = build_whitelist({}, {"a": 100, "b": 99}, min_inputs=100)
    assert wl == {"a"}


def test_report_orders_by_severity():
    findings = aggregate(
        many(150) + many(150, offending="z:z:0", offset=32)
        + many(150, offset=40, offending="z:z:0")
        + [rec(offending="c:c:0", kind=KIND_CODE)])
    lines = render_report(findings, min_triggers=100)
    assert len(lines) == 3
    assert lines[0].startswith("code")
    assert lines[1].startswith("controlled") and "z:z:0" in lines[1]
    assert lines[2].startswith("uncontrolled") and "main:a:2" in lines[2]
    assert "alloc#1-8" in lines[2]


def test_whitelist_file_round_trip(tmp_path):
    path = tmp_path / "wl.txt"
    write_whitelist(path, {"b:b:1", "a:a:0"}, {"min_inputs": 7})
    text = path.read_text()
    assert text.startswith("#%svm ")
    assert text.splitlines()[1:] == ["a:a:0", "b:b:1"]
    assert read_whitelist(path) == {"a:a:0", "b:b:1"}


def test_load_trace_round_trip(tmp_path):
    records = many(4) + [rec(kind=KIND_CODE, input_id="zz")]
    path = tmp_path / "trace.jsonl"
    import json
    write_lines(path, {"file": "trace", "identity": "offset"},
                [json.dumps(r.to_wire(), sort_keys=True) for r in records])
    meta, back = load_trace(path)
    assert meta["identity"] == "offset"
    assert back == records


def test_load_trace_tolerates_missing_header(tmp_path):
    import json
    path = tmp_path / "bare.jsonl"
    path.write_text(json.dumps(rec().to_wire()) + "\n")
    meta, back = load_trace(path)
    assert meta == {} and len(back) == 1
