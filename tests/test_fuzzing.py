"""Coverage-guided fuzzing: mutation, dedup, artifacts, determinism."""

import hashlib
import json
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from refmutate import reference_mutate
from specvm.artifacts import read_json, read_lines
from specvm.engine import ExposureEngine, SpecConfig
from specvm.fuzzing import (
    DEFAULT_SEEDS,
    KEEP_EDGE,
    KEEP_SEED,
    KEEP_VULN,
    MUTATORS,
    FuzzConfig,
    Fuzzer,
    fuzz_loop,
    input_id,
    mutate,
    write_artifacts,
)
from specvm.gadgets import builtin_gadget, gadget_ids
from specvm.isa import parse_program

CRASHY = """\
fn main:
e:
  input r0, 0
  cmp r0, 200
  br lt, ok, bad
ok:
  halt
bad:
  const r1, 0x500000
  load r2, r1, 0
  halt
"""


def small_cfg(**kw):
    base = dict(runs=150, seed=1, spec=SpecConfig(max_order=2))
    base.update(kw)
    return FuzzConfig(**base)


def test_input_id_is_stable_content_hash():
    assert input_id(b"") == input_id(b"")
    assert input_id(b"a") != input_id(b"b")
    assert len(input_id(b"whatever")) == 12
    assert input_id(b"abc") == "a9993e364706"  # sha1 prefix


def test_fuzz_config_validation():
    for bad in (dict(runs=-1), dict(workers=0), dict(max_len=0)):
        with pytest.raises(ValueError):
            FuzzConfig(**bad)


def test_fuzz_config_rejects_an_unknown_identity_mode():
    # Checked where it is set, not at the first record: a session whose
    # runs record nothing would otherwise finish and write the bad mode.
    with pytest.raises(ValueError, match="^unknown identity mode 'bogus'$"):
        FuzzConfig(identity="bogus")
    assert FuzzConfig(identity="raw").identity == "raw"


@given(st.binary(max_size=80), st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=60)
def test_mutate_respects_max_len(data, seed):
    rng = random.Random(seed)
    out = mutate(data, rng, [b"\x01\x02", b""], max_len=16)
    assert len(out) <= max(len(data), 16)


def test_mutate_is_deterministic_given_rng():
    a = mutate(b"hello", random.Random(9), [b"x"], 64)
    b = mutate(b"hello", random.Random(9), [b"x"], 64)
    assert a == b


class RecordingRandom(random.Random):
    """A Random that notes every mutator it picks.  Overriding choice alone
    keeps the getrandbits-based _randbelow, so its draws are the plain ones."""

    def __init__(self, seed):
        super().__init__(seed)
        self.picked = set()

    def choice(self, seq):
        picked = super().choice(seq)
        if seq is MUTATORS:
            self.picked.add(picked)
        return picked


def assert_mutate_matches_reference(seed, data, corpus, max_len, calls):
    """Chain ``calls`` mutations from ``data``, each fed the last output, on
    twin generators; outputs and generator states must agree after each."""
    rng, ref_rng = random.Random(seed), RecordingRandom(seed)
    for call in range(calls):
        out = mutate(data, rng, corpus, max_len)
        want = reference_mutate(data, ref_rng, corpus, max_len)
        assert out == want, (seed, call, data)
        assert rng.getstate() == ref_rng.getstate(), (seed, call, data)
        data = out
    return ref_rng.picked


@pytest.mark.parametrize("data, corpus, max_len", [
    (b"", [], 64),
    (b"", [b""], 1),
    (b"\x07", [b"", b"\x01\x02\x03"], 1),
    (b"abc", [b"wxyz" * 5], 3),
    (b"hello", [b"x", b""], 8),
    (bytes(range(64)), [b"", bytes(100), b"\xff"], 64),
], ids=["empty", "len1-empty-entry", "len1-at-max", "len3-at-max", "len8",
        "len64-at-max"])
def test_mutate_draws_as_the_reference(data, corpus, max_len):
    picked = set()
    for seed in range(150):
        picked |= assert_mutate_matches_reference(seed, data, corpus, max_len, 6)
    assert picked == set(MUTATORS)


@given(st.binary(max_size=80), st.lists(st.binary(max_size=80), max_size=4),
       st.integers(min_value=1, max_value=70),
       st.integers(min_value=0, max_value=2 ** 64))
@settings(max_examples=150)
def test_mutate_matches_the_reference_on_any_input(data, corpus, max_len, seed):
    assert_mutate_matches_reference(seed, data, corpus, max_len, 4)


def test_duplicate_content_is_executed_once():
    g = builtin_gadget(1)
    fz = Fuzzer(g.program, small_cfg(runs=0), seeds=(b"", b"", b"\x00", b""))
    res = fz.run_session()
    assert res.attempts == 4
    assert res.runs == 2  # two distinct contents
    assert {iid for iid, _, _ in res.corpus} == {input_id(b""), input_id(b"\x00")}


def test_seeds_are_kept_with_seed_reason():
    g = builtin_gadget(1)
    res = Fuzzer(g.program, small_cfg(runs=0)).run_session()
    reasons = {reason for _, _, reason in res.corpus}
    assert reasons == {KEEP_SEED}


def test_new_violations_and_edges_extend_the_corpus():
    g = builtin_gadget(1)
    res = fuzz_loop(g.program, small_cfg(runs=400))
    reasons = {reason for _, _, reason in res.corpus}
    assert KEEP_VULN in reasons
    assert res.keys
    branch = str(g.program.branch_ids()[0])
    assert res.stats.count(branch) == res.runs  # every distinct input reached it


def test_distinct_input_counting_survives_duplicates():
    # Re-feeding identical bytes must not inflate per-branch input counts.
    g = builtin_gadget(1)
    fz = Fuzzer(g.program, small_cfg(runs=0),
                seeds=(b"\x09",) * 50 + (b"\x03",))
    res = fz.run_session()
    assert res.stats.count(str(g.program.branch_ids()[0])) == 2


def test_crashing_inputs_are_collected():
    res = fuzz_loop(parse_program(CRASHY), small_cfg(runs=300, max_len=4))
    assert res.crashes
    for iid, data in res.crashes:
        assert data[0] >= 200
        assert iid == input_id(data)


def test_artifact_tree(tmp_path):
    g = builtin_gadget(1)
    out = tmp_path / "sess"
    res = fuzz_loop(g.program, small_cfg(runs=200), out_dir=out)
    meta, lines = read_lines(out / "trace.jsonl")
    assert meta["file"] == "trace" and meta["seed"] == 1
    assert len(lines) == len(res.records)
    rec = json.loads(lines[0])
    assert set(rec) >= {"kind", "offending", "addr", "branches", "input"}
    smeta, sdoc = read_json(out / "session.json")
    assert smeta["file"] == "session"
    assert sdoc["runs"] == res.runs and sdoc["corpus"] == len(res.corpus)
    bmeta, bdoc = read_json(out / "branch_stats.json")
    assert bdoc["counts"] == res.stats.to_dict()
    names = {p.name for p in (out / "corpus").iterdir()}
    for iid, _, reason in res.corpus:
        assert f"{iid}_{reason}.bin" in names


def test_rerun_into_same_directory_keeps_inputs_exact(tmp_path):
    res = fuzz_loop(parse_program(CRASHY), small_cfg(runs=300, max_len=4))
    assert res.corpus and res.crashes
    out = tmp_path / "sess"
    write_artifacts(res, out, small_cfg(runs=300, max_len=4))
    iid, data, reason = res.corpus[0]
    stale = out / "corpus" / f"{iid}_{reason}.bin"
    stale.write_bytes(data + b"!")
    cid, _ = res.crashes[0]
    (out / "crashes" / f"{cid}.bin").unlink()
    write_artifacts(res, out, small_cfg(runs=300, max_len=4))
    assert stale.read_bytes() == data
    for iid, data, reason in res.corpus:
        assert (out / "corpus" / f"{iid}_{reason}.bin").read_bytes() == data
    for iid, data in res.crashes:
        assert (out / "crashes" / f"{iid}.bin").read_bytes() == data


def test_sessions_with_same_seed_are_identical(tmp_path):
    g = builtin_gadget(8)
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        fuzz_loop(g.program, small_cfg(runs=250, seed=7), out_dir=out)
        outs.append(out)
    a, b = outs
    for name in ("trace.jsonl", "branch_stats.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert sorted(p.name for p in (a / "corpus").iterdir()) == \
        sorted(p.name for p in (b / "corpus").iterdir())


def test_sessions_with_different_seeds_diverge():
    g = builtin_gadget(8)
    r1 = fuzz_loop(g.program, small_cfg(runs=250, seed=1))
    r2 = fuzz_loop(g.program, small_cfg(runs=250, seed=2))
    inputs1 = [d for _, d, _ in r1.corpus]
    inputs2 = [d for _, d, _ in r2.corpus]
    assert inputs1 != inputs2


def test_multi_worker_session_completes_with_merged_state():
    g = builtin_gadget(1)
    res = fuzz_loop(g.program, small_cfg(runs=200, workers=4))
    # Every shard runs the seeds itself.
    assert res.attempts == 200 + 4 * len(DEFAULT_SEEDS)
    assert res.keys and res.edges


def test_sharded_session_is_the_merge_of_its_shards():
    program = builtin_gadget(8).program
    cfg = small_cfg(runs=200, seed=5, workers=3)
    merged = fuzz_loop(program, cfg)
    shards = [Fuzzer(program, replace(cfg, runs=budget), shard=shard).run_session()
              for shard, budget in enumerate((67, 67, 66))]
    corpus, crashes = {}, {}
    for r in shards:
        for entry in r.corpus:
            corpus.setdefault(entry[0], entry)
        for entry in r.crashes:
            crashes.setdefault(entry[0], entry)
    assert merged.corpus == list(corpus.values())
    assert merged.crashes == list(crashes.values())
    assert merged.edges == set().union(*(r.edges for r in shards))
    assert merged.keys == set().union(*(r.keys for r in shards))
    assert merged.attempts == sum(r.attempts for r in shards) \
        == 200 + 3 * len(DEFAULT_SEEDS)
    assert merged.runs == sum(r.runs for r in shards)
    counts = Counter()
    for r in shards:
        counts.update(r.stats.to_dict())
    assert merged.stats.to_dict() == dict(counts)
    offsets = (0, shards[0].runs, shards[0].runs + shards[1].runs)
    assert merged.records == [replace(rec, run=rec.run + offset)
                              for r, offset in zip(shards, offsets)
                              for rec in r.records]
    assert all(r.records for r in shards)
    # Ids stay unique in the corpus, and each run number names one run.
    ids = [iid for iid, _, _ in merged.corpus]
    assert len(ids) == len(set(ids))
    runs = [rec.run for rec in merged.records]
    assert runs == sorted(runs) and runs[-1] < merged.runs
    run_input = {}
    for rec in merged.records:
        assert run_input.setdefault(rec.run, rec.input_id) == rec.input_id


@pytest.mark.parametrize("shard", [1, 2])
def test_corpus_bytes_follow_the_corpus(shard):
    fuzzer = Fuzzer(builtin_gadget(1).program, small_cfg(runs=200), shard=shard)
    res = fuzzer.run_session()
    assert fuzzer.corpus_bytes == [d for _, d, _ in res.corpus]


@pytest.mark.parametrize("workers,engines", [(1, 1), (3, 3)])
def test_single_worker_session_runs_the_prefix_once(workers, engines, monkeypatch):
    built = []
    init = ExposureEngine.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(ExposureEngine, "__init__", counting_init)
    fuzz_loop(builtin_gadget(1).program, small_cfg(runs=30, workers=workers))
    assert len(built) == engines


# sha256 over the artifact trees of the sessions below.  A change that only
# makes the fuzzer faster leaves it as it is; a declared change to what the
# fuzzer draws, runs or keeps updates it and says so in CHANGES.md.
GOLDEN_ARTIFACTS = \
    "642e6e7c955c0e290922b6a085d41e1f54d74f7f440c1acf91f30039352e0127"


def test_artifact_trees_match_the_golden_digest(tmp_path):
    """Every artifact but the wall-time-bearing session.json of a 300-run,
    seed-7 session at max_order 2 on each gadget, with 1 and 2 workers."""
    digest = hashlib.sha256()
    for gid in gadget_ids():
        for workers in (1, 2):
            out = tmp_path / f"g{gid:02d}w{workers}"
            fuzz_loop(builtin_gadget(gid).program,
                      FuzzConfig(runs=300, seed=7, workers=workers,
                                 spec=SpecConfig(max_order=2)), out_dir=out)
            for path in sorted(out.rglob("*")):
                if path.is_file() and path.name != "session.json":
                    body = path.read_bytes()
                    digest.update(f"{path.relative_to(tmp_path).as_posix()}\0"
                                  f"{len(body)}\0".encode() + body)
    assert digest.hexdigest() == GOLDEN_ARTIFACTS
