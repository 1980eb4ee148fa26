"""Coverage-guided fuzzing with speculation exposure.

The loop mutates inputs from a corpus, runs each new input through the
exposure engine, and keeps the input when it reaches a new architectural
control-flow edge or surfaces a violation key nobody has seen yet.  Branch
statistics count how many distinct inputs reached each conditional branch,
which is what drives the simulation depth schedule: deeper nesting is
granted to branches as ever more inputs pile onto them.

Inputs are named by content hash, so the corpus and all reports stay
stable across runs.  Only new bytes are hashed: an attempt that repeats
an input already run costs one set lookup.  ``mutate`` draws from the
generator's ``getrandbits`` directly; its draws, and so every session,
equal those of the plain ``randint``/``choice``/``randrange`` version on
the same ``random.Random``, which tests/refmutate.py keeps as the
reference.  ``workers=N`` runs N independent shards in turn in
this process; each runs the seeds and its share of the budget from its
own random stream.  Merged in shard order (first entry per input id,
unions, summed counts, run numbers offset), every artifact but the wall
time in ``session.json`` is a pure function of (seed, workers).

Artifact layout under the output directory::

    corpus/<id>_<reason>.bin   kept inputs (reason: seed, vuln, or edge)
    crashes/<id>.bin           inputs whose architectural run faulted
    trace.jsonl                violation records, per-run deduplicated
    branch_stats.json          distinct-input count per branch
    session.json               seed, counters, wall time

A session written into an existing directory rewrites the three
session files and leaves input files that already hold their bytes.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

from .artifacts import write_json, write_lines
from .detect import DEFAULT_IDENTITY, IDENTITY_MODES
from .engine import BranchStats, ExposureEngine, SpecConfig
from .isa import Program
from .machine import ExecImage

DEFAULT_SEEDS = (b"", b"\x00\x00\x00\x00")
MUTATORS = ("bitflip", "byteset", "insert", "delete", "splice")

KEEP_SEED = "seed"
KEEP_VULN = "vuln"
KEEP_EDGE = "edge"


def input_id(data: bytes) -> str:
    """Stable content-derived name for a fuzzing input."""
    return hashlib.sha1(data).hexdigest()[:12]


@dataclass(frozen=True)
class FuzzConfig:
    runs: int = 1000
    seed: int = 0
    workers: int = 1
    max_len: int = 64
    identity: str = DEFAULT_IDENTITY
    spec: SpecConfig = field(default_factory=SpecConfig)

    def __post_init__(self):
        if self.runs < 0:
            raise ValueError("runs must not be negative")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.max_len < 1:
            raise ValueError("max_len must be at least 1")
        if self.identity not in IDENTITY_MODES:
            raise ValueError(f"unknown identity mode {self.identity!r}")


@dataclass
class FuzzResult:
    attempts: int
    runs: int
    corpus: list[tuple[str, bytes, str]]  # (id, data, keep reason)
    crashes: list[tuple[str, bytes]]
    edges: set[tuple[int, int]]
    keys: set
    records: list  # run-deduplicated ViolationRecords, in run order
    stats: BranchStats
    wall_seconds: float


def _below(bits, n: int) -> int:
    """A uniform draw from range(n), n > 0: what ``random.Random`` makes
    inside ``randrange(n)``, ``randint(a, a + n - 1)`` and ``choice`` of n
    items, with the same calls to ``bits`` (its ``getrandbits``)."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def mutate(data: bytes, rng: random.Random, corpus: list[bytes],
           max_len: int) -> bytes:
    """Apply a havoc stack of 1 to 8 elementary mutations.

    The draws, and so the output and ``rng``'s state afterwards, are those
    of the plain version on the same ``random.Random``: ``randint(1, 8)``
    mutations, each a ``choice(MUTATORS)`` and then

    - bitflip (buffer not empty): index ``randrange(len)``, bit ``randrange(8)``
    - byteset: value ``randrange(256)``, then index ``randrange(len)``, or
      an append to an empty buffer
    - insert (below max_len): position ``randint(0, len)``, value ``randrange(256)``
    - delete (buffer not empty): index ``randrange(len)``
    - splice (corpus not empty): ``choice(corpus)``; if that entry is not
      empty, cuts ``randint(0, len)`` here and ``randrange(len(entry))`` there

    Each of those calls comes down to ``_below`` on ``rng.getrandbits``,
    which is what runs here.  tests/refmutate.py holds the plain version and
    tests/test_fuzzing.py checks output and state against it after every call.
    """
    bits = rng.getrandbits
    buf = bytearray(data)
    for _ in range(_below(bits, 8) + 1):
        op = _below(bits, 5)
        if op == 0:  # bitflip
            if buf:
                i = _below(bits, len(buf))
                buf[i] ^= 1 << _below(bits, 8)
        elif op == 1:  # byteset: the value is drawn before the index
            value = _below(bits, 256)
            if buf:
                buf[_below(bits, len(buf))] = value
            else:
                buf.append(value)
        elif op == 2:  # insert
            if len(buf) < max_len:
                at = _below(bits, len(buf) + 1)
                buf.insert(at, _below(bits, 256))
        elif op == 3:  # delete
            if buf:
                del buf[_below(bits, len(buf))]
        elif corpus:  # splice
            other = corpus[_below(bits, len(corpus))]
            if other:
                cut_a = _below(bits, len(buf) + 1)
                buf[cut_a:] = other[_below(bits, len(other)):]
                del buf[max_len:]
    return bytes(buf)


class Fuzzer:
    """One shard of a fuzzing session: the seeds, then ``config.runs``
    mutated inputs drawn from the shard's own random stream."""

    def __init__(self, program: Program | ExecImage,
                 config: FuzzConfig | None = None,
                 seeds: tuple[bytes, ...] = DEFAULT_SEEDS, shard: int = 0):
        self.image = program if isinstance(program, ExecImage) else ExecImage(program)
        self.cfg = config or FuzzConfig()
        self.seeds = tuple(seeds)
        self.shard = shard
        self.stats = BranchStats()
        self.coverage: set[tuple[int, int]] = set()
        self.keys: set = set()
        self.corpus: list[tuple[str, bytes, str]] = []
        self.corpus_bytes: list[bytes] = []  # corpus data in corpus order, for mutate
        self.crashes: list[tuple[str, bytes]] = []
        self.records: list = []
        self.executed: set[bytes] = set()  # every attempted input, by bytes
        self.runs = 0
        self.attempts = 0

    def _execute(self, engine: ExposureEngine, data: bytes, reason_hint: str) -> None:
        """Run one distinct input and merge what it found.  A repeated input
        costs one set lookup: only new bytes are hashed into an id."""
        self.attempts += 1
        if data in self.executed:
            return
        self.executed.add(data)
        iid = input_id(data)
        trace = engine.run(data, self.stats, input_id=iid, run_serial=self.runs)
        self.runs += 1
        by_key = trace.deduped(self.cfg.identity)
        new_edge = not trace.edges <= self.coverage
        self.coverage |= trace.edges
        new_key = not by_key.keys() <= self.keys
        self.keys.update(by_key)
        self.records.extend(by_key.values())
        if trace.result.fault is not None:
            self.crashes.append((iid, data))
        if reason_hint == KEEP_SEED:
            reason = KEEP_SEED
        elif new_key:
            reason = KEEP_VULN
        elif new_edge:
            reason = KEEP_EDGE
        else:
            return
        self.corpus.append((iid, data, reason))
        self.corpus_bytes.append(data)

    def run_session(self) -> FuzzResult:
        t0 = time.monotonic()
        engine = ExposureEngine(self.image, self.cfg.spec)
        for s in self.seeds:
            self._execute(engine, s, KEEP_SEED)
        rng = random.Random(self.cfg.seed * 1_000_003 + self.shard)
        bits = rng.getrandbits
        corpus = self.corpus_bytes
        max_len = self.cfg.max_len
        for _ in range(self.cfg.runs):
            # rng.choice(corpus), drawn as mutate draws (see its docstring)
            parent = corpus[_below(bits, len(corpus))] if corpus else b""
            self._execute(engine, mutate(parent, rng, corpus, max_len), "")
        return FuzzResult(
            attempts=self.attempts,
            runs=self.runs,
            corpus=self.corpus,
            crashes=self.crashes,
            edges=self.coverage,
            keys=self.keys,
            records=self.records,
            stats=self.stats,
            wall_seconds=time.monotonic() - t0,
        )


def _merge(shards: list[FuzzResult]) -> FuzzResult:
    """Combine shard results in shard order (see module docstring)."""
    corpus, crashes, records, counts, runs = {}, {}, [], Counter(), 0
    for r in shards:
        for entry in r.corpus:
            corpus.setdefault(entry[0], entry)
        for entry in r.crashes:
            crashes.setdefault(entry[0], entry)
        records += ([replace(rec, run=rec.run + runs) for rec in r.records]
                    if runs else r.records)
        counts.update(r.stats.to_dict())
        runs += r.runs
    return FuzzResult(
        attempts=sum(r.attempts for r in shards), runs=runs,
        corpus=list(corpus.values()), crashes=list(crashes.values()),
        edges=set().union(*(r.edges for r in shards)),
        keys=set().union(*(r.keys for r in shards)),
        records=records, stats=BranchStats(counts),
        wall_seconds=sum(r.wall_seconds for r in shards))


def _write_input(path: Path, data: bytes) -> None:
    """Write one input file unless it already holds exactly these bytes.
    Input files are named by content id, so a session re-run into the same
    directory finds most of them in place; reading a file back is cheaper
    and steadier than truncating and rewriting it."""
    try:
        if path.read_bytes() == data:
            return
    except OSError:
        pass
    path.write_bytes(data)


def write_artifacts(result: FuzzResult, out_dir: str | Path,
                    config: FuzzConfig) -> None:
    """Write the session's artifact tree (see module docstring)."""
    out = Path(out_dir)
    (out / "corpus").mkdir(parents=True, exist_ok=True)
    (out / "crashes").mkdir(parents=True, exist_ok=True)
    for iid, data, reason in result.corpus:
        _write_input(out / "corpus" / f"{iid}_{reason}.bin", data)
    for iid, data in result.crashes:
        _write_input(out / "crashes" / f"{iid}.bin", data)
    meta = {"file": "trace", "identity": config.identity,
            "seed": config.seed, "workers": config.workers}
    write_lines(out / "trace.jsonl", meta,
                [json.dumps(r.to_wire(), sort_keys=True, separators=(",", ":"))
                 for r in result.records])
    write_json(out / "branch_stats.json", {"file": "branch-stats"},
               {"counts": result.stats.to_dict()})
    write_json(out / "session.json", {"file": "session"}, {
        "seed": config.seed,
        "workers": config.workers,
        "attempts": result.attempts,
        "runs": result.runs,
        "corpus": len(result.corpus),
        "crashes": len(result.crashes),
        "edges": len(result.edges),
        "keys": len(result.keys),
        "wall_seconds": result.wall_seconds,
    })


def fuzz_loop(program: Program | ExecImage, config: FuzzConfig | None = None,
              seeds: tuple[bytes, ...] = DEFAULT_SEEDS,
              out_dir: str | Path | None = None) -> FuzzResult:
    """Run one fuzzing session of ``config.workers`` shards (see module
    docstring); write artifacts when out_dir is given."""
    cfg = config or FuzzConfig()
    image = program if isinstance(program, ExecImage) else ExecImage(program)
    per, extra = divmod(cfg.runs, cfg.workers)
    shards = [Fuzzer(image, replace(cfg, runs=per + (shard < extra)), seeds,
                     shard).run_session()
              for shard in range(cfg.workers)]
    result = _merge(shards)
    if out_dir is not None:
        write_artifacts(result, out_dir, cfg)
    return result


__all__ = [
    "DEFAULT_SEEDS", "MUTATORS", "KEEP_SEED", "KEEP_VULN", "KEEP_EDGE",
    "input_id", "FuzzConfig", "FuzzResult", "mutate", "Fuzzer",
    "write_artifacts", "fuzz_loop",
]
