"""Aggregate violation records into findings, classify, and whitelist.

A finding is everything ever observed for one (offending instruction,
violation kind) pair: which inputs triggered it, which location identities
the accesses resolved to, which branch chains were active, and the
smallest nesting order that exposed it.

Classification answers "how much does an attacker steer this":

* code        corrupted control transfer, the worst class
* controlled  enough evidence and more than one distinct access identity
* uncontrolled enough evidence, always the same identity
* unknown     fewer distinct triggering inputs than min_triggers

A branch may be whitelisted as benign when enough distinct inputs
exercised it to trust the evidence and it never appeared in the branch
chain of any finding.  Findings from several traces come from one fold
over all their records, read in order, so a finding keeps the position
of its first record.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .artifacts import read_lines, write_lines
from .detect import DEFAULT_IDENTITY, KIND_CODE, ViolationRecord

CLASS_CODE = "code"
CLASS_CONTROLLED = "controlled"
CLASS_UNCONTROLLED = "uncontrolled"
CLASS_UNKNOWN = "unknown"

SEVERITY = {
    CLASS_CODE: 0,
    CLASS_CONTROLLED: 1,
    CLASS_UNKNOWN: 2,
    CLASS_UNCONTROLLED: 3,
}

DEFAULT_MIN_TRIGGERS = 100
DEFAULT_WHITELIST_MIN_INPUTS = 100


@dataclass
class Finding:
    offending: str
    kind: str
    inputs: set = field(default_factory=set)
    identities: set = field(default_factory=set)
    branch_chains: set = field(default_factory=set)
    min_order: int | None = None
    occurrences: int = 0

    def classify(self, min_triggers: int = DEFAULT_MIN_TRIGGERS) -> str:
        if self.kind == KIND_CODE:
            return CLASS_CODE
        if len(self.inputs) < min_triggers:
            return CLASS_UNKNOWN
        if len(self.identities) > 1:
            return CLASS_CONTROLLED
        return CLASS_UNCONTROLLED


def aggregate(records, identity: str = DEFAULT_IDENTITY) -> dict[tuple[str, str], Finding]:
    """Fold records into findings keyed by (offending, kind)."""
    out: dict[tuple[str, str], Finding] = {}
    for r in records:
        key = (r.offending, r.kind)
        f = out.get(key)
        if f is None:
            f = out[key] = Finding(r.offending, r.kind)
        if r.input_id is not None:
            f.inputs.add(r.input_id)
        f.identities.add(r.identity(identity))
        f.branch_chains.add(r.branches)
        f.min_order = r.order if f.min_order is None else min(f.min_order, r.order)
        f.occurrences += 1
    return out


def build_whitelist(findings: dict[tuple[str, str], Finding],
                    branch_counts: dict[str, int],
                    min_inputs: int = DEFAULT_WHITELIST_MIN_INPUTS) -> set[str]:
    """Branches exercised by at least min_inputs distinct inputs that never
    appear in any finding's active branch chain."""
    implicated: set[str] = set()
    for f in findings.values():
        for chain in f.branch_chains:
            implicated.update(chain)
    return {b for b, n in branch_counts.items()
            if n >= min_inputs and b not in implicated}


def load_trace(path: str | Path) -> tuple[dict, list[ViolationRecord]]:
    """Read one trace file written by the fuzzer.  Raises ValueError naming
    the first line that is not a well-formed record."""
    meta, lines = read_lines(path)
    first = 2 if meta else 1  # file line number of lines[0]; headers carry metadata
    records = []
    for no, ln in enumerate(lines, first):
        if not ln.strip():
            continue
        try:
            records.append(ViolationRecord.from_wire(json.loads(ln)))
        except ValueError as e:  # json.JSONDecodeError is a ValueError
            raise ValueError(f"line {no}: {e}") from None
    return meta, records


def render_report(findings: dict[tuple[str, str], Finding],
                  min_triggers: int = DEFAULT_MIN_TRIGGERS) -> list[str]:
    """Human-readable finding lines, most severe first."""
    rows = []
    for f in findings.values():
        cls = f.classify(min_triggers)
        rows.append((SEVERITY[cls], f.offending, cls, f))
    rows.sort(key=lambda t: (t[0], t[1]))
    lines = []
    for _, _, cls, f in rows:
        idents = ", ".join(_fmt_identity(i) for i in sorted(f.identities)[:4])
        more = "" if len(f.identities) <= 4 else f" (+{len(f.identities) - 4} more)"
        lines.append(
            f"{cls:12s} {f.kind:9s} at {f.offending}  "
            f"inputs={len(f.inputs)} min_order={f.min_order} "
            f"targets=[{idents}{more}]")
    return lines


def _fmt_identity(ident: tuple) -> str:
    if ident[0] == "ref":
        return f"alloc#{ident[1]}{ident[2]:+d}"
    return f"0x{ident[1]:x}"


def write_whitelist(path: str | Path, branches: set[str], meta: dict | None = None) -> None:
    write_lines(path, {"file": "whitelist", **(meta or {})}, sorted(branches))


def read_whitelist(path: str | Path) -> set[str]:
    _, lines = read_lines(path)
    return {ln.strip() for ln in lines if ln.strip() and not ln.startswith("#")}


__all__ = [
    "CLASS_CODE", "CLASS_CONTROLLED", "CLASS_UNCONTROLLED", "CLASS_UNKNOWN",
    "SEVERITY", "DEFAULT_MIN_TRIGGERS", "DEFAULT_WHITELIST_MIN_INPUTS",
    "Finding", "aggregate", "build_whitelist", "load_trace",
    "render_report", "write_whitelist", "read_whitelist",
]
