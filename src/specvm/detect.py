"""Violation records and the speculative access policy.

A violation is an out-of-bounds data access ("data-oob") or a corrupted
control transfer ("code-ptr") that happens while the machine is executing
down a mispredicted path.  Records carry enough context to aggregate,
deduplicate, and replay: the offending instruction, the address, the
nearest live allocation (the referent), and the stack of mispredicted
branches that were active when the access fired.

Speculative policy, applied by the SpecContext that Machine.step is given
during speculation:

===============  ===========================================
event            action
===============  ===========================================
redzone access   record data-oob, proceed (loads see zeros)
unmapped access  record data-oob, fault (path is abandoned)
bad RET word     record code-ptr, fault
bad JTAB index   record code-ptr, fault
div by zero      fault silently
stack overflow   fault silently
heap exhausted   fault silently
===============  ===========================================
"""

from __future__ import annotations

from dataclasses import dataclass

from .isa import WORD_MASK
from .machine import A_REDZONE, F_JTAB, F_RET

KIND_DATA = "data-oob"
KIND_CODE = "code-ptr"

DEFAULT_IDENTITY = "offset"
IDENTITY_MODES = (DEFAULT_IDENTITY, "raw")


@dataclass(frozen=True)
class ViolationRecord:
    """One observed speculative violation."""

    kind: str
    offending: str  # "fn:block:idx" of the faulting instruction
    addr: int  # accessed address, or offending value for code-ptr
    referent: tuple[int, int, int] | None  # (ordinal, base, size)
    offset: int | None  # addr - referent base, signed
    branches: tuple[str, ...]  # active mispredictions, outermost first
    order: int  # == len(branches)
    input_id: str | None = None
    run: int = 0
    detail: str = ""

    def identity(self, mode: str = DEFAULT_IDENTITY) -> tuple:
        """Stable location identity: allocation-relative when a referent is
        known, raw address otherwise."""
        if mode not in IDENTITY_MODES:
            raise ValueError(f"unknown identity mode {mode!r}")
        if mode == "offset" and self.referent is not None:
            return ("ref", self.referent[0], self.offset)
        return ("addr", self.addr)

    def to_wire(self) -> dict:
        ref = None
        if self.referent is not None:
            ref = {"ord": self.referent[0], "base": self.referent[1],
                   "size": self.referent[2]}
        return {
            "kind": self.kind,
            "offending": self.offending,
            "addr": f"0x{self.addr:x}",
            "referent": ref,
            "offset": self.offset,
            "branches": list(self.branches),
            "order": self.order,
            "input": self.input_id,
            "run": self.run,
            "detail": self.detail,
        }

    @staticmethod
    def from_wire(d: dict) -> "ViolationRecord":
        """Rebuild a record from to_wire() output.  Raises ValueError when a
        required field is missing or malformed, a field has the wrong type,
        or a value is one no run records: an address outside 0..2**64-1,
        an order other than the number of branches, an unknown kind or a
        negative run."""
        if not isinstance(d, dict):
            raise ValueError(f"record is not a JSON object: {d!r}")
        try:
            ref = d.get("referent")
            referent = (ref["ord"], ref["base"], ref["size"]) if ref else None
            branches = d.get("branches", [])
            rec = ViolationRecord(
                kind=d["kind"],
                offending=d["offending"],
                addr=int(d["addr"], 16),
                referent=referent,
                offset=d.get("offset"),
                branches=tuple(branches),
                order=d.get("order", len(branches)),
                input_id=d.get("input"),
                run=d.get("run", 0),
                detail=d.get("detail", ""),
            )
        except KeyError as e:
            raise ValueError(f"record lacks field {e}") from None
        except (TypeError, ValueError) as e:
            raise ValueError(f"malformed record field: {e}") from None
        # Plain type tests: every record of a trace passes through here.
        if type(rec.kind) is not str:
            bad = "kind"
        elif type(rec.offending) is not str:
            bad = "offending"
        elif referent is not None and not all(type(v) is int for v in referent):
            bad = "referent"
        elif rec.offset is not None and type(rec.offset) is not int:
            bad = "offset"
        elif type(branches) is not list or not all(type(b) is str for b in branches):
            bad = "branches"
        elif type(rec.order) is not int:
            bad = "order"
        elif rec.input_id is not None and type(rec.input_id) is not str:
            bad = "input"
        elif type(rec.run) is not int:
            bad = "run"
        elif type(rec.detail) is not str:
            bad = "detail"
        elif not 0 <= rec.addr <= WORD_MASK:
            raise ValueError(f"bad record value: addr {d['addr']} is outside 0..2**64-1")
        elif rec.order != len(branches):
            raise ValueError(f"bad record value: order {rec.order} with "
                             f"{len(branches)} branches")
        elif rec.kind != KIND_DATA and rec.kind != KIND_CODE:
            raise ValueError(f"bad record value: unknown kind {rec.kind!r}")
        elif rec.run < 0:
            raise ValueError(f"bad record value: run {rec.run} is negative")
        else:
            return rec
        raise ValueError(f"malformed record field: {bad} has the wrong type")


def dedup_key(v: ViolationRecord, mode: str = DEFAULT_IDENTITY) -> tuple:
    """(offending, kind, identity): two records with the same key describe
    the same vulnerable access."""
    return (v.offending, v.kind, v.identity(mode))


class SpecContext:
    """Mutable per-run state handed to Machine.step during speculation,
    and the policy step applies to out-of-bounds accesses and faults.
    One is built per exposed run, so it is a plain slotted class."""

    __slots__ = ("records", "branches", "wlog", "input_id", "run_serial")

    def __init__(self, input_id: str | None = None, run_serial: int = 0):
        self.records: list[ViolationRecord] = []
        self.branches: list[str] = []
        self.wlog: list[tuple[int, bytes]] = []
        self.input_id = input_id
        self.run_serial = run_serial

    def on_speculative_access(self, offending: str, kind: int, addr: int,
                              referent, offset) -> bool:
        """Handle an out-of-bounds data access on a speculative path by the
        instruction ``offending`` ("fn:block:idx").

        Returns True when execution may proceed past the access (redzones),
        False when the path must be abandoned (unmapped).
        """
        self.records.append(ViolationRecord(
            kind=KIND_DATA,
            offending=offending,
            addr=addr,
            referent=referent,
            offset=offset,
            branches=tuple(self.branches),
            order=len(self.branches),
            input_id=self.input_id,
            run=self.run_serial,
            detail="redzone" if kind == A_REDZONE else "unmapped",
        ))
        return kind == A_REDZONE

    def on_speculative_fault(self, offending: str, fkind: str, value: int) -> None:
        """Handle a non-access fault on a speculative path.  Corrupted control
        transfers become code-ptr records; resource faults stay silent."""
        if fkind not in (F_RET, F_JTAB):
            return
        self.records.append(ViolationRecord(
            kind=KIND_CODE,
            offending=offending,
            addr=value,
            referent=None,
            offset=None,
            branches=tuple(self.branches),
            order=len(self.branches),
            input_id=self.input_id,
            run=self.run_serial,
            detail=fkind,
        ))


__all__ = [
    "KIND_DATA", "KIND_CODE", "DEFAULT_IDENTITY", "IDENTITY_MODES",
    "ViolationRecord", "SpecContext", "dedup_key",
]
