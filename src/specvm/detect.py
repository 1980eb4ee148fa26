"""Violation records and the speculative access policy.

A violation is an out-of-bounds data access ("data-oob") or a corrupted
control transfer ("code-ptr") that happens while the machine is executing
down a mispredicted path.  Records carry enough context to aggregate,
deduplicate, and replay: the offending instruction, the address, the
nearest live allocation (the referent), and the stack of mispredicted
branches that were active when the access fired.  A record is a named
tuple, so building, hashing and comparing one is tuple work, and its trace
line comes from one encoder, ``ViolationRecord.to_line``, that writes
exactly what ``json.dumps`` of ``to_wire`` with sorted keys would.

Speculative policy, applied by the SpecContext that the handlers are given
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

from json.encoder import encode_basestring_ascii as _json_str
from typing import NamedTuple

from .isa import WORD_MASK
from .machine import A_REDZONE, F_JTAB, F_RET

KIND_DATA = "data-oob"
KIND_CODE = "code-ptr"

DEFAULT_IDENTITY = "offset"
IDENTITY_MODES = (DEFAULT_IDENTITY, "raw")

# The details a run gives each kind (see the policy table above).
_DETAILS = {KIND_DATA: ("redzone", "unmapped"), KIND_CODE: (F_RET, F_JTAB)}

# to_line's template: to_wire's keys in sorted order, as json.dumps writes them.
_LINE = ('{"addr":"0x%x","branches":[%s],"detail":%s,"input":%s,"kind":%s,'
         '"offending":%s,"offset":%s,"order":%d,"referent":%s,"run":%d}')


class ViolationRecord(NamedTuple):
    """One observed speculative violation.

    A record is a plain tuple of its fields: immutable, hashable, built
    positionally, and copied with a changed field by ``_replace``.  Its
    trace line comes from one encoder, ``to_line``.  ``to_wire`` gives the
    same fields as a dict (``svm run --json``), and ``from_wire`` rebuilds
    a record from that dict, or from a trace line's ``json.loads``."""

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

    def to_line(self) -> str:
        """The record's trace line: byte for byte ``json.dumps(to_wire(),
        sort_keys=True, separators=(",", ":"))``, formatted directly.
        Strings are escaped by json's own ASCII encoder."""
        kind, offending, addr, ref, offset, branches, order, input_id, run, detail = self
        return _LINE % (
            addr, ",".join(map(_json_str, branches)), _json_str(detail),
            "null" if input_id is None else _json_str(input_id),
            _json_str(kind), _json_str(offending),
            "null" if offset is None else offset, order,
            "null" if ref is None
            else '{"base":%d,"ord":%d,"size":%d}' % (ref[1], ref[0], ref[2]),
            run)

    @staticmethod
    def from_wire(d: dict) -> "ViolationRecord":
        """Rebuild a record from to_wire() output.  Raises ValueError when a
        required field is missing or malformed, a field has the wrong type,
        or a value is one no run records: an address outside 0..2**64-1,
        an order other than the number of branches, an unknown kind, a
        negative run, a referent with a negative ordinal or a size below 1,
        a code-ptr record with a referent, an offset other than addr -
        referent base (a record without a referent has no offset), or a
        detail other than redzone/unmapped (data-oob) or bad-ret/
        bad-jtab-index (code-ptr)."""
        if not isinstance(d, dict):
            raise ValueError(f"record is not a JSON object: {d!r}")
        try:
            ref = d.get("referent")
            referent = (ref["ord"], ref["base"], ref["size"]) if ref else None
            branches = d.get("branches", [])
            kind = d["kind"]
            offending = d["offending"]
            addr = int(d["addr"], 16)
            chain = tuple(branches)
            order = d.get("order", len(branches))
        except KeyError as e:
            raise ValueError(f"record lacks field {e}") from None
        except (TypeError, ValueError) as e:
            raise ValueError(f"malformed record field: {e}") from None
        offset = d.get("offset")
        input_id = d.get("input")
        run = d.get("run", 0)
        detail = d.get("detail", "")
        # Plain type tests: every record of a trace passes through here.
        if type(kind) is not str:
            bad = "kind"
        elif type(offending) is not str:
            bad = "offending"
        elif referent is not None and not all(type(v) is int for v in referent):
            bad = "referent"
        elif offset is not None and type(offset) is not int:
            bad = "offset"
        elif type(branches) is not list or not all(type(b) is str for b in branches):
            bad = "branches"
        elif type(order) is not int:
            bad = "order"
        elif input_id is not None and type(input_id) is not str:
            bad = "input"
        elif type(run) is not int:
            bad = "run"
        elif type(detail) is not str:
            bad = "detail"
        elif not 0 <= addr <= WORD_MASK:
            raise ValueError(f"bad record value: addr {d['addr']} is outside 0..2**64-1")
        elif order != len(branches):
            raise ValueError(f"bad record value: order {order} with "
                             f"{len(branches)} branches")
        elif kind not in _DETAILS:
            raise ValueError(f"bad record value: unknown kind {kind!r}")
        elif run < 0:
            raise ValueError(f"bad record value: run {run} is negative")
        elif referent is not None and referent[0] < 0:
            raise ValueError(f"bad record value: referent ordinal {referent[0]} "
                             "is negative")
        elif referent is not None and referent[2] < 1:
            raise ValueError(f"bad record value: referent size {referent[2]} is below 1")
        elif referent is not None and kind == KIND_CODE:
            raise ValueError("bad record value: a code-ptr record with a referent")
        elif offset != (None if referent is None else addr - referent[1]):
            raise ValueError(f"bad record value: offset {offset} " + (
                "without a referent" if referent is None
                else f"is not addr - referent base, {addr - referent[1]}"))
        elif detail not in _DETAILS[kind]:
            raise ValueError(f"bad record value: detail {detail!r} for {kind}, "
                             f"not {' or '.join(_DETAILS[kind])}")
        else:
            return ViolationRecord(kind, offending, addr, referent, offset, chain,
                                   order, input_id, run, detail)
        raise ValueError(f"malformed record field: {bad} has the wrong type")


def dedup_key(v: ViolationRecord, mode: str = DEFAULT_IDENTITY) -> tuple:
    """(offending, kind, identity): two records with the same key describe
    the same vulnerable access."""
    return (v.offending, v.kind, v.identity(mode))


class SpecContext:
    """Mutable per-run state handed to the handlers during speculation,
    and the policy they apply to out-of-bounds accesses and faults.
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
            KIND_DATA, offending, addr, referent, offset, tuple(self.branches),
            len(self.branches), self.input_id, self.run_serial,
            "redzone" if kind == A_REDZONE else "unmapped"))
        return kind == A_REDZONE

    def on_speculative_fault(self, offending: str, fkind: str, value: int) -> None:
        """Handle a non-access fault on a speculative path.  Corrupted control
        transfers become code-ptr records; resource faults stay silent."""
        if fkind not in _DETAILS[KIND_CODE]:
            return
        self.records.append(ViolationRecord(
            KIND_CODE, offending, value, None, None, tuple(self.branches),
            len(self.branches), self.input_id, self.run_serial, fkind))


__all__ = [
    "KIND_DATA", "KIND_CODE", "DEFAULT_IDENTITY", "IDENTITY_MODES",
    "ViolationRecord", "SpecContext", "dedup_key",
]
