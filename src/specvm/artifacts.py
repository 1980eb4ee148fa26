"""Self-describing artifact files.

Every artifact the toolchain writes but ``svm asm``'s canonical assembly
carries JSON metadata: line-oriented files (traces, whitelists, reports)
start with a "#%svm {...}" line, hardened assembly with an assembler
comment "; svm {...}" so it stays parseable, and JSON documents carry the
metadata under a "_meta" key.  Readers tolerate missing headers.
"""

from __future__ import annotations

import json
from pathlib import Path

LINE_PREFIX = "#%svm "
SASM_PREFIX = "; svm "


def _meta_line(prefix: str, meta: dict) -> str:
    return prefix + json.dumps(meta, sort_keys=True, separators=(",", ":"))


def write_lines(path: str | Path, meta: dict, lines: list[str]) -> None:
    body = "\n".join([_meta_line(LINE_PREFIX, meta), *lines])
    Path(path).write_text(body + "\n", encoding="utf-8")


def read_lines(path: str | Path) -> tuple[dict, list[str]]:
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    meta: dict = {}
    if lines and lines[0].startswith(LINE_PREFIX):
        meta = json.loads(lines[0][len(LINE_PREFIX):])
        lines = lines[1:]
    return meta, lines


def write_json(path: str | Path, meta: dict, obj: dict) -> None:
    doc = {"_meta": meta}
    doc.update(obj)
    Path(path).write_text(
        json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def read_json(path: str | Path) -> tuple[dict, dict]:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    meta = doc.pop("_meta", {}) if isinstance(doc, dict) else {}
    return meta, doc


def sasm_with_header(meta: dict, text: str) -> str:
    return _meta_line(SASM_PREFIX, meta) + "\n" + text


__all__ = [
    "LINE_PREFIX", "SASM_PREFIX", "write_lines", "read_lines",
    "write_json", "read_json", "sasm_with_header",
]
