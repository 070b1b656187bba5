"""The report parsers as they were before the one-pass scanner, kept as the
reference for tests/test_ingest_differential.py.

The four `parse_*_report` functions and their patterns are copied unchanged
from the line-by-line implementation; the kind tables and `normalize_kind`,
which the scanner did not change, are imported from memlab.ingest.
"""

from __future__ import annotations

import json
import re

from memlab.analysis import Finding
from memlab.ingest import (
    FormatError,
    _cppcheck_kind,
    _predator_kind,
    normalize_kind,
)

# ---------------------------------------------------------------------------
# Infer console format
# ---------------------------------------------------------------------------

_INFER_HEADER = re.compile(r"^Found (\d+) issues?$")
_INFER_ISSUE = re.compile(
    r"^(?P<path>\S+?):(?P<line>\d+):\s*error:\s*(?P<kind>[A-Z_]+)\b\s*(?P<msg>.*)$",
    re.S)
_INFER_SUMMARY_LINE = re.compile(r"^\s+([A-Z_]+):\s*(\d+)$")


def parse_infer_report(text: str) -> list:
    """`Found N issue(s)`, issue blocks, then `Summary of the reports`."""
    lines = text.splitlines()
    idx = 0
    while idx < len(lines) and not lines[idx].strip():
        idx += 1
    if idx >= len(lines):
        return []
    m = _INFER_HEADER.match(lines[idx].strip())
    if not m:
        raise FormatError("expected `Found N issue(s)` header", idx + 1)
    declared = int(m.group(1))
    idx += 1

    findings: list[Finding] = []
    summary_counts: dict[str, int] = {}
    in_summary = False
    logical: list[str] = []
    logical_start = 0

    def flush_logical() -> None:
        if not logical:
            return
        joined = " ".join(part.strip() for part in logical)
        m2 = _INFER_ISSUE.match(joined)
        if not m2:
            raise FormatError(f"unrecognized report line: {logical[0]!r}",
                              logical_start)
        findings.append(Finding(
            file=m2.group("path"), line=int(m2.group("line")),
            kind=normalize_kind(m2.group("kind")), checker="ingest:infer",
            message=m2.group("msg").strip(), function=""))
        logical.clear()

    while idx < len(lines):
        raw = lines[idx]
        idx += 1
        if not raw.strip():
            flush_logical()
            continue
        if raw.strip() == "Summary of the reports":
            flush_logical()
            in_summary = True
            continue
        if in_summary:
            m3 = _INFER_SUMMARY_LINE.match(raw)
            if not m3:
                raise FormatError(f"malformed summary line: {raw!r}", idx)
            kind = normalize_kind(m3.group(1))
            summary_counts[kind] = summary_counts.get(kind, 0) + int(m3.group(2))
            continue
        if raw[:1].isspace():
            # Indented message/context line; belongs to the current block.
            if not findings and not logical:
                raise FormatError(f"context line outside an issue block: {raw!r}",
                                  idx)
            continue
        if not logical:
            logical_start = idx
        logical.append(raw)
    flush_logical()

    if len(findings) != declared:
        raise FormatError(
            f"header declares {declared} issue(s), parsed {len(findings)}")
    if summary_counts and sum(summary_counts.values()) != declared:
        raise FormatError("summary counts do not add up to the header count")
    return findings


# ---------------------------------------------------------------------------
# Cppcheck console format
# ---------------------------------------------------------------------------

_CPPCHECK_BANNER = re.compile(r"^Checking .* \.\.\.$")
_CPPCHECK_ENTRY = re.compile(r"^\[(?P<path>[^\[\]:]+):(?P<line>\d+)\]:\s*(?P<rest>.*)$")
_CPPCHECK_SEVERITY = re.compile(r"^\((?P<sev>\w+)\)\s*(?P<msg>.*)$", re.S)


def parse_cppcheck_report(text: str) -> list:
    """`Checking file ...` banner plus `[path:line]: (severity) message`."""
    findings: list[Finding] = []
    pending: tuple[str, int, list, int] | None = None  # path, line, msg parts

    def flush() -> None:
        nonlocal pending
        if pending is None:
            return
        path, line, parts, line_no = pending
        pending = None
        message = " ".join(p.strip() for p in parts if p.strip())
        m = _CPPCHECK_SEVERITY.match(message)
        if not m:
            raise FormatError(f"missing severity in message: {message!r}", line_no)
        if m.group("sev") != "error":
            return
        msg = m.group("msg").strip()
        findings.append(Finding(
            file=path, line=line, kind=_cppcheck_kind(msg),
            checker="ingest:cppcheck", message=msg, function=""))

    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line.strip():
            continue
        if _CPPCHECK_BANNER.match(line.strip()):
            flush()
            continue
        m = _CPPCHECK_ENTRY.match(line.strip())
        if m:
            flush()
            pending = (m.group("path"), int(m.group("line")),
                       [m.group("rest")], idx)
            continue
        if line.strip().startswith("["):
            raise FormatError(f"malformed bracket line: {line!r}", idx)
        if pending is not None:
            pending[2].append(line)
            continue
        raise FormatError(f"unrecognized report line: {line!r}", idx)
    flush()
    return findings


# ---------------------------------------------------------------------------
# Predator plugin format
# ---------------------------------------------------------------------------

_PREDATOR_WARNING = re.compile(
    r"^(?P<path>\S+?):(?P<line>\d+):(?P<col>\d+):\s*warning:\s*(?P<msg>.*)$")
_PREDATOR_NOTE = re.compile(r"^(?P<path>\S+?):(?P<line>\d+):\s*note:\s*(?P<msg>.*)$")
_PLUGIN_TAG = "[-fplugin=libsl.so]"


def parse_predator_report(text: str) -> list:
    """`path:line:col: warning: message [-fplugin=libsl.so]`; notes ignored.

    Messages wrap across lines and end at the plugin tag.
    """
    findings: list[Finding] = []
    pending: tuple[str, int, list, int] | None = None
    pending_is_note = False

    def flush() -> None:
        nonlocal pending
        if pending is None:
            return
        path, line, parts, start = pending
        pending = None
        message = " ".join(p.strip() for p in parts if p.strip())
        if _PLUGIN_TAG not in message:
            raise FormatError("warning not terminated by the plugin tag", start)
        message = message.replace(_PLUGIN_TAG, "").strip()
        if pending_is_note:
            return
        findings.append(Finding(
            file=path, line=line, kind=_predator_kind(message),
            checker="ingest:predator", message=message, function=""))

    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line.strip():
            continue
        m = _PREDATOR_WARNING.match(line.strip())
        if m:
            flush()
            pending = (m.group("path"), int(m.group("line")), [m.group("msg")], idx)
            pending_is_note = False
            if _PLUGIN_TAG in m.group("msg"):
                flush()
            continue
        n = _PREDATOR_NOTE.match(line.strip())
        if n:
            flush()
            pending = (n.group("path"), int(n.group("line")), [n.group("msg")], idx)
            pending_is_note = True
            if _PLUGIN_TAG in n.group("msg"):
                flush()
            continue
        if pending is not None:
            pending[2].append(line)
            if _PLUGIN_TAG in line:
                flush()
            continue
        if "warning:" in line:
            raise FormatError(f"warning line without path:line:col: {line!r}", idx)
        raise FormatError(f"unrecognized report line: {line!r}", idx)
    flush()
    return findings


# ---------------------------------------------------------------------------
# This package's structured format
# ---------------------------------------------------------------------------

_MEMLAB_FIELDS = ("file", "line", "kind", "checker", "message", "function")


def parse_memlab_report(text: str) -> list:
    findings: list[Finding] = []
    for idx, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid record: {exc}", idx) from exc
        if not isinstance(record, dict) or \
                set(_MEMLAB_FIELDS) - set(record):
            raise FormatError("record missing required fields", idx)
        findings.append(Finding(
            file=record["file"], line=int(record["line"]),
            kind=record["kind"], checker=record["checker"],
            message=record["message"], function=record["function"]))
    return findings


PARSERS = {
    "infer": parse_infer_report,
    "cppcheck": parse_cppcheck_report,
    "predator": parse_predator_report,
    "memlab": parse_memlab_report,
}
