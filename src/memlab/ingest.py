"""Parsers that normalize external analyzers' console reports into Findings.

Supported formats: Infer console output, Cppcheck console output, the
Predator GCC-plugin warnings, and this package's own structured (JSONL)
format.  A console report is read in one pass: one pattern per format
matches whole records (blank lines, a banner, the Infer summary, or an entry
with every line it wraps onto and its context lines) back to back from the
start.  Where they stop tiling the text, the first non-blank line fits none
of the format's shapes; the FormatError names it, which is what lets the CLI
reject a report fed to the wrong parser.
"""

from __future__ import annotations

import json
import operator
import re

from .analysis import (
    ALL_KINDS,
    CHECKER_KIND,
    Finding,
    KIND_DEAD_STORE,
    KIND_INVALID_DEREFERENCE,
    KIND_INVALID_FREE,
    KIND_MEMORY_LEAK,
    KIND_NULL_DEREFERENCE,
    KIND_RESOURCE_LEAK,
    KIND_UNINITIALIZED_VALUE,
)
from .frontend import InputError

# Bucket for kind strings that have no normalized kind in scope (for
# example Predator's byte-precise out-of-bounds diagnostics).  UNMAPPED
# findings are counted but never classified against ground truth.
KIND_UNMAPPED = "UNMAPPED"


class FormatError(InputError):
    def __init__(self, message: str, line_no: int = 0):
        super().__init__(f"line {line_no}: {message}" if line_no else message)
        self.message = message
        self.line_no = line_no


_PHRASE_KINDS = {
    "dead store": KIND_DEAD_STORE,
    "null dereference": KIND_NULL_DEREFERENCE,
    "memory leak": KIND_MEMORY_LEAK,
    "invalid dereference": KIND_INVALID_DEREFERENCE,
    "invalid free": KIND_INVALID_FREE,
    "resource leak": KIND_RESOURCE_LEAK,
    "uninitialized value": KIND_UNINITIALIZED_VALUE,
    "buffer overflow": "BUFFER_OVERFLOW",
    "dangling pointer": "DANGLING_POINTER",
}


def normalize_kind(raw: str) -> str:
    """Map a tool-specific kind string to a normalized kind or UNMAPPED."""
    token = raw.strip()
    if token in ALL_KINDS:
        return token
    return _PHRASE_KINDS.get(token.lower(), KIND_UNMAPPED)


# Each parser first writes every line break `str.splitlines` knows as `\n`,
# so that line numbers count its lines.  In-line whitespace, what str.strip
# removes, is then `[^\S\n]`.
_W = r"[^\S\n]"
_EOL = r"(?=\n|\Z)"
_BLANK_LINES = re.compile(rf"(?:{_W}*+\n)*+")


def _first_line(text: str, pos: int) -> tuple:
    """The first non-blank line from `pos`, a line start, and its number."""
    start = _BLANK_LINES.match(text, pos).end()
    return text[start:].partition("\n")[0], text.count("\n", 0, start) + 1


def _tile(pattern: re.Pattern, text: str, pos: int, error):
    """Yield the records `pattern` matches back to back from `pos` to the
    end of `text`; where none matches, raise a FormatError with the message
    `error` gives for the first non-blank line from there."""
    while pos < len(text):
        m = pattern.match(text, pos)
        if m is None:
            line, line_no = _first_line(text, pos)
            raise FormatError(error(line), line_no)
        yield m
        pos = m.end()


def _unwrap(block: str) -> str:
    """The non-blank lines of `block`, stripped and joined with one space."""
    return " ".join(filter(None, map(str.strip, block.split("\n"))))


# ---------------------------------------------------------------------------
# Infer console format
# ---------------------------------------------------------------------------

_TITLE = "Summary of the reports"
_NOT_TITLE = rf"(?!{_TITLE}{_W}*{_EOL})"
# An indented line inside an issue block: code context, never message text.
_INFER_CONTEXT = rf"{_W}++{_NOT_TITLE}\S[^\n]*+"
# Where the block's lines, joined, read as whitespace: in-line whitespace,
# or a line break (and context lines) before the next unindented line.
_INFER_GAP = rf"{_W}*+(?:\n(?:{_INFER_CONTEXT}\n)*+(?={_NOT_TITLE}\S))?"

_INFER_HEADER = re.compile(
    rf"\s*+(?:Found ([0-9]+) issues?{_W}*+(?:\n(?:{_W}*+\n)*+|\Z)|\Z)")
# An issue block runs to a blank line and takes the blank and context lines
# after it in; `msg` holds its message lines up to the first context line,
# `more` any lines after that run of context.  The summary runs to the end.
_INFER = re.compile(
    rf"(?P<path>\S+?):(?P<line>[0-9]++):{_INFER_GAP}error:{_INFER_GAP}"
    rf"(?P<kind>[A-Z_]++)\b{_INFER_GAP}"
    rf"(?P<msg>[^\n]*+(?:\n{_NOT_TITLE}\S[^\n]*+)*+)(?:\n{_INFER_CONTEXT})*+"
    rf"(?P<more>(?:\n{_W}*+{_NOT_TITLE}\S[^\n]*+)*+)"
    rf"(?:\n(?:{_W}*+{_EOL}|{_INFER_CONTEXT}))*+(?:\n|\Z)"
    rf"|(?P<summary>{_W}*{_TITLE}{_W}*{_EOL}(?s:.*))"
    rf"|{_W}*\Z")
_INFER_SUMMARY_LINE = re.compile(
    rf"{_W}*(?:{_TITLE}{_W}*)?|{_W}+[A-Z_]+:{_W}*([0-9]+)")


def _infer_error(line: str) -> str:
    if line[:1].isspace():  # issue blocks take the context after them in
        return f"context line outside an issue block: {line!r}"
    return f"unrecognized report line: {line!r}"


def parse_infer_report(text: str) -> list:
    """`Found N issue(s)`, issue blocks, then `Summary of the reports`."""
    text = "\n".join(text.splitlines())
    header = _INFER_HEADER.match(text)
    if header is None:
        raise FormatError("expected `Found N issue(s)` header",
                          _first_line(text, 0)[1])
    if header.group(1) is None:
        return []
    header_count = int(header.group(1))

    findings: list[Finding] = []
    counts: list[int] = []
    for m in _tile(_INFER, text, header.end(), _infer_error):
        path, line, kind, msg, more, summary = m.groups()
        if kind is not None:
            msg = " ".join([part.rstrip() for part in (msg + more).split("\n")
                            if not part[:1].isspace()])
            findings.append(Finding(path, int(line), normalize_kind(kind),
                                    "ingest:infer", msg, ""))
        elif summary is not None:
            first = text.count("\n", 0, m.start()) + 1
            for line_no, raw in enumerate(summary.split("\n"), first):
                count = _INFER_SUMMARY_LINE.fullmatch(raw)
                if count is None:
                    raise FormatError(f"malformed summary line: {raw!r}",
                                      line_no)
                if count.group(1):
                    counts.append(int(count.group(1)))

    if len(findings) != header_count:
        raise FormatError(
            f"header declares {header_count} issue(s), parsed {len(findings)}")
    if counts and sum(counts) != header_count:
        raise FormatError("summary counts do not add up to the header count")
    return findings


# ---------------------------------------------------------------------------
# Cppcheck console format
# ---------------------------------------------------------------------------

_CPPCHECK_BANNER = rf"Checking [^\n]* \.\.\.{_W}*{_EOL}"
# A line break inside an entry, with the blank lines and indentation after
# it; a line whose text starts with `[`, or a banner, ends the entry.
_CPPCHECK_BREAK = rf"\n\s*+(?=[^\s\[])(?!{_CPPCHECK_BANNER})"
_CPPCHECK = re.compile(
    rf"\s*+(?:{_CPPCHECK_BANNER}"
    rf"|\[(?P<path>[^\[\]:\n]++):(?P<line>[0-9]++)\]:{_W}*+"
    rf"(?:{_CPPCHECK_BREAK})?"
    rf"(?:\((?P<sev>\w++)\))?(?P<msg>[^\n]*+(?:{_CPPCHECK_BREAK}[^\n]*+)*+)"
    rf"|\Z)(?:\n|\Z)")

_CPPCHECK_MESSAGE_KINDS = (
    ("Memory leak", KIND_MEMORY_LEAK),
    ("Common realloc mistake", KIND_MEMORY_LEAK),
    ("Resource leak", KIND_RESOURCE_LEAK),
    ("Null pointer dereference", KIND_NULL_DEREFERENCE),
    ("Uninitialized variable", KIND_UNINITIALIZED_VALUE),
    ("Dereferencing", KIND_INVALID_DEREFERENCE),
)


def _cppcheck_kind(message: str) -> str:
    for prefix, kind in _CPPCHECK_MESSAGE_KINDS:
        if message.startswith(prefix):
            return kind
    return KIND_UNMAPPED


def _cppcheck_error(line: str) -> str:
    line = line.rstrip()
    if line.lstrip().startswith("["):
        return f"malformed bracket line: {line!r}"
    return f"unrecognized report line: {line!r}"


def parse_cppcheck_report(text: str) -> list:
    """`Checking file ...` banner plus `[path:line]: (severity) message`."""
    text = "\n".join(text.splitlines())
    findings: list[Finding] = []
    for m in _tile(_CPPCHECK, text, 0, _cppcheck_error):
        path, line, sev, msg = m.groups()
        if sev == "error":
            msg = _unwrap(msg)
            findings.append(Finding(path, int(line), _cppcheck_kind(msg),
                                    "ingest:cppcheck", msg, ""))
        elif sev is None and path is not None:
            # If the next line fits no record, its error is reported first.
            if _CPPCHECK.match(text, m.end()):
                raise FormatError(
                    f"missing severity in message: {_unwrap(msg)!r}",
                    text.count("\n", 0, m.start("path")) + 1)
    return findings


# ---------------------------------------------------------------------------
# Predator plugin format
# ---------------------------------------------------------------------------

_PLUGIN_TAG = "[-fplugin=libsl.so]"
_TAG = re.escape(_PLUGIN_TAG)
_PREDATOR_HEAD = rf"\S+?:[0-9]+:(?:[0-9]+:{_W}*warning|{_W}*note):"
# The rest of a warning or note: up to the first line holding the tag, over
# blank lines and lines that start no other warning or note.
_PREDATOR_BODY = (
    rf"(?:(?![^\n]*{_TAG})[^\n]*+\n\s*+(?!{_PREDATOR_HEAD})(?=\S))*+"
    rf"[^\n]*{_TAG}[^\n]*+")
_PREDATOR = re.compile(
    rf"\s*+(?:(?P<path>\S+?):(?P<line>[0-9]+):[0-9]+:{_W}*warning:"
    rf"(?P<msg>{_PREDATOR_BODY})"
    rf"|(?!\S+?:[0-9]+:[0-9]+:{_W}*warning:)\S+?:[0-9]+:{_W}*note:"
    rf"{_PREDATOR_BODY}"
    rf"|\Z)(?:\n|\Z)")
_PREDATOR_HEAD_LINE = re.compile(rf"{_W}*{_PREDATOR_HEAD}")

_PREDATOR_MESSAGE_KINDS = (
    ("memory leak detected", KIND_MEMORY_LEAK),
    ("invalid dereference", KIND_INVALID_DEREFERENCE),
    ("dereference null", KIND_INVALID_DEREFERENCE),
    ("dereference of null", KIND_INVALID_DEREFERENCE),
    ("invalid free", KIND_INVALID_FREE),
    ("double free", KIND_INVALID_FREE),
)


def _predator_kind(message: str) -> str:
    lowered = message.lower()
    for phrase, kind in _PREDATOR_MESSAGE_KINDS:
        if phrase in lowered:
            return kind
    return KIND_UNMAPPED


def _predator_error(line: str) -> str:
    line = line.rstrip()
    if _PREDATOR_HEAD_LINE.match(line):
        return "warning not terminated by the plugin tag"
    if "warning:" in line:
        return f"warning line without path:line:col: {line!r}"
    return f"unrecognized report line: {line!r}"


def parse_predator_report(text: str) -> list:
    """`path:line:col: warning: message [-fplugin=libsl.so]`, wrapped up to
    the tag; notes ignored."""
    findings: list[Finding] = []
    text = "\n".join(text.splitlines())
    for m in _tile(_PREDATOR, text, 0, _predator_error):
        path, line, msg = m.groups()
        if path is not None:
            msg = _unwrap(msg).replace(_PLUGIN_TAG, "").strip()
            findings.append(Finding(path, int(line), _predator_kind(msg),
                                    "ingest:predator", msg, ""))
    return findings


# ---------------------------------------------------------------------------
# This package's structured format
# ---------------------------------------------------------------------------

_MEMLAB_TYPES = [str, int, str, str, str, str]
_memlab_values = operator.itemgetter(*Finding._fields)


def parse_memlab_report(text: str) -> list:
    """A JSON object a line: an integer `line` and five string fields, the
    kind being the one its checker reports, if the analyzer has it."""
    findings: list[Finding] = []
    for idx, raw in enumerate(text.splitlines(), start=1):
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as exc:
            if not raw or raw.isspace():
                continue
            raise FormatError(f"invalid record: {exc}", idx) from exc
        try:
            values = _memlab_values(record)
        except (KeyError, TypeError):
            raise FormatError("record missing required fields", idx) from None
        if [*map(type, values)] != _MEMLAB_TYPES:  # name the first bad field
            for name, value, typ in zip(Finding._fields, values,
                                        _MEMLAB_TYPES):
                if type(value) is not typ:
                    noun = "an integer" if typ is int else "a string"
                    raise FormatError(
                        f"field `{name}` is not {noun}: {value!r}", idx)
        finding = Finding(*values)
        if CHECKER_KIND.get(finding.checker, finding.kind) != finding.kind:
            raise FormatError(f"kind {finding.kind} inconsistent with "
                              f"checker {finding.checker}", idx)
        findings.append(finding)
    return findings


PARSERS = {
    "infer": parse_infer_report,
    "cppcheck": parse_cppcheck_report,
    "predator": parse_predator_report,
    "memlab": parse_memlab_report,
}


def parse_report(text: str, fmt: str) -> list:
    try:
        parser = PARSERS[fmt]
    except KeyError:
        raise FormatError(f"unknown report format {fmt!r}") from None
    return parser(text)
