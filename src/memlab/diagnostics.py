"""Stable text and structured rendering of findings."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

INCOMPLETE_WARNING = "warning: analysis incomplete (path budget exceeded)"


@dataclass
class Report:
    findings: list
    incomplete: bool = False
    summary: dict = field(init=False)

    def __post_init__(self):
        self.findings = sorted(self.findings)
        counts: dict[str, int] = {}
        for f in self.findings:
            counts[f.kind] = counts.get(f.kind, 0) + 1
        self.summary = counts


def render_text(report: Report) -> str:
    """Console rendering; byte-stable for equal reports."""
    n = len(report.findings)
    lines = [f"Found {n} issue" + ("s" if n != 1 else "")]
    if n:
        lines.append("")
        for f in report.findings:
            lines.append(f"{f.file}:{f.line}: error: {f.kind}")
            lines.append(f"  {f.message}")
            lines.append("")
        lines.append("Summary of the reports")
        lines.append("")
        for kind in sorted(report.summary):
            lines.append(f"  {kind}: {report.summary[kind]}")
    if report.incomplete:
        lines.append("")
        lines.append(INCOMPLETE_WARNING)
    return "\n".join(lines) + "\n"


def emit_structured(report: Report) -> str:
    """One JSON record per finding, stable key order; round-trips through
    the ingest module's memlab reader."""
    out = []
    for f in report.findings:
        out.append(json.dumps({
            "file": f.file,
            "line": f.line,
            "kind": f.kind,
            "checker": f.checker,
            "message": f.message,
            "function": f.function,
        }, sort_keys=False))
    return "".join(line + "\n" for line in out)
