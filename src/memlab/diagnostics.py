"""Stable text and structured rendering of findings."""

from __future__ import annotations

import json
from collections import Counter

INCOMPLETE_WARNING = "warning: analysis incomplete (path budget exceeded)"


class Report:
    """Findings in sorted order, and whether the analysis behind them was
    cut short; iterates like the finding list.  Two reports are equal when
    both fields are."""

    def __init__(self, findings, incomplete: bool = False):
        self.findings = sorted(findings)
        self.incomplete = incomplete

    def __repr__(self):
        return (f"Report(findings={self.findings!r}, "
                f"incomplete={self.incomplete!r})")

    def __eq__(self, other):
        if type(other) is not Report:
            return NotImplemented
        return (self.findings, self.incomplete) == \
            (other.findings, other.incomplete)

    def __iter__(self):
        return iter(self.findings)

    def __len__(self):
        return len(self.findings)

    def __getitem__(self, idx):
        return self.findings[idx]


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
        counts = Counter(f.kind for f in report.findings)
        for kind in sorted(counts):
            lines.append(f"  {kind}: {counts[kind]}")
    if report.incomplete:
        lines.append("")
        lines.append(INCOMPLETE_WARNING)
    return "\n".join(lines) + "\n"


def emit_structured(report: Report) -> str:
    """One JSON record per finding, its fields in order; round-trips
    through the ingest module's memlab reader."""
    return "".join(json.dumps(f._asdict()) + "\n" for f in report.findings)
