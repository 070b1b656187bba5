"""Report rendering tests."""

import memlab
from memlab.analysis import Finding
from memlab.diagnostics import Report, emit_structured, render_text
from memlab.ingest import parse_memlab_report


def _finding(file="a.c", line=3, kind="MEMORY_LEAK", checker="MEMORY_LEAK",
             message="msg", function="main"):
    return Finding(file=file, line=line, kind=kind, checker=checker,
                   message=message, function=function)


class TestRenderText:
    def test_empty_report(self):
        assert render_text(Report([])) == "Found 0 issues\n"

    def test_golden_single_finding(self):
        report = Report([_finding(message="memory leak detected")])
        assert render_text(report) == (
            "Found 1 issue\n"
            "\n"
            "a.c:3: error: MEMORY_LEAK\n"
            "  memory leak detected\n"
            "\n"
            "Summary of the reports\n"
            "\n"
            "  MEMORY_LEAK: 1\n")

    def test_summary_counts_by_kind(self):
        report = Report([
            _finding(line=1),
            _finding(line=2),
            _finding(line=9, kind="DEAD_STORE", checker="DEAD_STORE"),
        ])
        text = render_text(report)
        assert "  DEAD_STORE: 1" in text
        assert "  MEMORY_LEAK: 2" in text
        # Kinds are listed alphabetically.
        assert text.index("DEAD_STORE: 1") < text.index("MEMORY_LEAK: 2")

    def test_incomplete_flag_appends_warning(self):
        text = render_text(Report([_finding()], incomplete=True))
        assert text.endswith(
            "warning: analysis incomplete (path budget exceeded)\n")

    def test_incomplete_empty_report_still_warns(self):
        assert render_text(Report([], incomplete=True)) == (
            "Found 0 issues\n"
            "\n"
            "warning: analysis incomplete (path budget exceeded)\n")

    def test_incomplete_report_keeps_structured_output(self):
        assert emit_structured(Report([], incomplete=True)) == ""
        finding = _finding()
        assert emit_structured(Report([finding], incomplete=True)) == \
            emit_structured(Report([finding]))

    def test_findings_sorted_regardless_of_input_order(self):
        a = _finding(file="a.c", line=9)
        b = _finding(file="b.c", line=1)
        assert render_text(Report([b, a])) == render_text(Report([a, b]))


class TestStructured:
    def test_round_trip_through_ingest(self):
        findings = [
            _finding(line=2, message="one"),
            _finding(file="z.c", line=1, kind="DEAD_STORE",
                     checker="DEAD_STORE", message="two", function="f"),
        ]
        text = emit_structured(Report(findings))
        assert parse_memlab_report(text) == sorted(
            findings, key=lambda f: (f.file, f.line))

    def test_empty_structured_output(self):
        assert emit_structured(Report([])) == ""

    def test_one_record_per_line(self):
        text = emit_structured(Report([_finding(), _finding(line=5)]))
        lines = text.splitlines()
        assert len(lines) == 2
        assert all(line.startswith('{"file": ') for line in lines)

    def test_exact_bytes(self):
        text = emit_structured(Report([
            _finding(file="z.c", line=1, kind="DEAD_STORE",
                     checker="DEAD_STORE", message='say "hi"', function="f"),
            _finding(line=2, message="one"),
        ]))
        assert text == (
            '{"file": "a.c", "line": 2, "kind": "MEMORY_LEAK", '
            '"checker": "MEMORY_LEAK", "message": "one", "function": "main"}\n'
            '{"file": "z.c", "line": 1, "kind": "DEAD_STORE", '
            '"checker": "DEAD_STORE", "message": "say \\"hi\\"", '
            '"function": "f"}\n')


def test_every_public_name_resolves():
    assert [name for name in memlab.__all__
            if not hasattr(memlab, name)] == []
