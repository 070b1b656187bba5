"""External report parsing tests.

The five .txt files under reports/ are transcriptions of real console
output from the compared analyzers, including their line wrapping; the
expectations here pin count, file, line, and normalized kind.
"""

import json
from pathlib import Path

import pytest

from memlab.ingest import (
    FormatError,
    KIND_UNMAPPED,
    normalize_kind,
    parse_cppcheck_report,
    parse_infer_report,
    parse_memlab_report,
    parse_predator_report,
    parse_report,
)

REPORTS = Path("reports")


def _read(name):
    return (REPORTS / name).read_text(encoding="utf-8")


class TestReportFixtures:
    CASES = [
        ("infer_dead_store.txt", "infer",
         ("dead_store_false_positive_infer.c", 7, "DEAD_STORE")),
        ("infer_null_deref.txt", "infer",
         ("null_dereference_true_positive_mallocverification.c", 13,
          "NULL_DEREFERENCE")),
        ("cppcheck_struct_field_leak.txt", "cppcheck",
         ("memory_leak_true_positive_structwithpointer_infer.c", 19,
          "MEMORY_LEAK")),
        ("cppcheck_realloc_leak.txt", "cppcheck",
         ("memory_leak_true_positive_realloc_infer.c", 14, "MEMORY_LEAK")),
        ("predator_sizeof_leak.txt", "predator",
         ("memory_leak_false_negative_infer.c", 20, "MEMORY_LEAK")),
    ]

    @pytest.mark.parametrize("name,fmt,expected", CASES)
    def test_fixture_parses_to_single_finding(self, name, fmt, expected):
        findings = parse_report(_read(name), fmt)
        assert len(findings) == 1
        f = findings[0]
        assert (f.file, f.line, f.kind) == expected
        assert f.checker == f"ingest:{fmt}"

    def test_wrapped_lines_are_reassembled(self):
        f = parse_report(_read("cppcheck_realloc_leak.txt"), "cppcheck")[0]
        assert f.message == ("Common realloc mistake: 'new' nulled "
                             "but not freed upon failure")

    def test_predator_note_lines_are_dropped(self):
        findings = parse_report(_read("predator_sizeof_leak.txt"), "predator")
        assert len(findings) == 1  # the clEasyRun note is not a finding


class TestCrossFormatRejection:
    def test_infer_text_fed_to_predator(self):
        with pytest.raises(FormatError):
            parse_predator_report(_read("infer_dead_store.txt"))

    def test_cppcheck_text_fed_to_infer(self):
        with pytest.raises(FormatError):
            parse_infer_report(_read("cppcheck_realloc_leak.txt"))

    def test_predator_text_fed_to_cppcheck(self):
        with pytest.raises(FormatError):
            parse_cppcheck_report(_read("predator_sizeof_leak.txt"))

    def test_unknown_format_name(self):
        with pytest.raises(FormatError):
            parse_report("", "pvs-studio")


class TestInferFormat:
    def test_header_count_mismatch(self):
        text = "Found 2 issues\n\na.c:1: error: DEAD_STORE msg\n"
        with pytest.raises(FormatError):
            parse_infer_report(text)

    def test_summary_sum_must_match_header(self):
        text = ("Found 1 issue\n\na.c:1: error: DEAD_STORE msg\n\n"
                "Summary of the reports\n\n  DEAD_STORE: 3\n")
        with pytest.raises(FormatError):
            parse_infer_report(text)

    def test_empty_input_yields_no_findings(self):
        assert parse_infer_report("") == []

    def test_unknown_kind_becomes_unmapped(self):
        text = "Found 1 issue\n\na.c:1: error: PREMATURE_NIL msg\n"
        assert parse_infer_report(text)[0].kind == KIND_UNMAPPED


class TestCppcheckFormat:
    def test_non_error_severities_are_dropped(self):
        text = ("Checking a.c ...\n"
                "[a.c:4]: (style) Variable 'x' is assigned but never used\n"
                "[a.c:9]: (error) Memory leak: p\n")
        findings = parse_cppcheck_report(text)
        assert [(f.line, f.kind) for f in findings] == [(9, "MEMORY_LEAK")]

    def test_missing_severity_rejected(self):
        with pytest.raises(FormatError):
            parse_cppcheck_report("[a.c:4]: Memory leak: p\n")

    def test_stray_line_rejected(self):
        with pytest.raises(FormatError):
            parse_cppcheck_report("a.c:4: error: something\n")

    def test_entry_wrapped_over_many_blank_lines(self):
        text = ("[a.c:9]: (error) Memory\n" + " \n\t\n" * 2000
                + "   leak: p\n\n[a.c:10]: (error) Resource leak: f\n")
        findings = parse_cppcheck_report(text)
        assert [(f.line, f.message) for f in findings] == [
            (9, "Memory leak: p"), (10, "Resource leak: f")]


class TestPredatorFormat:
    def test_unterminated_warning_rejected(self):
        with pytest.raises(FormatError):
            parse_predator_report("a.c:4:2: warning: memory leak detected\n")

    def test_invalid_free_phrase(self):
        text = "a.c:7:3: warning: invalid free() [-fplugin=libsl.so]\n"
        assert parse_predator_report(text)[0].kind == "INVALID_FREE"


class TestMemlabFormat:
    def test_missing_field_rejected(self):
        with pytest.raises(FormatError):
            parse_memlab_report('{"file": "a.c", "line": 1}\n')

    def test_invalid_json_rejected(self):
        with pytest.raises(FormatError):
            parse_memlab_report("not json\n")


class TestLocatedErrors:
    """Malformed reports name the first line that fits none of the format's
    shapes, and errors that concern the whole report name no line."""

    CASES = [
        # infer
        ("infer", "a.c:1: error: DEAD_STORE msg\n",
         "line 1: expected `Found N issue(s)` header", 1),
        ("infer", "\n  \nFound one issue\n",
         "line 3: expected `Found N issue(s)` header", 3),
        ("infer", "Found 1 issue\n  5. ctx\na.c:1: error: DEAD_STORE msg\n",
         "line 2: context line outside an issue block: '  5. ctx'", 2),
        ("infer", "Found 1 issue\r\n\r\n\t5. ctx\r\n",
         "line 3: context line outside an issue block: '\\t5. ctx'", 3),
        ("infer", "Found 1 issue\n\na.c:1: error: DEAD_STORE msg\n\n"
                  "Summary of the reports\n\n  DEAD_STORE: 1\nDEAD_STORE: 1\n",
         "line 8: malformed summary line: 'DEAD_STORE: 1'", 8),
        ("infer", "Found 1 issue\n\na.c:1: error: DEAD_STORE msg\n\n"
                  "Summary of the reports\n  DEAD_STORE: 1 \n",
         "line 6: malformed summary line: '  DEAD_STORE: 1 '", 6),
        ("infer", "Found 1 issue\n\nSummary of the reports\n"
                  "a.c:1: error: DEAD_STORE msg\n",
         "line 4: malformed summary line: 'a.c:1: error: DEAD_STORE msg'", 4),
        ("infer", "Found 1 issue\n\na.c:1: error: dead store\n  ctx\n",
         "line 3: unrecognized report line: 'a.c:1: error: dead store'", 3),
        ("infer", "Found 2 issues\n\na.c:1: warning: X\n\n"
                  "b.c:2: error: DEAD_STORE y\n",
         "line 3: unrecognized report line: 'a.c:1: warning: X'", 3),
        ("infer", "Found 2 issues\n\na.c:1: error: DEAD_STORE msg\n",
         "header declares 2 issue(s), parsed 1", 0),
        ("infer", "Found 1 issue\n\na.c:1: error: DEAD_STORE msg\n"
                  "\nb.c:2: error: DEAD_STORE msg\n",
         "header declares 1 issue(s), parsed 2", 0),
        ("infer", "Found 1 issue\n\na.c:1: error: DEAD_STORE msg\n\n"
                  "Summary of the reports\n\n  DEAD_STORE: 2\n",
         "summary counts do not add up to the header count", 0),
        # A line number or count is ASCII digits, though int() reads the
        # Arabic-Indic digits `\u0661\u0662` as 12.
        ("infer", "Found \u0661 issue\n\na.c:1: error: DEAD_STORE x\n",
         "line 1: expected `Found N issue(s)` header", 1),
        ("infer", "Found 1 issue\n\na.c:\u0661\u0662: error: DEAD_STORE x\n",
         "line 3: unrecognized report line: "
         "'a.c:\u0661\u0662: error: DEAD_STORE x'", 3),
        ("cppcheck", "[a.c:\u0661\u0662]: (error) Memory leak: p\n",
         "line 1: malformed bracket line: "
         "'[a.c:\u0661\u0662]: (error) Memory leak: p'", 1),
        ("predator", "a.c:\u0661\u0662:3: warning: memory leak detected "
                     "[-fplugin=libsl.so]\n",
         "line 1: warning line without path:line:col: 'a.c:\u0661\u0662:3: "
         "warning: memory leak detected [-fplugin=libsl.so]'", 1),
        # cppcheck
        ("cppcheck", "Checking a.c ...\n[a.c:4]: Memory leak: p\n",
         "line 2: missing severity in message: 'Memory leak: p'", 2),
        ("cppcheck", "[a.c:4]: Memory\n\n  leak: p\nChecking b.c ...\n",
         "line 1: missing severity in message: 'Memory leak: p'", 1),
        ("cppcheck", "[a.c:4]: Memory leak:\np\n\n[a.c:5: (error) x\n",
         "line 4: malformed bracket line: '[a.c:5: (error) x'", 4),
        ("cppcheck", "Checking a.c ...\n[a.c:4]: (error) Memory leak: p\n"
                     "[a.c 5]: (error) x\n",
         "line 3: malformed bracket line: '[a.c 5]: (error) x'", 3),
        ("cppcheck", "a.c:4: error: something\n",
         "line 1: unrecognized report line: 'a.c:4: error: something'", 1),
        ("cppcheck", "Checking a.c ...\fstray line  \n",
         "line 2: unrecognized report line: 'stray line'", 2),
        # predator
        ("predator", "a.c:4:2: warning: memory leak detected\n",
         "line 1: warning not terminated by the plugin tag", 1),
        ("predator", "\na.c:4:2: warning: memory leak\n\ndetected\n"
                     "b.c:5:3: warning: double free [-fplugin=libsl.so]\n",
         "line 2: warning not terminated by the plugin tag", 2),
        ("predator", "a.c:4:2: warning: memory leak\n\n \t b.c:5:3: warning: "
                     "double free [-fplugin=libsl.so]\n",
         "line 1: warning not terminated by the plugin tag", 1),
        ("predator", "a.c:7: note: x [-fplugin=\nlibsl.so]\n",
         "line 1: warning not terminated by the plugin tag", 1),
        ("predator", "a:1:note:[-fplugin=libsl.so]:2:3:warning: x\n",
         "line 1: warning not terminated by the plugin tag", 1),
        ("predator", "a.c: warning: memory leak [-fplugin=libsl.so]\n",
         "line 1: warning line without path:line:col: "
         "'a.c: warning: memory leak [-fplugin=libsl.so]'", 1),
        ("predator", "a.c:7:3: warning: invalid free() [-fplugin=libsl.so]"
                     "\r\n  something else \r\n",
         "line 2: unrecognized report line: '  something else'", 2),
        # memlab
        ("memlab", '{"file": "a.c", "line": 1, "kind": "MEMORY_LEAK", '
                   '"checker": "MEMORY_LEAK", "message": "m", "function": "f"}'
                   '\n{"file": "a.c"\n',
         "line 2: invalid record: Expecting ',' delimiter: line 1 column 15 "
         "(char 14)", 2),
        ("memlab", '\n{"file": "a.c", "line": 1}\n',
         "line 2: record missing required fields", 2),
        ("memlab", "[1, 2]\n", "line 1: record missing required fields", 1),
    ]

    @pytest.mark.parametrize("fmt,text,message,line_no", CASES)
    def test_error_names_its_line(self, fmt, text, message, line_no):
        with pytest.raises(FormatError) as exc:
            parse_report(text, fmt)
        assert (str(exc.value), exc.value.line_no) == (message, line_no)


class TestTypedMemlabRecords:
    """A memlab record has an integer `line` and five string fields; any
    other record is a FormatError at its line."""

    GOOD = {"file": "a.c", "line": 3, "kind": "MEMORY_LEAK",
            "checker": "MEMORY_LEAK", "message": "m", "function": "f"}

    @pytest.mark.parametrize("field,value,message", [
        ("line", None, "field `line` is not an integer: None"),
        ("line", "abc", "field `line` is not an integer: 'abc'"),
        ("line", "7", "field `line` is not an integer: '7'"),
        ("line", 2.7, "field `line` is not an integer: 2.7"),
        ("line", True, "field `line` is not an integer: True"),
        ("kind", ["x"], "field `kind` is not a string: ['x']"),
        ("file", 5, "field `file` is not a string: 5"),
        ("function", None, "field `function` is not a string: None"),
        ("kind", "NULL_DEREFERENCE",
         "kind NULL_DEREFERENCE inconsistent with checker MEMORY_LEAK"),
    ])
    def test_bad_field_is_located(self, field, value, message):
        text = json.dumps(self.GOOD) + "\n\n" + \
            json.dumps({**self.GOOD, field: value}) + "\n"
        with pytest.raises(FormatError) as exc:
            parse_memlab_report(text)
        assert (str(exc.value), exc.value.line_no) == \
            (f"line 3: {message}", 3)


class TestNormalizeKind:
    def test_canonical_tokens_pass_through(self):
        assert normalize_kind("MEMORY_LEAK") == "MEMORY_LEAK"
        assert normalize_kind("OUT_OF_BOUNDS") == "OUT_OF_BOUNDS"

    def test_phrases_map_case_insensitively(self):
        assert normalize_kind("Null Dereference") == "NULL_DEREFERENCE"
        assert normalize_kind("dead store") == "DEAD_STORE"
        assert normalize_kind("Dangling Pointer") == "DANGLING_POINTER"

    def test_unknown_becomes_unmapped(self):
        assert normalize_kind("quantum entanglement") == KIND_UNMAPPED
