"""Command-line interface tests."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from memlab.analysis import PROFILES, SETTINGS, analyze_unit
from memlab.benchlab import load_truth_manifest
from memlab.cli import build_parser, main, resolve_config
from memlab.diagnostics import render_text
from memlab.frontend import parse_file


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_truth(tmp_path, **entry):
    """A one-entry truth manifest; `entry` overrides the entry's fields."""
    records = [
        {"record": "header", "program": "p", "versions": ["v1", "v2"]},
        {"record": "entry", "file": "a.c", "line": 3, "kind": "MEMORY_LEAK",
         "is_real": True, "introduced_version": "v1",
         "introduced_date": "2020-01-01", "fixed_date": "2020-02-01",
         **entry},
    ]
    path = tmp_path / "truth.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


class TestAnalyze:
    def test_findings_exit_one_with_golden_output(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "corpus/dead_store_tp.c",
                               "--profile", "union")
        assert code == 1
        assert out == (
            "Found 1 issue\n"
            "\n"
            "corpus/dead_store_tp.c:8: error: DEAD_STORE\n"
            "  The value written to &ptr_a is never used\n"
            "\n"
            "Summary of the reports\n"
            "\n"
            "  DEAD_STORE: 1\n")

    def test_clean_file_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "analyze",
                               "corpus/dead_store_tp_fixed.c")
        assert code == 0
        assert out == "Found 0 issues\n"

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "missing.c")
        assert code == 2
        assert "error" in err

    def test_parse_error_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.c"
        bad.write_text("int main() { for (;;) {} }")
        code, _, err = run_cli(capsys, "analyze", str(bad))
        assert code == 2
        assert "for" in err

    @pytest.mark.parametrize("text,message", [
        ("int f() {\n  *q = 5;\n  return y;\n}\n", "2:4: undeclared name 'q'"),
        ("int f() {\n  int *p = malloc(4);\n  int *p = NULL;\n  return 0;\n}\n",
         "3:8: redefinition of 'p'"),
        ("int f(int p) {\n  int *p = NULL;\n  return 0;\n}\n",
         "2:8: redefinition of 'p'"),
    ], ids=["undeclared", "redefined", "parameter-redefined"])
    def test_a_name_bound_to_no_declaration_or_two_exits_two(
            self, capsys, tmp_path, text, message):
        path = tmp_path / "n.c"
        path.write_text(text)
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert (code, out) == (2, "")
        assert err == f"memlab: error: {path}:{message}\n"

    def test_structured_output_is_jsonl(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "corpus/explicit_leak.c",
                               "--format", "structured")
        assert code == 1
        records = [json.loads(line) for line in out.splitlines()]
        assert records[0]["kind"] == "MEMORY_LEAK"
        assert records[0]["line"] == 12

    def test_unknown_profile_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "analyze", "corpus/explicit_leak.c",
                             "--profile", "pvs-like")
        assert code == 2

    def test_unknown_checker_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "corpus/explicit_leak.c",
                               "--disable", "IMAGINARY")
        assert code == 2
        assert "IMAGINARY" in err

    def test_disable_flag_silences_checker(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "corpus/dead_store_tp.c",
                               "--disable",
                               "DEAD_STORE,DEAD_STORE_NULL_INIT")
        assert code == 0
        assert out == "Found 0 issues\n"

    def test_env_profile_default(self, capsys, monkeypatch):
        monkeypatch.setenv("MEMLAB_PROFILE", "predator-like")
        code, out, _ = run_cli(capsys, "analyze", "corpus/dead_store_tp.c")
        assert code == 0  # predator-like has no dead-store checker

    def test_flag_overrides_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "memlab.conf"
        cfg.write_text("profile = predator-like\n"
                       "# comments are allowed\n")
        code, _, _ = run_cli(capsys, "analyze", "corpus/dead_store_tp.c",
                             "--config", str(cfg))
        assert code == 0
        code, _, _ = run_cli(capsys, "analyze", "corpus/dead_store_tp.c",
                             "--config", str(cfg), "--profile", "union")
        assert code == 1

    def test_config_file_overrides_profile_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "memlab.conf"
        cfg.write_text("profile = union\n"
                       "disable = DEAD_STORE, DEAD_STORE_NULL_INIT\n")
        code, out, _ = run_cli(capsys, "analyze", "corpus/dead_store_tp.c",
                               "--config", str(cfg))
        assert code == 0

    def test_malformed_config_exits_two(self, capsys, tmp_path):
        cfg = tmp_path / "memlab.conf"
        cfg.write_text("just some words\n")
        code, _, _ = run_cli(capsys, "analyze", "corpus/explicit_leak.c",
                             "--config", str(cfg))
        assert code == 2

    @pytest.mark.parametrize("argv,config", [
        (["--path-budget", "0"], None),
        (["--path-budget", "-5"], None),
        ([], "path_budget = 0\n"),
    ], ids=["flag-zero", "flag-negative", "config-zero"])
    def test_path_budget_below_one_is_a_usage_error(self, capsys, tmp_path,
                                                    argv, config):
        if config is not None:
            cfg = tmp_path / "memlab.conf"
            cfg.write_text(config)
            argv = ["--config", str(cfg)]
        code, out, err = run_cli(capsys, "analyze",
                                 "corpus/dead_store_tp_fixed.c", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("memlab: error: path budget must be at least 1")

    @pytest.mark.parametrize("argv,config", [
        (["--unroll-bound", "-7"], None),
        ([], "unroll_bound = -1\n"),
    ], ids=["flag-negative", "config-negative"])
    def test_unroll_bound_below_zero_is_a_usage_error(self, capsys, tmp_path,
                                                      argv, config):
        if config is not None:
            cfg = tmp_path / "memlab.conf"
            cfg.write_text(config)
            argv = ["--config", str(cfg)]
        code, out, err = run_cli(capsys, "analyze",
                                 "corpus/dead_store_tp_fixed.c", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("memlab: error: unroll bound must be at least 0")

    @pytest.mark.parametrize("config,flag", [
        ("path_budget = 0\n", ["--path-budget", "5"]),
        ("unroll_bound = -1\n", ["--unroll-bound", "2"]),
        ("profile = infer-like\ndisable = DEAD_STORE\n",
         ["--disable", "DEAD_STORE_NULL_INIT"]),
    ], ids=["path-budget", "unroll-bound", "checkers"])
    def test_flag_mends_a_config_file_setting(self, capsys, tmp_path,
                                              config, flag):
        # Only the configuration the file and the flags give together is
        # checked, not the file's on its own.
        cfg = tmp_path / "memlab.conf"
        cfg.write_text(config)
        code, out, err = run_cli(capsys, "analyze", "corpus/explicit_leak.c",
                                 "--config", str(cfg), *flag)
        assert (code, err) == (1, "")
        assert "MEMORY_LEAK" in out

    @pytest.mark.parametrize("config,line,key", [
        ("disable = DEAD_STORE_NULL_INIT\ndisable = DEAD_STORE\n", 2,
         "disable"),
        ("enable = UNINIT_USE\n# more\n\n enable = INTERIOR_FREE\n", 4,
         "enable"),
        ("path_budget = 9\nprofile = union\npath_budget=9\n", 3,
         "path_budget"),
    ], ids=["disable", "enable", "same-value"])
    def test_repeated_config_key_is_a_located_error(self, capsys, tmp_path,
                                                    config, line, key):
        # Keeping only the last value would silently drop the first line.
        cfg = tmp_path / "memlab.conf"
        cfg.write_text(config)
        out = run_cli(capsys, "analyze", "corpus/explicit_leak.c",
                      "--config", str(cfg))
        assert out == (2, "", f"memlab: error: {cfg}:{line}: duplicate key "
                              f"'{key}'\n")

    @pytest.mark.parametrize("field,fixture", [
        ("interprocedural", "interproc_leak.c"),
        ("sizeof_star_tracking", "sizeof_ptr_leak.c"),
        ("realloc_with_calls", "realloc_leak_calls.c"),
        ("struct_field_leak", "struct_field_leak.c"),
    ])
    def test_capability_flag_and_config_key_switch_it_off(self, capsys, tmp_path,
                                                          field, fixture):
        path = f"corpus/{fixture}"
        tu = parse_file(path)
        off = render_text(analyze_unit(
            tu, config=PROFILES["union"].replace(**{field: False})))
        assert off != render_text(analyze_unit(tu, config=PROFILES["union"]))
        cfg = tmp_path / "memlab.conf"
        cfg.write_text(f"{field} = false\n")
        flag = "--" + field.replace("_", "-")
        for argv in ([flag, "0"], ["--config", str(cfg)]):
            _, out, err = run_cli(capsys, "analyze", path, "--profile", "union",
                                  *argv)
            assert (out, err) == (off, ""), argv

    @pytest.mark.parametrize("setting", SETTINGS)
    def test_every_setting_is_a_flag_and_a_config_key(self, tmp_path, setting):
        union = PROFILES["union"]
        default = getattr(union, setting)
        value = type(default)(not default if SETTINGS[setting] == "bool"
                              else default + 1)
        cfg = tmp_path / "memlab.conf"
        cfg.write_text(f"{setting} = {int(value)}\n")
        flag = "--" + setting.replace("_", "-")
        for argv in ([flag, str(int(value))], ["--config", str(cfg)]):
            args = build_parser().parse_args(["analyze", "a.c", *argv])
            assert resolve_config(args) == \
                union.replace(**{setting: value}), argv

    def test_capability_config_key_must_be_a_boolean(self, capsys, tmp_path):
        cfg = tmp_path / "memlab.conf"
        cfg.write_text("interprocedural = maybe\n")
        out = run_cli(capsys, "analyze", "corpus/interproc_leak.c",
                      "--config", str(cfg))
        assert out == (2, "", "memlab: error: config key interprocedural: "
                              "expected a boolean, got 'maybe'\n")

    def test_unroll_bound_of_zero_is_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "analyze",
                               "corpus/dead_store_tp_fixed.c",
                               "--unroll-bound", "0")
        assert (code, out) == (0, "Found 0 issues\n")

    def test_path_budget_of_one_is_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "analyze",
                               "corpus/dead_store_tp_fixed.c",
                               "--path-budget", "1")
        assert (code, out) == (0, "Found 0 issues\n")

    def test_non_ascii_character_is_a_located_error(self, capsys, tmp_path):
        src = tmp_path / "f.c"
        src.write_text("int f() {\n  int x = \u00b2;\n  return x;\n}\n",
                       encoding="utf-8")
        code, out, err = run_cli(capsys, "analyze", str(src))
        assert (code, out) == (2, "")
        assert err == f"memlab: error: {src}:2:11: illegal character '\u00b2'\n"

    def test_timings_go_to_stderr_only(self, capsys):
        _, out1, err = run_cli(capsys, "analyze", "corpus/explicit_leak.c",
                               "--timings")
        assert "elapsed:" in err and "elapsed:" not in out1
        _, out2, _ = run_cli(capsys, "analyze", "corpus/explicit_leak.c")
        assert out1 == out2


def _plain_ifs(n):
    body = "int x = 0;\n" + "if (c) { x = i; }\n" * n + "return x;"
    return "int f(int c, int i) {\n%s\n}\n" % body


def _own_var_ifs(n):
    """`n` ifs that each assign their own variable: 2**n distinct states."""
    decls = "".join(f"int x{k} = 0;\n" for k in range(n))
    ifs = "".join(f"if (c) {{ x{k} = i; }}\n" for k in range(n))
    total = " + ".join(f"x{k}" for k in range(n))
    return "int f(int c, int i) {\n%s%sreturn %s;\n}\n" % (decls, ifs, total)


class TestTruncationAndCrashes:
    def test_truncated_clean_run_still_warns(self, capsys, tmp_path):
        src = tmp_path / "wide.c"
        src.write_text(_own_var_ifs(30))
        code, out, _ = run_cli(capsys, "analyze", str(src))
        assert code == 0
        assert out == ("Found 0 issues\n"
                       "\n"
                       "warning: analysis incomplete (path budget exceeded)\n")

    def test_truncated_structured_run_warns_on_stderr(self, capsys, tmp_path):
        src = tmp_path / "wide.c"
        src.write_text(_own_var_ifs(30))
        code, out, err = run_cli(capsys, "analyze", str(src),
                                 "--format", "structured")
        assert (code, out) == (0, "")
        assert err == "warning: analysis incomplete (path budget exceeded)\n"

    def test_complete_structured_run_has_no_warning(self, capsys, tmp_path):
        src = tmp_path / "narrow.c"
        src.write_text(_own_var_ifs(4))
        code, out, err = run_cli(capsys, "analyze", str(src),
                                 "--format", "structured")
        assert (code, out, err) == (0, "", "")

    def test_plain_ifs_on_one_variable_finish(self, capsys, tmp_path):
        # 2**30 paths, but only 31 states at the last join.
        src = tmp_path / "plain.c"
        src.write_text(_plain_ifs(30))
        code, out, _ = run_cli(capsys, "analyze", str(src))
        assert (code, out) == (0, "Found 0 issues\n")

    def test_deep_function_is_analysed(self, capsys, tmp_path):
        # The engine walks paths on a stack of its own, so neither the
        # length of a function nor its nesting depth meets Python's
        # recursion limit.
        src = tmp_path / "deep.c"
        for n in (200, 400):
            src.write_text(_plain_ifs(n))
            code, out, err = run_cli(capsys, "analyze", str(src))
            assert (code, out, err) == (0, "Found 0 issues\n", "")
        loops = "while (x < m) { if (c) { x = x + 1; } }\n" * 40
        nest = "while (c) {\n" * 60 + "x = x + 1;\n" + "}\n" * 60
        for body, argv in ((loops, ()), (nest, ("--path-budget", "64"))):
            src.write_text("int f(int c, int m) {\nint x = 0;\n%s"
                           "return x;\n}\n" % body)
            code, out, err = run_cli(capsys, "analyze", str(src), *argv)
            assert (code, err) == (0, "")  # no internal error
            assert out in ("Found 0 issues\n",
                           "Found 0 issues\n\nwarning: analysis incomplete "
                           "(path budget exceeded)\n")

    def test_long_call_chain_is_analysed(self, capsys, tmp_path):
        # Callers first, so each function is reached through its caller:
        # the walk over the calls goes 1500 functions deep.
        src = tmp_path / "chain.c"
        src.write_text("".join(
            f"int f{i}(int c) {{ return f{i + 1}(c); }}\n"
            for i in range(1499)) + "int f1499(int c) { return c; }\n")
        code, out, err = run_cli(capsys, "analyze", str(src))
        assert (code, out, err) == (0, "Found 0 issues\n", "")

    @pytest.mark.parametrize("terms", [500, 5000])
    def test_long_operator_chain_is_analysed(self, capsys, tmp_path, terms):
        # The parser reads an operator chain in a loop and the analyzer
        # folds it in one, so its length meets no recursion limit.
        src = tmp_path / "sum.c"
        src.write_text("int f(int c) {\nint x = %s;\nreturn x;\n}\n"
                       % " + ".join(["c"] * terms))
        code, out, err = run_cli(capsys, "analyze", str(src))
        assert (code, out, err) == (0, "Found 0 issues\n", "")

    @pytest.mark.parametrize("arms", [120, 2000])
    def test_long_else_if_chain_is_analysed(self, capsys, tmp_path, arms):
        # An `else if` arm is no nesting level, and the chain is parsed and
        # lowered in loops.
        src = tmp_path / "elif.c"
        chain = " else ".join(f"if (c == {i}) {{ x = {i}; }}"
                              for i in range(arms))
        src.write_text("int f(int c) {\nint x = 0;\n%s\nreturn x;\n}\n"
                       % chain)
        code, out, err = run_cli(capsys, "analyze", str(src))
        assert (code, out, err) == (0, "Found 0 issues\n", "")

    @pytest.mark.parametrize("links", [1000, 5000])
    def test_long_field_chain_is_analysed(self, capsys, tmp_path, links):
        # The analyzer folds a chain of `->` in a loop.  The chain follows
        # a join, so the liveness of the function's variables is computed
        # over it too.
        src = tmp_path / "links.c"
        src.write_text("typedef struct n { struct n *f; } n;\n"
                       "int f(int c, n *p) {\nint x = 0;\n"
                       "if (c) { x = 1; }\n"
                       "n *q = p%s;\nreturn x;\n}\n" % ("->f" * links))
        code, out, err = run_cli(capsys, "analyze", str(src))
        assert code in (0, 1) and err == ""
        assert out.startswith("Found ")

    @pytest.mark.parametrize("body,where", [
        ("int x = " + "(" * 2000 + "1" + ")" * 2000 + ";\nreturn x;",
         ":2:110: "),
        ("if (c) {\n" * 300 + "c = 1;\n" + "}\n" * 300 + "return c;",
         ":102:8: "),
    ], ids=["parentheses", "ifs"])
    def test_deep_nesting_is_a_located_error(self, capsys, tmp_path, body,
                                             where):
        src = tmp_path / "nested.c"
        src.write_text("int f(int c) {\n%s\n}\n" % body)
        code, out, err = run_cli(capsys, "analyze", str(src))
        assert (code, out) == (2, "")
        assert err == (f"memlab: error: {src}{where}nesting deeper than "
                       f"100 levels\n")

    def test_unexpected_exception_exits_two_on_one_line(self, capsys,
                                                        monkeypatch):
        # A ValueError from the engine is a fault, not an input error.
        for error in (RuntimeError, ValueError):
            def broken(*args, **kwargs):
                raise error("engine fault\nwith a second line")

            monkeypatch.setattr("memlab.cli.analyze_unit", broken)
            code, out, err = run_cli(capsys, "analyze",
                                     "corpus/explicit_leak.c")
            assert (code, out) == (2, "")
            assert err == (f"memlab: error: internal error: "
                           f"{error.__name__}: engine fault with a second "
                           f"line\n")

    def test_checker_set_that_breaks_a_dependency_is_an_input_error(
            self, capsys):
        out = run_cli(capsys, "analyze", "--profile", "infer-like",
                      "--disable", "DEAD_STORE", "corpus/explicit_leak.c")
        assert out == (2, "", "memlab: error: DEAD_STORE_NULL_INIT requires "
                              "DEAD_STORE\n")

    @pytest.mark.parametrize("args", [
        ("analyze", "{bad}"),
        ("analyze", "--config", "{bad}", "corpus/explicit_leak.c"),
        ("ingest", "--format", "infer", "{bad}"),
        ("bench", "--corpus", "{bad}"),
        ("bench", "--truth", "{bad}", "--ingested", "{bad}"),
        ("bench", "--truth", "truth/sds.jsonl", "--ingested", "{bad}"),
        ("persistence", "--truth", "{bad}"),
    ], ids=["analyze", "config", "ingest", "corpus", "truth", "report",
            "persistence"])
    def test_file_that_is_not_utf8_is_a_named_error(self, capsys, tmp_path,
                                                    args):
        bad = tmp_path / "latin1.c"
        bad.write_bytes(b"int main() { return 0; } /* \xe9 */\n")
        out = run_cli(capsys, *(a.format(bad=bad) for a in args))
        assert out == (2, "", f"memlab: error: {bad}: 'utf-8' codec can't "
                              "decode byte 0xe9 in position 28: invalid "
                              "continuation byte\n")


class TestBench:
    def test_corpus_all_pass_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--corpus",
                               "corpus/manifest.jsonl", "--profile", "union")
        assert code == 0
        assert "pattern 11: detected" in out

    def test_truth_classification(self, capsys, tmp_path):
        report = tmp_path / "tool.jsonl"
        report.write_text(json.dumps({
            "file": "sds.c", "line": 159, "kind": "MEMORY_LEAK",
            "checker": "ingest:memlab", "message": "", "function": "",
        }) + "\n")
        code, out, _ = run_cli(capsys, "bench", "--truth", "truth/sds.jsonl",
                               "--ingested", str(report), "--format",
                               "memlab")
        assert code == 0
        assert "tp=1 fp=0" in out

    def test_negative_tolerance_is_a_usage_error(self, capsys, tmp_path):
        # A negative tolerance would match nothing, not even a finding on
        # the very line of a real entry.
        report = tmp_path / "tool.jsonl"
        report.write_text(json.dumps({
            "file": "sds.c", "line": 159, "kind": "MEMORY_LEAK",
            "checker": "ingest:memlab", "message": "", "function": "",
        }) + "\n")
        code, out, err = run_cli(capsys, "bench", "--truth",
                                 "truth/sds.jsonl", "--ingested", str(report),
                                 "--format", "memlab", "--tolerance", "-1")
        assert (code, out) == (2, "")
        assert err == "memlab: error: tolerance must be at least 0, got -1\n"

    @pytest.mark.parametrize("truth,tolerance,expected", [
        ("truth/sds.jsonl", 0, "tp=1 fp=23 fn=11 tn=12"),
        ("truth/sds.jsonl", 2, "tp=5 fp=19 fn=7 tn=8"),
        ("truth/beanstalkd.jsonl", 0, "tp=6 fp=29 fn=28 tn=14"),
        ("truth/beanstalkd.jsonl", 2, "tp=17 fp=18 fn=17 tn=9"),
    ])
    def test_truth_output_is_pinned(self, capsys, tmp_path, truth,
                                    tolerance, expected):
        # The corpus's own findings (in files no manifest names), then one
        # finding 0-2 lines below every other truth entry, the first of
        # them UNMAPPED, so every cell of the matrix is nonzero.
        corpus = sorted(str(p) for p in Path("corpus").glob("*.c"))
        _, report, _ = run_cli(capsys, "analyze", "--format", "structured",
                               *corpus)
        entries = load_truth_manifest(truth).entries
        report += "".join(json.dumps({
            "file": e.file, "line": e.line + i % 3,
            "kind": "UNMAPPED" if i == 0 else e.kind,
            "checker": "ingest:memlab", "message": "", "function": "",
        }) + "\n" for i, e in enumerate(entries) if i % 2 == 0)
        path = tmp_path / "report.jsonl"
        path.write_text(report)
        out = run_cli(capsys, "bench", "--truth", truth, "--ingested",
                      str(path), "--format", "memlab", "--tolerance",
                      str(tolerance))
        program = Path(truth).stem
        assert out == (0, f"program: {program}\n{expected}\nunmapped=1\n",
                       "")

    @pytest.mark.parametrize("argv,flag", [
        (("--corpus", "corpus/manifest.jsonl", "--tolerance", "5"),
         "--tolerance"),
        (("--corpus", "corpus/manifest.jsonl", "--format", "infer"),
         "--format"),
        (("--corpus", "corpus/manifest.jsonl", "--ingested", "r.jsonl"),
         "--ingested"),
        (("--truth", "truth/sds.jsonl", "--ingested", "r.jsonl",
          "--profile", "predator-like"), "--profile"),
    ], ids=["tolerance", "format", "ingested", "profile"])
    def test_a_flag_of_the_other_mode_is_a_usage_error(self, capsys, argv,
                                                        flag):
        # Ignoring it would print the plain corpus report, or a score that
        # looks per profile but is not.
        code, out, err = run_cli(capsys, "bench", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("memlab: error: " + flag + " ")
        assert err.count("\n") == 1

    def test_corpus_fixture_outside_the_subset_names_its_file(
            self, capsys, tmp_path):
        (tmp_path / "loop.c").write_text("int f() {\n  for (;;) {}\n}\n")
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(json.dumps({
            "fixture": "loop.c", "pattern": 1, "expected": [],
            "profiles": {}}) + "\n")
        code, out, err = run_cli(capsys, "bench", "--corpus", str(manifest))
        assert (code, out) == (2, "")
        assert err == (f"memlab: error: {tmp_path / 'loop.c'}:2:3: 'for' "
                       "statements are outside the subset\n")

    @pytest.mark.parametrize("key,value,message", [
        ("fixture", None, "missing 'fixture'"),
        ("pattern", None, "missing 'pattern'"),
        ("expected", None, "missing 'expected'"),
        ("profiles", None, "missing 'profiles'"),
        ("fixture", 3, "'fixture' must be a string"),
        ("pattern", "1", "'pattern' must be an integer"),
        ("pattern", True, "'pattern' must be an integer"),
        ("expected", [{"line": "6", "kind": "MEMORY_LEAK"}],
         "'expected' must be a list of"),
        ("expected", {"line": 6}, "'expected' must be a list of"),
        ("profiles", {"union": "yes"}, "'profiles' must be an object"),
        ("fixed", 7, "'fixed' must be a string or null"),
        ("expected", [{"line": 6, "kind": "MEMORY_LEAK"},
                      {"line": 7, "kind": "MEMORY_LEAK"},
                      {"line": 6, "kind": "MEMORY_LEAK"}],
         "'expected' lists line 6 MEMORY_LEAK twice"),
    ], ids=["no-fixture", "no-pattern", "no-expected", "no-profiles",
            "int-fixture", "str-pattern", "bool-pattern", "str-line",
            "dict-expected", "str-profile", "int-fixed", "twice-expected"])
    def test_malformed_corpus_record_is_a_located_error(
            self, capsys, tmp_path, key, value, message):
        (tmp_path / "f.c").write_text("int main() { return 0; }\n")
        record = {"fixture": "f.c", "pattern": 1, "expected": [],
                  "profiles": {"union": True}}
        if value is None:
            del record[key]
        else:
            record[key] = value
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("\n" + json.dumps(record) + "\n")
        code, out, err = run_cli(capsys, "bench", "--corpus", str(manifest))
        assert (code, out) == (2, "")
        assert err.startswith(f"memlab: error: {manifest}:2: {message}")
        assert err.count("\n") == 1

    def test_unknown_profile_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "bench", "--corpus",
                                 "corpus/manifest.jsonl", "--profile", "bogus")
        assert (code, out) == (2, "")
        assert "argument --profile: invalid choice: 'bogus'" in err

    def test_corpus_and_truth_together_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "bench", "--corpus",
                             "corpus/manifest.jsonl", "--truth",
                             "truth/sds.jsonl")
        assert code == 2

    def test_malformed_truth_manifest_is_a_located_error(self, capsys,
                                                         tmp_path):
        truth = write_truth(tmp_path, line="3")
        report = tmp_path / "tool.jsonl"
        report.write_text("")
        out = run_cli(capsys, "bench", "--truth", str(truth), "--ingested",
                      str(report))
        assert out == (2, "", f"memlab: error: {truth}:2: 'line' must be an "
                              "integer\n")

    def test_duplicate_truth_entry_names_the_manifest_and_key(
            self, capsys, tmp_path):
        truth = write_truth(tmp_path)
        truth.write_text(truth.read_text() + truth.read_text().splitlines(
            keepends=True)[1])
        report = tmp_path / "tool.jsonl"
        report.write_text(json.dumps({
            "file": "a.c", "line": 3, "kind": "MEMORY_LEAK",
            "checker": "ingest:memlab", "message": "", "function": "",
        }) + "\n")
        out = run_cli(capsys, "bench", "--truth", str(truth), "--ingested",
                      str(report))
        assert out == (2, "", f"memlab: error: {truth}: duplicate entry "
                              "a.c:3 MEMORY_LEAK\n")

    def test_malformed_report_names_its_line(self, capsys, tmp_path):
        report = tmp_path / "tool.jsonl"
        report.write_text("\n{}\n")
        out = run_cli(capsys, "bench", "--truth", str(write_truth(tmp_path)),
                      "--ingested", str(report))
        assert out == (2, "", f"memlab: error: {report}:2: record missing "
                              "required fields\n")


class TestIngest:
    def test_conversion_exits_zero_even_with_findings(self, capsys):
        code, out, _ = run_cli(capsys, "ingest",
                               "reports/infer_null_deref.txt",
                               "--format", "infer")
        assert code == 0
        record = json.loads(out.splitlines()[0])
        assert record["kind"] == "NULL_DEREFERENCE"
        assert record["line"] == 13

    def test_empty_report_exits_zero(self, capsys, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        code, out, _ = run_cli(capsys, "ingest", str(empty),
                               "--format", "infer")
        assert code == 0
        assert out == ""

    def test_malformed_report_names_its_line(self, capsys, tmp_path):
        report = tmp_path / "cppcheck.txt"
        report.write_text("Checking a.c ...\n[a.c:4]: (error) Memory leak: p\n"
                          "[a.c 5]: (error) x\n")
        code, out, err = run_cli(capsys, "ingest", str(report),
                                 "--format", "cppcheck")
        assert (code, out) == (2, "")
        assert err == (f"memlab: error: {report}:3: malformed bracket line: "
                       "'[a.c 5]: (error) x'\n")

    @pytest.mark.parametrize("field,value,message", [
        ("line", None, "field `line` is not an integer: None"),
        ("kind", ["x"], "field `kind` is not a string: ['x']"),
    ])
    def test_ill_typed_memlab_record_names_its_line(self, capsys, tmp_path,
                                                    field, value, message):
        report = tmp_path / "tool.jsonl"
        report.write_text(json.dumps({
            "file": "sds.c", "line": 159, "kind": "MEMORY_LEAK",
            "checker": "ingest:memlab", "message": "", "function": "",
            field: value}) + "\n")
        code, out, err = run_cli(capsys, "ingest", str(report),
                                 "--format", "memlab")
        assert (code, out) == (2, "")
        assert err == f"memlab: error: {report}:1: {message}\n"

    def test_report_error_without_a_line_names_the_report(self, capsys,
                                                         tmp_path):
        report = tmp_path / "infer.txt"
        report.write_text("Found 2 issues\n")
        out = run_cli(capsys, "ingest", str(report), "--format", "infer")
        assert out == (2, "", f"memlab: error: {report}: header declares 2 "
                              "issue(s), parsed 0\n")

    def test_format_mismatch_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "ingest",
                               "reports/infer_null_deref.txt",
                               "--format", "predator")
        assert code == 2
        assert "reports/infer_null_deref.txt:1: " in err


class TestPersistence:
    def test_two_dates(self, capsys):
        code, out, _ = run_cli(capsys, "persistence", "2009-10-14",
                               "2009-10-18")
        assert code == 0
        assert out.strip() == "0.13"

    def test_day_month_year_format(self, capsys):
        code, out, _ = run_cli(capsys, "persistence", "06/02/2014",
                               "25/11/2014")
        assert code == 0
        assert out.strip() == "9"

    def test_truth_manifest_listing(self, capsys):
        code, out, _ = run_cli(capsys, "persistence", "--truth",
                               "truth/beanstalkd.jsonl")
        assert code == 0
        assert "binlog.c:215 NULL_DEREFERENCE: 0.13" in out
        assert "net.c:28 DEAD_STORE: 22" in out

    def test_reversed_dates_exit_two(self, capsys):
        out = run_cli(capsys, "persistence", "2020-02-01", "2020-01-01")
        assert out == (2, "", "memlab: error: 2020-01-01 precedes "
                              "2020-02-01\n")

    def test_reversed_manifest_dates_exit_two(self, capsys, tmp_path):
        truth = write_truth(tmp_path, introduced_date="2020-02-01",
                            fixed_date="2020-01-01")
        report = tmp_path / "empty.jsonl"
        report.write_text("")
        error = f"memlab: error: {truth}:2: 2020-01-01 precedes 2020-02-01\n"
        assert run_cli(capsys, "persistence", "--truth", str(truth)) == \
            (2, "", error)
        assert run_cli(capsys, "bench", "--truth", str(truth), "--ingested",
                       str(report)) == (2, "", error)

    def test_malformed_truth_manifest_is_a_located_error(self, capsys,
                                                         tmp_path):
        truth = write_truth(tmp_path, fixed_date="01/02/2020")
        out = run_cli(capsys, "persistence", "--truth", str(truth))
        assert out == (2, "", f"memlab: error: {truth}:2: time data "
                              "'01/02/2020' does not match format "
                              "'%Y-%m-%d'\n")


class TestDeterminism:
    def test_two_runs_byte_identical(self, capsys):
        args = ("analyze", "corpus/struct_field_leak.c",
                "corpus/unchecked_malloc_deref.c")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestBenchmark:
    def test_self_test_passes(self):
        # The benchmark imports memlab internals; this keeps a change to
        # them from breaking it unnoticed.
        root = Path(__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--self-test"], cwd=root,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            timeout=600)
        assert proc.returncode == 0, proc.stdout
