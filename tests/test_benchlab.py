"""Ground truth, classification, size classes, and persistence tests."""

import random
from datetime import date

import pytest

from memlab.analysis import Finding
from memlab.benchlab import (
    ConfusionMatrix,
    EmptyMatrix,
    GroundTruthEntry,
    ManifestError,
    NegativeInterval,
    TruthEntries,
    classify,
    classify_program_size,
    compute_persistence,
    compute_rates,
    load_corpus_manifest,
    load_truth_manifest,
    reproduce_tool_table,
    run_corpus,
)

TRUTH_SDS = "truth/sds.jsonl"
TRUTH_BEANSTALKD = "truth/beanstalkd.jsonl"


def entry(file="a.c", line=10, kind="MEMORY_LEAK", is_real=True, **kw):
    kw.setdefault("introduced_version", "v1")
    return GroundTruthEntry(file=file, line=line, kind=kind,
                            is_real=is_real, **kw)


def finding(file="a.c", line=10, kind="MEMORY_LEAK"):
    return Finding(file=file, line=line, kind=kind, checker="ingest:memlab",
                   message="", function="")


class TestManifestLoading:
    def test_sds_manifest_shape(self):
        m = load_truth_manifest(TRUTH_SDS)
        assert m.program == "sds"
        assert m.versions == ["1", "2"]
        assert len(m.entries) == 28

    def test_beanstalkd_manifest_shape(self):
        m = load_truth_manifest(TRUTH_BEANSTALKD)
        assert len(m.entries) == 50
        assert sum(a.count for a in m.aggregates) == 129
        assert m.versions[0] == "0.3" and m.versions[-1] == "1.10"

    def test_header_must_come_first(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"record": "entry", "file": "a.c", "line": 1, '
                     '"kind": "MEMORY_LEAK", "is_real": true, '
                     '"introduced_version": "v1"}\n')
        with pytest.raises(ManifestError):
            load_truth_manifest(p)

    def test_undeclared_version_rejected(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text(
            '{"record": "header", "program": "x", "versions": ["v1"]}\n'
            '{"record": "entry", "file": "a.c", "line": 1, '
            '"kind": "MEMORY_LEAK", "is_real": true, '
            '"introduced_version": "v9"}\n')
        with pytest.raises(ManifestError):
            load_truth_manifest(p)

    def test_unknown_kind_rejected(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text(
            '{"record": "header", "program": "x", "versions": ["v1"]}\n'
            '{"record": "entry", "file": "a.c", "line": 1, '
            '"kind": "BAD_KIND", "is_real": true, '
            '"introduced_version": "v1"}\n')
        with pytest.raises(ManifestError):
            load_truth_manifest(p)

    def test_missing_file_rejected(self):
        with pytest.raises(ManifestError):
            load_truth_manifest("truth/nonexistent.jsonl")

    HEADER = {"record": "header", "program": "x", "versions": ["v1"]}
    ENTRY = {"record": "entry", "file": "a.c", "line": 1,
             "kind": "MEMORY_LEAK", "is_real": True,
             "introduced_version": "v1"}

    @pytest.mark.parametrize("header,record,message", [
        (HEADER, {**ENTRY, "is_real": "false"}, "'is_real' must be a boolean"),
        (HEADER, {**ENTRY, "line": 3.7}, "'line' must be an integer"),
        (HEADER, {**ENTRY, "line": True}, "'line' must be an integer"),
        (HEADER, {**ENTRY, "tools": "infer"}, "'tools' must be a list of"),
        (HEADER, {**ENTRY, "fixed_date": 2009}, "'fixed_date' must be a"),
        (HEADER, {**ENTRY, "fixed_date": "2009-13-01"}, "time data"),
        (HEADER, {"record": "aggregate_fp", "kind": "MEMORY_LEAK",
                  "count": 1}, "missing 'tool'"),
        (HEADER, {"record": "aggregate_fp", "tool": "infer",
                  "kind": "MEMORY_LEAK", "count": "1"},
         "'count' must be an integer"),
        (HEADER, {"record": "aggregate_fp", "tool": "infer",
                  "kind": "MEMORY_LEKA", "count": 1},
         "unknown kind 'MEMORY_LEKA'"),
        (HEADER, {"record": "aggregate_fp", "tool": "infer",
                  "kind": "MEMORY_LEAK", "count": -3},
         "'count' must be at least 0, got -3"),
        (HEADER, ["entry"], "a record must be a JSON object"),
        ({**HEADER, "versions": "12"}, ENTRY,
         "'versions' must be a list of strings"),
        ({"record": "header", "versions": ["v1"]}, ENTRY,
         "missing 'program'"),
    ], ids=["str-is_real", "float-line", "bool-line", "str-tools",
            "int-date", "bad-date", "no-tool", "str-count",
            "unknown-aggregate-kind", "negative-count", "list-record",
            "str-versions", "no-program"])
    def test_malformed_record_is_a_located_error(self, tmp_path, header,
                                                 record, message):
        import json
        p = tmp_path / "bad.jsonl"
        p.write_text(f"{json.dumps(header)}\n\n{json.dumps(record)}\n")
        with pytest.raises(ManifestError) as exc:
            load_truth_manifest(p)
        line = 1 if header is not self.HEADER else 3
        assert str(exc.value).startswith(f"{p}:{line}: {message}")


class TestMatching:
    def test_exact_match_required_by_default(self):
        truth = TruthEntries([entry(line=10)])
        assert truth.match(finding(line=10), 0) is truth[0]
        assert truth.match(finding(line=11), 0) is None

    def test_kind_and_file_must_agree(self):
        truth = TruthEntries([entry(line=10)])
        assert truth.match(finding(kind="DEAD_STORE"), 0) is None
        assert truth.match(finding(file="b.c"), 0) is None

    def test_tolerance_picks_nearest(self):
        truth = TruthEntries([entry(line=8), entry(line=13)])
        assert truth.match(finding(line=12), 4).line == 13

    def test_distance_tie_breaks_to_lower_line(self):
        truth = TruthEntries([entry(line=8), entry(line=12)])
        assert truth.match(finding(line=10), 2).line == 8

    @pytest.mark.parametrize("second", [
        entry(line=10, is_real=False, note="again"), None,
    ], ids=["equal-key", "same-object"])
    def test_same_line_duplicates_are_rejected(self, tmp_path, second):
        first = entry(line=10)
        truth = [entry(line=3), first, first if second is None else second]
        message = "duplicate entry a.c:10 MEMORY_LEAK"
        with pytest.raises(ManifestError, match=f"^{message}$"):
            TruthEntries(truth)
        with pytest.raises(ManifestError, match=f"^{message}$"):
            classify([finding(line=3)], truth)
        import json
        p = tmp_path / "twice.jsonl"
        p.write_text("".join(json.dumps(r) + "\n" for r in (
            {"record": "header", "program": "x", "versions": ["v1"]},
            *({"record": "entry", "file": e.file, "line": e.line,
               "kind": e.kind, "is_real": e.is_real,
               "introduced_version": "v1"} for e in truth))))
        with pytest.raises(ManifestError) as exc:
            load_truth_manifest(p)
        assert str(exc.value) == f"{p}: {message}"


def _scan_match(f, truth, tolerance):
    """The match as it was before its truth index: scan every entry."""
    candidates = [e for e in truth
                  if e.file == f.file and e.kind == f.kind
                  and abs(e.line - f.line) <= tolerance]
    return min(candidates, default=None,
               key=lambda e: (abs(e.line - f.line), e.line))


def _scan_classify(findings, truth, tolerance):
    """classify as it was before its truth index: every finding scans every
    entry, and FN and TN are counted over the whole truth."""
    labels, matched, tp, fp = [], set(), 0, 0
    for f in findings:
        if f.kind == "UNMAPPED":
            labels.append((f, "UNMAPPED"))
            continue
        best = _scan_match(f, truth, tolerance)
        if best is None:
            fp += 1
            labels.append((f, "FP"))
            continue
        matched.add(id(best))
        tp, fp = (tp + 1, fp) if best.is_real else (tp, fp + 1)
        labels.append((f, "TP" if best.is_real else "FP"))
    fn = sum(1 for e in truth if e.is_real and id(e) not in matched)
    tn = sum(1 for e in truth if not e.is_real and id(e) not in matched)
    return ConfusionMatrix(tp, fp, fn, tn), labels


FILES = ("a.c", "b.c", "c.c")
KINDS = ("MEMORY_LEAK", "DEAD_STORE")


def _random_truth(rng):
    """Up to 30 entries over 3 files, 2 kinds and 40 lines, at most one
    for each (file, kind, line), in random order."""
    keys = rng.sample([(file, kind, line) for file in FILES
                       for kind in KINDS for line in range(1, 41)],
                      rng.randint(0, 30))
    return [entry(file=file, line=line, kind=kind,
                  is_real=rng.random() < 0.7) for file, kind, line in keys]


def _random_finding(rng, truth):
    """A finding near a truth entry half the time, anywhere otherwise."""
    if truth and rng.random() < 0.5:
        e = rng.choice(truth)
        return finding(file=e.file, line=e.line + rng.randint(-5, 5),
                       kind=e.kind)
    return finding(file=rng.choice(FILES), line=rng.randint(1, 40),
                   kind=rng.choice(KINDS + ("UNMAPPED",)))


class TestClassify:
    def test_four_way_partition(self):
        truth = [
            entry(line=1),                  # matched real -> TP
            entry(line=2, is_real=False),   # matched non-real -> FP
            entry(line=3),                  # unmatched real -> FN
            entry(line=4, is_real=False),   # unmatched non-real -> TN
        ]
        findings = [finding(line=1), finding(line=2), finding(line=9)]
        matrix, labels = classify(findings, truth)
        assert matrix == ConfusionMatrix(tp=1, fp=2, fn=1, tn=1)
        assert [label for _, label in labels] == ["TP", "FP", "FP"]

    def test_unmapped_findings_are_labelled_not_classified(self):
        findings = [Finding(file="a.c", line=1, kind="UNMAPPED",
                            checker="ingest:predator", message="",
                            function="")]
        matrix, labels = classify(findings, [entry(line=1)])
        assert labels[0][1] == "UNMAPPED"
        assert matrix == ConfusionMatrix(tp=0, fp=0, fn=1, tn=0)

    @pytest.mark.parametrize("seed", range(200))
    def test_index_agrees_with_a_full_scan(self, seed):
        # Several finding lists against one truth, passed both as a plain
        # list (indexed per call) and indexed once.
        rng = random.Random(seed)
        truth = _random_truth(rng)
        indexed = TruthEntries(truth)
        for _ in range(4):
            findings = [_random_finding(rng, truth)
                        for _ in range(rng.randint(0, 30))]
            tolerance = rng.randint(0, 5)
            want = _scan_classify(findings, truth, tolerance)
            assert classify(findings, truth, tolerance) == want
            assert classify(findings, indexed, tolerance) == want

    @pytest.mark.parametrize("seed", range(50))
    def test_match_finding_agrees_with_a_scan(self, seed):
        rng = random.Random(seed)
        truth = _random_truth(rng)
        indexed = TruthEntries(truth)
        for _ in range(20):
            f = _random_finding(rng, truth)
            tolerance = rng.randint(0, 5)
            assert indexed.match(f, tolerance) is _scan_match(f, truth,
                                                              tolerance)

    def test_rates_partition_to_one(self):
        matrix = ConfusionMatrix(tp=3, fp=1, fn=4, tn=2)
        rates = compute_rates(matrix)
        assert abs(sum(rates.values()) - 1.0) < 1e-12
        assert rates["tp_rate"] == 0.3

    def test_empty_matrix_rejected(self):
        with pytest.raises(EmptyMatrix):
            compute_rates(ConfusionMatrix())

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(tp=-1)


class TestTruthIndex:
    def test_loaded_entries_are_read_only(self):
        entries = load_truth_manifest(TRUTH_SDS).entries
        assert isinstance(entries, TruthEntries)
        with pytest.raises(AttributeError):
            entries.append(entries[0])
        with pytest.raises(TypeError):
            entries[0] = entries[1]

    @pytest.mark.parametrize("path", [TRUTH_SDS, TRUTH_BEANSTALKD])
    def test_classify_neither_reindexes_nor_rescans(self, path, monkeypatch):
        entries = load_truth_manifest(path).entries
        plain = list(entries)
        findings = [finding(file=e.file, line=e.line + i % 3, kind=e.kind)
                    for i, e in enumerate(plain) if i % 2 == 0]
        findings.append(finding(file="elsewhere.c"))
        want = {tolerance: classify(findings, plain, tolerance)
                for tolerance in (0, 2)}
        assert want[0] != want[2]

        def refuse(*args, **kwargs):
            raise AssertionError("the truth was indexed or scanned again")

        monkeypatch.setattr(TruthEntries, "__new__", refuse)
        monkeypatch.setattr(TruthEntries, "__iter__", refuse)
        with pytest.raises(AssertionError):
            classify(findings, plain)
        for tolerance, got in want.items():
            assert classify(findings, entries, tolerance) == got
        assert entries.match(finding(file=plain[0].file, line=plain[0].line,
                                     kind=plain[0].kind), 0) is plain[0]


class TestToolTable:
    def test_sds_cells(self):
        table = reproduce_tool_table(load_truth_manifest(TRUTH_SDS))
        assert table[("infer", "NULL_DEREFERENCE")] == {"fp": 0, "tp": 4}
        assert table[("predator", "MEMORY_LEAK")] == {"fp": 3, "tp": 0}
        assert table[("clang", "INVALID_FREE")] == {"fp": 2, "tp": 0}
        assert table[("predator", "OUT_OF_BOUNDS")] == {"fp": 4, "tp": 0}
        assert table[("cppcheck", "MEMORY_LEAK")] == {"fp": 0, "tp": 1}

    def test_beanstalkd_cells_include_aggregates(self):
        table = reproduce_tool_table(load_truth_manifest(TRUTH_BEANSTALKD))
        assert table[("infer", "NULL_DEREFERENCE")] == {"fp": 0, "tp": 9}
        assert table[("predator", "INVALID_DEREFERENCE")] == \
            {"fp": 125, "tp": 0}
        assert table[("infer", "DEAD_STORE")] == {"fp": 8, "tp": 4}
        assert table[("clang", "NULL_DEREFERENCE")] == {"fp": 0, "tp": 3}
        assert table[("predator", "MEMORY_LEAK")] == {"fp": 3, "tp": 2}


class TestSizeClasses:
    @pytest.mark.parametrize("lines,name", [
        (2000, "Small"), (6000, "Small"), (30000, "Medium"),
        (64000, "Medium"), (100000, "Large"), (512000, "Large"),
    ])
    def test_in_range(self, lines, name):
        cls = classify_program_size(lines)
        assert cls.name == name and not cls.out_of_range

    def test_out_of_range_clamps_and_flags(self):
        low = classify_program_size(50)
        assert low.name == "Small" and low.out_of_range
        high = classify_program_size(10 ** 7)
        assert high.name == "Large" and high.out_of_range

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            classify_program_size(0)


class TestPersistence:
    def test_full_months(self):
        assert compute_persistence(date(2014, 2, 6), date(2014, 11, 25)) == 9
        assert compute_persistence(date(2007, 11, 8), date(2009, 10, 3)) == 22

    def test_sub_month_interval_in_thirtieths(self):
        assert compute_persistence(date(2009, 10, 14),
                                   date(2009, 10, 18)) == 0.13

    def test_same_day_is_zero(self):
        assert compute_persistence(date(2020, 1, 1), date(2020, 1, 1)) == 0.0

    def test_day_of_month_boundary(self):
        # One day short of a full month still counts as days.
        assert compute_persistence(date(2020, 1, 15),
                                   date(2020, 2, 14)) == round(30 / 30, 2)
        assert compute_persistence(date(2020, 1, 15), date(2020, 2, 15)) == 1

    def test_negative_interval_rejected(self):
        with pytest.raises(NegativeInterval):
            compute_persistence(date(2020, 2, 1), date(2020, 1, 1))

    def test_recorded_intervals_reproduce(self):
        for path in (TRUTH_SDS, TRUTH_BEANSTALKD):
            for e in load_truth_manifest(path).entries:
                if e.introduced_date and e.fixed_date:
                    got = compute_persistence(e.introduced_date, e.fixed_date)
                    assert got == e.interval_months, f"{e.file}:{e.line}"


class TestRunCorpus:
    def test_union_profile_all_pass(self):
        manifest = load_corpus_manifest("corpus/manifest.jsonl")
        report = run_corpus(manifest, "union")
        assert report.all_passed
        assert all(report.pattern_matrix[p] for p in range(1, 12))

    def test_inverted_expectation_fails_naming_fixture(self, tmp_path):
        import json
        import shutil
        for name in ("explicit_leak.c", "explicit_leak_fixed.c"):
            shutil.copy(f"corpus/{name}", tmp_path / name)
        record = {
            "fixture": "explicit_leak.c", "fixed": "explicit_leak_fixed.c",
            "pattern": 9, "expected": [{"line": 12, "kind": "DEAD_STORE"}],
            "profiles": {"union": True},
        }
        manifest_path = tmp_path / "manifest.jsonl"
        manifest_path.write_text(json.dumps(record) + "\n")
        report = run_corpus(load_corpus_manifest(manifest_path), "union")
        assert not report.all_passed
        assert report.results[0].fixture == "explicit_leak.c"

    def test_missing_fixture_file_rejected(self, tmp_path):
        manifest_path = tmp_path / "manifest.jsonl"
        manifest_path.write_text(
            '{"fixture": "ghost.c", "pattern": 1, "expected": [], '
            '"profiles": {}}\n')
        with pytest.raises(ManifestError):
            load_corpus_manifest(manifest_path)
