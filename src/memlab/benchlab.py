"""Ground-truth management, classification, metrics and corpus running.

Ground truth lives in newline-delimited JSON manifests: a header record
declares the program and its version order, entry records carry one known
defect or known false positive each, and aggregate records carry tool/kind
false-positive counts that the source data reports only in aggregate.

Classification follows the four-way criteria: a reported finding that
matches a real entry is a true positive; a reported finding that matches
nothing, or matches a known-false entry, is a false positive; real entries
nobody reported are false negatives; known-false entries nobody reported
are true negatives.

At most one truth entry stands at each (file, kind, line): a second one,
or one entry listed twice, is a ManifestError wherever truth is built, so
a finding matches one entry or none.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from datetime import date, datetime
from pathlib import Path

from .analysis import ALL_KINDS, Finding, PROFILES, analyze_unit
from .frontend import InputError, parse_file, read_text
from .ingest import KIND_UNMAPPED


class ManifestError(InputError):
    pass


class EmptyMatrix(Exception):
    pass


class NegativeInterval(InputError):
    pass


# ---------------------------------------------------------------------------
# Ground truth
# ---------------------------------------------------------------------------

SOURCES = ("commit", "issue", "manual-review")


@dataclass(frozen=True)
class GroundTruthEntry:
    file: str
    line: int
    kind: str
    is_real: bool
    introduced_version: str
    fixed_version: str | None = None
    introduced_date: date | None = None
    fixed_date: date | None = None
    source: str = "manual-review"
    tools: tuple = ()
    note: str = ""
    # Persistence interval recorded in the source data, when present.
    interval_months: float | None = None

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ManifestError(f"unknown kind {self.kind!r}")
        if self.source not in SOURCES:
            raise ManifestError(f"unknown source {self.source!r}")
        if self.introduced_date is not None and self.fixed_date is not None \
                and self.fixed_date < self.introduced_date:
            raise ManifestError(
                f"{self.fixed_date} precedes {self.introduced_date}")


@dataclass(frozen=True)
class AggregateFalsePositives:
    tool: str
    kind: str
    count: int
    note: str = ""

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ManifestError(f"unknown kind {self.kind!r}")
        if self.count < 0:
            raise ManifestError(
                f"'count' must be at least 0, got {self.count}")


class TruthEntries(tuple):
    """Ground-truth entries as a read-only sequence, indexed for matching.

    The index is built once, here, where a second entry at one (file,
    kind, line) is rejected: each (file, kind)'s entries sorted by line
    beside their line numbers, and the counts of real and known-false
    entries.  `classify` reads it instead of scanning the entries.
    """

    def __new__(cls, entries=()):
        self = super().__new__(cls, entries)
        groups: dict = {}
        real = 0
        for e in self:
            group = groups.setdefault((e.file, e.kind), {})
            if e.line in group:
                raise ManifestError(
                    f"duplicate entry {e.file}:{e.line} {e.kind}")
            group[e.line] = e
            if e.is_real:
                real += 1
        self._groups = {}
        for key, group in groups.items():
            lines = sorted(group)
            self._groups[key] = (lines, [group[line] for line in lines])
        self.real = real
        self.known_false = len(self) - real
        return self

    def match(self, finding: Finding, tolerance: int):
        """The nearest same-file same-kind entry within the line tolerance,
        the lower line on a tie, or None."""
        lines, group = self._groups.get((finding.file, finding.kind),
                                        ((), ()))
        line = finding.line
        below = bisect_right(lines, line)      # lines[:below] are <= line
        best = None
        if below and line - lines[below - 1] <= tolerance:
            best = below - 1
        if below < len(lines) and lines[below] - line <= tolerance and (
                best is None or lines[below] - line < line - lines[best]):
            best = below
        return None if best is None else group[best]


def _indexed(truth) -> TruthEntries:
    return truth if isinstance(truth, TruthEntries) else TruthEntries(truth)


@dataclass
class TruthManifest:
    program: str
    versions: list
    entries: TruthEntries
    aggregates: list = field(default_factory=list)


def _parse_date(raw) -> date | None:
    if raw in (None, "", "x"):
        return None
    try:
        return datetime.strptime(raw, "%Y-%m-%d").date()
    except ValueError as exc:
        raise ManifestError(str(exc)) from None


# Manifests are JSON Lines.  The readers below raise a ManifestError that
# names the field; `_read_manifest` puts the record's path:line in front.

def _read_manifest(path: Path, read) -> None:
    """Call `read` on each record of the manifest at `path`, in order;
    blank lines are skipped."""
    if not path.exists():
        raise ManifestError(f"manifest not found: {path}")
    for idx, raw in enumerate(read_text(path).splitlines(), start=1):
        if raw.strip():
            try:
                read(_json_object(raw))
            except ManifestError as exc:
                raise ManifestError(f"{path}:{idx}: {exc}") from exc


def _json_object(raw: str) -> dict:
    try:
        record = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ManifestError(f"invalid record: {exc}") from exc
    if not isinstance(record, dict):
        raise ManifestError("a record must be a JSON object")
    return record


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_str(value) -> bool:
    return isinstance(value, str)


def _is_str_or_null(value) -> bool:
    return value is None or isinstance(value, str)


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(map(_is_str, value))


_REQUIRED = object()


def _field(record: dict, key: str, ok=_is_str, want: str = "a string",
           default=_REQUIRED):
    """`record[key]` if `ok` accepts it; `default` if the key is missing
    and a default is given."""
    if key not in record:
        if default is _REQUIRED:
            raise ManifestError(f"missing {key!r}")
        return default
    if not ok(record[key]):
        raise ManifestError(f"{key!r} must be {want}")
    return record[key]


def _truth_entry(record: dict) -> GroundTruthEntry:
    def day(key):
        return _parse_date(_field(record, key, _is_str_or_null,
                                  "a string or null", None))

    return GroundTruthEntry(
        file=_field(record, "file"),
        line=_field(record, "line", _is_int, "an integer"),
        kind=_field(record, "kind"),
        is_real=_field(record, "is_real", lambda v: isinstance(v, bool),
                       "a boolean"),
        introduced_version=_field(record, "introduced_version"),
        fixed_version=_field(record, "fixed_version", _is_str_or_null,
                             "a string or null", None),
        introduced_date=day("introduced_date"),
        fixed_date=day("fixed_date"),
        source=_field(record, "source", default="manual-review"),
        tools=tuple(_field(record, "tools", _is_str_list,
                           "a list of strings", ())),
        note=_field(record, "note", default=""),
        interval_months=_field(
            record, "interval_months", lambda v: v is None or _is_int(v)
            or isinstance(v, float), "a number or null", None),
    )


def load_truth_manifest(path) -> TruthManifest:
    path = Path(path)
    manifest: TruthManifest | None = None

    def read(record: dict) -> None:
        nonlocal manifest
        rtype = record.get("record")
        if rtype == "header":
            if manifest is not None:
                raise ManifestError("duplicate header")
            manifest = TruthManifest(
                program=_field(record, "program"),
                versions=list(_field(record, "versions", _is_str_list,
                                     "a list of strings")),
                entries=[],
            )
        elif manifest is None:
            raise ManifestError("first record must be the header")
        elif rtype == "entry":
            manifest.entries.append(_truth_entry(record))
        elif rtype == "aggregate_fp":
            manifest.aggregates.append(AggregateFalsePositives(
                tool=_field(record, "tool"), kind=_field(record, "kind"),
                count=_field(record, "count", _is_int, "an integer"),
                note=_field(record, "note", default="")))
        else:
            raise ManifestError(f"unknown record type {rtype!r}")

    _read_manifest(path, read)
    if manifest is None:
        raise ManifestError(f"{path}: empty manifest")
    try:
        for e in manifest.entries:
            for version in (e.introduced_version, e.fixed_version):
                if version is not None and version not in manifest.versions:
                    raise ManifestError(f"undeclared version {version!r}")
        manifest.entries = TruthEntries(manifest.entries)
    except ManifestError as exc:
        raise ManifestError(f"{path}: {exc}") from exc
    return manifest


# ---------------------------------------------------------------------------
# Matching and classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion counts must be non-negative")

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(self.tp + other.tp, self.fp + other.fp,
                               self.fn + other.fn, self.tn + other.tn)

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def classify(findings, truth, tolerance: int = 0):
    """Label findings TP/FP against truth and tally the confusion matrix.

    UNMAPPED findings are counted in the labels but not classified.
    Returns (ConfusionMatrix, labels) where labels is a list of
    (finding, label) pairs.  Against `TruthEntries` the cost follows the
    findings alone; any other sequence is indexed first, in one pass.
    """
    truth = _indexed(truth)
    labels = []
    matched: dict = {}     # id of each matched entry -> is it real?
    tp = fp = 0
    for f in findings:
        if f.kind == KIND_UNMAPPED:
            labels.append((f, "UNMAPPED"))
            continue
        entry = truth.match(f, tolerance)
        if entry is None:
            fp += 1
            labels.append((f, "FP"))
            continue
        matched[id(entry)] = entry.is_real
        if entry.is_real:
            tp += 1
            labels.append((f, "TP"))
        else:
            fp += 1
            labels.append((f, "FP"))
    matched_real = sum(matched.values())
    fn = truth.real - matched_real
    tn = truth.known_false - (len(matched) - matched_real)
    return ConfusionMatrix(tp, fp, fn, tn), labels


def compute_rates(matrix: ConfusionMatrix) -> dict:
    total = matrix.total
    if total == 0:
        raise EmptyMatrix("all confusion cells are zero")
    return {
        "tp_rate": matrix.tp / total,
        "fp_rate": matrix.fp / total,
        "fn_rate": matrix.fn / total,
        "tn_rate": matrix.tn / total,
    }


def reproduce_tool_table(manifest: TruthManifest) -> dict:
    """Per-(tool, kind) FP/TP cells derived through the classifier.

    For each tool, the entries attributed to it become that tool's synthetic
    findings, which are then classified against the full manifest (only
    same-kind entries can match, so each kind's TP and FP are its own);
    aggregate false-positive records are added to the FP cells afterwards.
    """
    tools = sorted({t for e in manifest.entries for t in e.tools}
                   | {a.tool for a in manifest.aggregates})
    table: dict = {}
    for tool in tools:
        findings = [Finding(file=e.file, line=e.line, kind=e.kind,
                            checker=f"ingest:{tool}", message="", function="")
                    for e in manifest.entries if tool in e.tools]
        kinds = sorted({f.kind for f in findings}
                       | {a.kind for a in manifest.aggregates if a.tool == tool})
        for kind in kinds:
            matrix, _ = classify([f for f in findings if f.kind == kind],
                                 manifest.entries)
            fp = matrix.fp + sum(a.count for a in manifest.aggregates
                                 if a.tool == tool and a.kind == kind)
            table[(tool, kind)] = {"fp": fp, "tp": matrix.tp}
    return table


# ---------------------------------------------------------------------------
# Program size classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SizeClass:
    name: str            # Small | Medium | Large
    low: int
    high: int
    out_of_range: bool = False


_SIZE_RANGES = (("Small", 2000, 6000), ("Medium", 6000, 64000),
                ("Large", 64000, 512000))


def classify_program_size(line_count: int) -> SizeClass:
    """Size class by line count; boundaries belong to the lower class."""
    if line_count <= 0:
        raise ValueError("line_count must be positive")
    if line_count < 2000:
        return SizeClass("Small", 2000, 6000, out_of_range=True)
    for name, low, high in _SIZE_RANGES:
        if line_count <= high:
            return SizeClass(name, low, high)
    return SizeClass("Large", 64000, 512000, out_of_range=True)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def compute_persistence(introduced: date, fixed: date):
    """Defect lifetime in months.

    Counted as full calendar months; an interval shorter than one month is
    returned as days/30 rounded to two decimals.
    """
    if fixed < introduced:
        raise NegativeInterval(f"{fixed} precedes {introduced}")
    months = (fixed.year - introduced.year) * 12 + fixed.month - introduced.month
    if fixed.day < introduced.day:
        months -= 1
    if months >= 1:
        return months
    days = (fixed - introduced).days
    return round(days / 30, 2)


# ---------------------------------------------------------------------------
# Corpus running
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusFixture:
    path: str
    fixed_path: str | None
    pattern: int
    expected: tuple      # ((line, kind), ...)
    profiles: dict       # profile name -> detection expected?


@dataclass
class CorpusManifest:
    root: Path
    fixtures: list


def _corpus_fixture(record: dict) -> CorpusFixture:
    """The fixture one manifest record describes; a field that is missing
    or of the wrong JSON type is a ManifestError."""
    fixture = _field(record, "fixture")
    fixed = _field(record, "fixed", _is_str_or_null, "a string or null",
                   None)
    pattern = _field(record, "pattern", _is_int, "an integer")
    expected = _field(
        record, "expected", lambda v: isinstance(v, list) and all(
            isinstance(e, dict) and _is_int(e.get("line"))
            and isinstance(e.get("kind"), str) for e in v),
        'a list of {"line": integer, "kind": string}')
    expected = tuple((e["line"], e["kind"]) for e in expected)
    for i, (line, kind) in enumerate(expected):
        if (line, kind) in expected[:i]:
            raise ManifestError(f"'expected' lists line {line} {kind} twice")
    profiles = _field(
        record, "profiles", lambda v: isinstance(v, dict) and all(
            isinstance(b, bool) for b in v.values()), "an object of booleans")
    return CorpusFixture(path=fixture, fixed_path=fixed, pattern=pattern,
                         expected=expected, profiles=dict(profiles))


def load_corpus_manifest(path) -> CorpusManifest:
    path = Path(path)
    fixtures: list = []
    _read_manifest(path, lambda record: fixtures.append(
        _corpus_fixture(record)))
    manifest = CorpusManifest(root=path.parent, fixtures=fixtures)
    for fx in fixtures:
        for p in (fx.path, fx.fixed_path):
            if p is not None and not (manifest.root / p).exists():
                raise ManifestError(f"missing fixture file: {p}")
    return manifest


@dataclass
class FixtureResult:
    fixture: str
    passed: bool
    detail: str = ""


@dataclass
class BenchReport:
    profile: str
    results: list
    pattern_matrix: dict      # pattern id -> detected?
    confusion: ConfusionMatrix

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)


def run_corpus(manifest: CorpusManifest, config=None) -> BenchReport:
    """Analyze every fixture pair and compare against the manifest.

    A fixture passes when the buggy file yields exactly its expected
    findings (if the profile is expected to detect the pattern) or none of
    them (if not), and its corrected twin yields no findings at all.
    """
    if config is None:
        config = PROFILES["union"]
    elif isinstance(config, str):
        config = PROFILES[config]
    results: list[FixtureResult] = []
    pattern_matrix: dict[int, bool] = {}
    confusion = ConfusionMatrix()
    for fx in manifest.fixtures:
        expect_detect = fx.profiles.get(config.profile, True)
        tu = parse_file(manifest.root / fx.path)
        found = analyze_unit(tu, config=config)
        got = sorted((f.line, f.kind) for f in found)
        expected = sorted(fx.expected)
        detected = all(pair in got for pair in expected) and bool(expected)
        pattern_matrix[fx.pattern] = pattern_matrix.get(fx.pattern, False) \
            or detected
        ok = (got == expected) if expect_detect else (got == [])
        detail = "" if ok else f"expected {expected if expect_detect else []}, got {got}"
        # Aggregate confusion: expected findings act as the truth set.
        truth = [GroundTruthEntry(file=tu.unit.path, line=line, kind=kind,
                                  is_real=True, introduced_version="v")
                 for line, kind in expected]
        cm, _ = classify(list(found), truth)
        confusion = confusion + cm
        fixed_detail = ""
        if fx.fixed_path is not None:
            fixed_tu = parse_file(manifest.root / fx.fixed_path)
            fixed_found = analyze_unit(fixed_tu, config=config)
            if len(fixed_found):
                ok = False
                fixed_detail = (f"; corrected fixture reported "
                                f"{[(f.line, f.kind) for f in fixed_found]}")
        results.append(FixtureResult(fx.path, ok, detail + fixed_detail))
    return BenchReport(profile=config.profile, results=results,
                       pattern_matrix=pattern_matrix, confusion=confusion)


def render_bench_report(report: BenchReport) -> str:
    lines = [f"profile: {report.profile}", ""]
    for r in report.results:
        status = "PASS" if r.passed else "FAIL"
        suffix = f" ({r.detail})" if r.detail else ""
        lines.append(f"{status} {r.fixture}{suffix}")
    lines.append("")
    lines.append("pattern matrix:")
    for pattern in sorted(report.pattern_matrix):
        mark = "detected" if report.pattern_matrix[pattern] else "missed"
        lines.append(f"  pattern {pattern}: {mark}")
    cm = report.confusion
    lines.append("")
    lines.append(f"confusion: tp={cm.tp} fp={cm.fp} fn={cm.fn} tn={cm.tn}")
    return "\n".join(lines) + "\n"
