"""Command-line front end.

Commands: ``analyze`` (run checkers over C sources), ``bench`` (corpus
expectations or ingested-report classification), ``ingest`` (normalize an
external tool report), and ``persistence`` (defect lifetime in months).

Exit codes: 0 when there is nothing to report (or a conversion succeeded),
1 when findings were produced or expectations failed, 2 on usage, parse,
format, or manifest errors, and on any internal error, which is reported as
one ``memlab: error:`` line instead of a traceback.

Configuration precedence for ``analyze``: command-line flags override the
config file, which overrides the profile's defaults.  The profile itself is
picked from ``--profile``, else the config file, else the MEMLAB_PROFILE
environment variable, else ``union``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .analysis import ALL_CHECKERS, PROFILES, SETTINGS, CheckerConfig, \
    analyze_unit
from .diagnostics import INCOMPLETE_WARNING, Report, emit_structured, \
    render_text
from .frontend import InputError, parse_file, read_text

# The keys of `ingest.PARSERS`, named here so that building the parser, and
# so `analyze`, does not import `ingest`; `bench`, `ingest` and
# `persistence` import the triage modules when they run.
REPORT_FORMATS = ("cppcheck", "infer", "memlab", "predator")


class UsageError(InputError):
    pass


def _read_config_file(path: str) -> dict:
    """Parse a simple ``key=value`` config file; # starts a comment."""
    values: dict[str, str] = {}
    try:
        text = read_text(path)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{idx}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in values:
            raise UsageError(f"{path}:{idx}: duplicate key {key!r}")
        values[key] = value.strip()
    return values


def _parse_bool(raw: str, key: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise UsageError(f"config key {key}: expected a boolean, got {raw!r}")


def _split_checkers(chunks: list) -> frozenset:
    names: set[str] = set()
    for chunk in chunks:
        names.update(n.strip() for n in chunk.split(",") if n.strip())
    unknown = names - ALL_CHECKERS
    if unknown:
        raise UsageError(f"unknown checker ids: {sorted(unknown)}")
    return frozenset(names)


def resolve_config(args) -> CheckerConfig:
    """Build the checker configuration from flags, config file, profile."""
    file_values = _read_config_file(args.config) if args.config else {}
    profile = args.profile or file_values.get("profile") \
        or os.environ.get("MEMLAB_PROFILE") or "union"
    if profile not in PROFILES:
        raise UsageError(f"unknown profile {profile!r}")
    config = PROFILES[profile]
    settings: dict = {}
    enabled = config.enabled

    # Config-file overrides.
    for key, value in file_values.items():
        if key == "profile":
            continue
        elif key == "enable":
            enabled = enabled | _split_checkers([value])
        elif key == "disable":
            enabled = enabled - _split_checkers([value])
        elif SETTINGS.get(key) == "bool":
            settings[key] = _parse_bool(value, key)
        elif SETTINGS.get(key) == "int":
            try:
                settings[key] = int(value)
            except ValueError:
                raise UsageError(f"config key {key}: expected an integer") \
                    from None
        else:
            raise UsageError(f"unknown config key {key!r}")

    # Flag overrides.
    for key in SETTINGS:
        value = getattr(args, key)
        if value is not None:
            settings[key] = value
    if args.enable:
        enabled = enabled | _split_checkers(args.enable)
    if args.disable:
        enabled = enabled - _split_checkers(args.disable)
    # Only the result is checked, so a flag may mend what the file set.
    return config.replace(enabled=enabled, **settings)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_analyze(args) -> int:
    config = resolve_config(args)
    started = time.perf_counter()
    results = [analyze_unit(parse_file(path), config=config)
               for path in args.paths]
    findings = [f for result in results for f in result]
    incomplete = any(r.incomplete for r in results)
    elapsed = time.perf_counter() - started
    report = Report(findings, incomplete=incomplete)
    if args.format == "structured":
        sys.stdout.write(emit_structured(report))
        if incomplete:
            # The JSONL stays findings only, so readers of it still parse it.
            print(INCOMPLETE_WARNING, file=sys.stderr)
    else:
        sys.stdout.write(render_text(report))
    if args.timings:
        print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return 1 if findings else 0


def cmd_bench(args) -> int:
    from . import benchlab

    if bool(args.corpus) == bool(args.truth):
        raise UsageError("bench needs exactly one of --corpus or --truth")
    # A flag of the other mode is an error, not silently ignored.
    if args.corpus:
        for flag, value in (("--ingested", args.ingested),
                            ("--format", args.report_format),
                            ("--tolerance", args.tolerance)):
            if value is not None:
                raise UsageError(f"{flag} applies to --truth, not --corpus")
        manifest = benchlab.load_corpus_manifest(args.corpus)
        report = benchlab.run_corpus(manifest,
                                     PROFILES[args.profile or "union"])
        sys.stdout.write(benchlab.render_bench_report(report))
        return 0 if report.all_passed else 1
    if args.profile is not None:
        raise UsageError("--profile applies to --corpus, not --truth")
    if not args.ingested:
        raise UsageError("--truth requires --ingested")
    tolerance = args.tolerance or 0
    if tolerance < 0:
        raise UsageError(f"tolerance must be at least 0, got {tolerance}")
    truth = benchlab.load_truth_manifest(args.truth)
    findings = _read_report(args.ingested, args.report_format or "memlab")
    matrix, labels = benchlab.classify(findings, truth.entries,
                                       tolerance=tolerance)
    unmapped = sum(1 for _, label in labels if label == "UNMAPPED")
    print(f"program: {truth.program}")
    print(f"tp={matrix.tp} fp={matrix.fp} fn={matrix.fn} tn={matrix.tn}")
    print(f"unmapped={unmapped}")
    return 0


def cmd_ingest(args) -> int:
    findings = _read_report(args.report, args.report_format)
    sys.stdout.write(emit_structured(Report(findings)))
    return 0


def _parse_cli_date(raw: str):
    from datetime import datetime

    for fmt in ("%Y-%m-%d", "%d/%m/%Y"):
        try:
            return datetime.strptime(raw, fmt).date()
        except ValueError:
            continue
    raise UsageError(f"cannot parse date {raw!r} (expected YYYY-MM-DD or "
                     "DD/MM/YYYY)")


def _format_months(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.2f}"


def cmd_persistence(args) -> int:
    from . import benchlab

    if args.truth:
        if args.dates:
            raise UsageError("give either --truth or two dates, not both")
        manifest = benchlab.load_truth_manifest(args.truth)
        for e in manifest.entries:
            if e.introduced_date is None or e.fixed_date is None:
                continue
            months = benchlab.compute_persistence(e.introduced_date,
                                                  e.fixed_date)
            print(f"{e.file}:{e.line} {e.kind}: {_format_months(months)}")
        return 0
    if len(args.dates) != 2:
        raise UsageError("persistence needs an introduced and a fixed date")
    introduced, fixed = (_parse_cli_date(d) for d in args.dates)
    months = benchlab.compute_persistence(introduced, fixed)
    print(_format_months(months))
    return 0


def _read_input_file(path: str) -> str:
    try:
        return read_text(path)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _read_report(path: str, fmt: str) -> list:
    """A tool report's findings; a malformed report's error reads
    "path:line: message", or "path: message" where no line is at fault."""
    from .ingest import FormatError, parse_report

    text = _read_input_file(path)
    try:
        return parse_report(text, fmt)
    except FormatError as exc:
        where = f"{path}:{exc.line_no}" if exc.line_no else path
        exc.args = (f"{where}: {exc.message}",)
        raise


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


# Help text of the `analyze` flags that have one.
_SETTING_HELP = {"path_budget": (
    "paths a function may count before its analysis stops and is marked "
    f"incomplete (default {PROFILES['union'].path_budget}): a path that "
    "reaches a join or loop head in a state already explored there is "
    "dropped and counts as one at most")}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memlab",
        description="Static memory-error analysis and benchmarking for a C "
                    "subset.",
        epilog="Configuration precedence: flags > config file > profile "
               "defaults. MEMLAB_PROFILE sets the default profile.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="analyze C source files")
    p_an.add_argument("paths", nargs="+", metavar="FILE")
    p_an.add_argument("--profile", choices=sorted(PROFILES))
    p_an.add_argument("--config", help="key=value configuration file")
    p_an.add_argument("--enable", action="append", default=[],
                      metavar="CHECKER")
    p_an.add_argument("--disable", action="append", default=[],
                      metavar="CHECKER")
    p_an.add_argument("--format", choices=("text", "structured"),
                      default="text")
    for key, kind in SETTINGS.items():
        p_an.add_argument("--" + key.replace("_", "-"), type=int,
                          choices=(0, 1) if kind == "bool" else None,
                          help=_SETTING_HELP.get(key))
    p_an.add_argument("--timings", action="store_true")
    p_an.set_defaults(func=cmd_analyze)

    p_be = sub.add_parser("bench", help="run corpus or classify a report")
    p_be.add_argument("--corpus", help="corpus manifest (JSONL)")
    p_be.add_argument("--profile", choices=sorted(PROFILES),
                      help="with --corpus (default union)")
    p_be.add_argument("--truth", help="ground-truth manifest (JSONL)")
    p_be.add_argument("--ingested", help="tool report to classify")
    p_be.add_argument("--format", dest="report_format",
                      choices=REPORT_FORMATS,
                      help="with --truth (default memlab)")
    p_be.add_argument("--tolerance", type=int,
                      help="line-match tolerance, with --truth (default 0)")
    p_be.set_defaults(func=cmd_bench)

    p_in = sub.add_parser("ingest", help="normalize an external tool report")
    p_in.add_argument("report", metavar="REPORT")
    p_in.add_argument("--format", dest="report_format", required=True,
                      choices=REPORT_FORMATS)
    p_in.set_defaults(func=cmd_ingest)

    p_pe = sub.add_parser("persistence",
                          help="defect lifetime in calendar months")
    p_pe.add_argument("dates", nargs="*", metavar="DATE")
    p_pe.add_argument("--truth", help="print intervals for a truth manifest")
    p_pe.set_defaults(func=cmd_persistence)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"memlab: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # A traceback would exit 1, which callers read as "findings".
        detail = " ".join(str(exc).split())
        print(f"memlab: error: internal error: {type(exc).__name__}: {detail}",
              file=sys.stderr)
        return 2
